#!/usr/bin/env python3
"""Compare benchmark result files (``run.py --out``) of two commits.

    python3 benchmarks/e2e/compare.py OLD.json NEW.json
    python3 benchmarks/e2e/compare.py --old O1.json O2.json ... --new N1.json N2.json ...

One row per workload x end-to-end metric: both medians with quartiles,
the ratio *with its base*, the bound from ``BENCHMARK.json`` and a
verdict:

``worse``         the new median exceeds the old by more than the bound;
``better``        only with several files per side, by the paired rule:
                  at least ten pairs, the new side wins >= 9/10 of them
                  (ties count for neither) and the medians differ by
                  more than the old side's inter-quartile distance;
``unresolved``    a side was marked noisy, or the spread is wider than
                  the bound and not every new sample beats every old one;
``within-bound``  otherwise.

It also diffs the simulated statistics: a change meant only to speed the
simulator up must leave them identical.  Traced result files get a
per-layer table (no verdicts: layer metrics have no bound).  Exit status
1 when any row is ``worse``, a simulated statistic changed, or the new
side failed more operations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalogue import SIM_STATS, WORKLOADS, median, per_layer_units, quartiles  # noqa: E402

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_bounds() -> Dict[str, float]:
    with open(HERE.parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def verdict(old_med: float, new_med: float, bound: float, spread: float,
            all_better: bool, gain: bool, noisy: bool) -> str:
    if noisy:
        return "unresolved"
    if gain:
        return "better"
    if new_med > old_med * (1.0 + bound):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "within-bound"


def paired_gain(old: Sequence[float], new: Sequence[float]) -> bool:
    """The paired rule of the choosing-metrics guide, section 8."""
    if len(old) < MIN_PAIRS_FOR_GAIN:
        return False
    wins = sum(1 for o, n in zip(old, new) if n < o)
    q1, q3 = quartiles(old)
    return (
        wins >= WIN_SHARE_FOR_GAIN * len(old)
        and median(old) - median(new) > q3 - q1
    )


class Side:
    """One commit's result files."""

    def __init__(self, paths: Sequence[str]) -> None:
        self.files = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                self.files.append(json.load(handle))

    def reports(self, workload: str) -> List[Dict]:
        return [
            f["workloads"][workload] for f in self.files
            if "died" not in f["workloads"].get(workload, {"died": True})
        ]

    def workloads(self) -> List[str]:
        """The workloads any file holds, in catalogue order."""
        return [w for w in WORKLOADS if any(w in f["workloads"] for f in self.files)]

    def seeds(self) -> List[int]:
        return [f["seed"] for f in self.files]


def _row(old: List[Dict], new: List[Dict], bound: float, noisy: bool):
    """``(old_med, old_q, new_med, new_q, verdict)`` for one metric of one
    workload; ``old``/``new`` are that metric's summaries, one per file."""
    if len(old) == 1:
        # One file per side: the spread is the reps' own.
        o, n = old[0], new[0]
        old_med, new_med = o["value"], n["value"]
        old_q = [o.get("q1", old_med), o.get("q3", old_med)]
        new_q = [n.get("q1", new_med), n.get("q3", new_med)]
        all_better = n.get("max", new_med) < o.get("min", old_med)
        gain = False
    else:
        old_values = [m["value"] for m in old]
        new_values = [m["value"] for m in new]
        old_med, new_med = median(old_values), median(new_values)
        old_q, new_q = quartiles(old_values), quartiles(new_values)
        all_better = max(new_values) < min(old_values)
        gain = paired_gain(old_values, new_values)
    spread = max(
        (old_q[1] - old_q[0]) / old_med if old_med else 0.0,
        (new_q[1] - new_q[0]) / new_med if new_med else 0.0,
    )
    return old_med, old_q, new_med, new_q, verdict(
        old_med, new_med, bound, spread, all_better, gain, noisy
    )


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def _sim_of(report: Dict) -> Dict[str, Optional[float]]:
    source = report.get("per_layer") or report.get("sim") or {}
    return {name: source[name] for name in SIM_STATS if name in source}


def compare(old: Side, new: Side, out=sys.stdout) -> int:
    bounds = load_bounds()
    status = 0
    if old.seeds() != new.seeds():
        print(f"seeds differ (old {old.seeds()}, new {new.seeds()}): pair the "
              "files by seed; simulated statistics are not comparable", file=out)
        status = 1
    if len(old.files) != len(new.files):
        print("need the same number of result files on each side", file=out)
        return 2
    header = (f"{'workload':24s} {'metric':12s} {'old median [q1, q3]':>30s} "
              f"{'new median [q1, q3]':>30s} {'new/old':>18s} {'bound':>6s}  verdict")
    print(header, file=out)
    for workload in old.workloads():
        old_reports, new_reports = old.reports(workload), new.reports(workload)
        if len(old_reports) != len(old.files) or len(new_reports) != len(new.files):
            print(f"{workload:24s} missing or dead on one side: unresolved", file=out)
            status = 1
            continue
        noisy = any(r.get("noisy") for r in old_reports + new_reports)
        if "end_to_end" in old_reports[0] and "end_to_end" in new_reports[0]:
            for metric, bound in bounds.items():
                old_med, old_q, new_med, new_q, v = _row(
                    [r["end_to_end"][metric] for r in old_reports],
                    [r["end_to_end"][metric] for r in new_reports],
                    bound, noisy,
                )
                if v == "worse":
                    status = 1
                print(
                    f"{workload:24s} {metric:12s} "
                    f"{old_med:10.4f} [{old_q[0]:.4f}, {old_q[1]:.4f}] "
                    f"{new_med:10.4f} [{new_q[0]:.4f}, {new_q[1]:.4f}] "
                    f"{new_med / old_med:7.4f} of {old_med:<7.4g} {bound:6.2f}  {v}",
                    file=out,
                )
        elif "per_layer" in old_reports[0] and "per_layer" in new_reports[0]:
            for metric, unit in per_layer_units().items():
                o = old_reports[0]["per_layer"].get(metric)
                n = new_reports[0]["per_layer"].get(metric)
                ratio = f"{n / o:7.4f} of {o:<.4g}" if o and n is not None else "-"
                print(f"{workload:24s} {metric:34s} {_fmt(o):>12s} {_fmt(n):>12s} {unit:6s} {ratio}",
                      file=out)

        old_failed = sum(r["ops_failed"] for r in old_reports)
        new_failed = sum(r["ops_failed"] for r in new_reports)
        print(f"{workload:24s} ops_failed   old {old_failed}  new {new_failed}"
              + ("  NOISY: rows unresolved" if noisy else ""), file=out)
        if new_failed > old_failed:
            status = 1

        reference = _sim_of(old_reports[0])
        for report in old_reports[1:] + new_reports:
            for name, value in _sim_of(report).items():
                if name in reference and value != reference[name]:
                    print(f"{workload:24s} {name} CHANGED: {reference[name]} -> {value}",
                          file=out)
                    status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="OLD.json NEW.json")
    parser.add_argument("--old", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.old or args.new:
            parser.error("give OLD.json NEW.json, or --old ... --new ...")
        args.old, args.new = [args.files[0]], [args.files[1]]
    if not args.old or not args.new:
        parser.error("need result files for both sides")
    return compare(Side(args.old), Side(args.new))


if __name__ == "__main__":
    sys.exit(main())
