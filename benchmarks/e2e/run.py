#!/usr/bin/env python3
"""The repo benchmark: host time and memory to regenerate a figure point.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--traced] [--out FILE]

Each workload runs in its own fresh child process, one at a time (the
box has two cores: one busy process, no threads, no pool).  The child
gets ``PYTHONPATH=src``, ``PYTHONHASHSEED=0`` and no ``REPRO_*``
variables, so the same program is measured on every commit.  A plain
run prints the end-to-end metrics; ``--traced`` (or ``--trace 1``)
prints the per-layer ones from a separate run.  Exit status is non-zero
when any operation failed or a child died.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from catalogue import WORKLOADS, per_layer_units  # noqa: E402

SCHEMA = "repro.e2e/v1"
#: A child that outlives this is killed and reported as dead; it keeps
#: one whole invocation for one workload under the driver's 180 s.
CHILD_TIMEOUT_S = 170
#: Below this CPU/wall ratio something else had the processor.
NOISY_CPU_WALL_RATIO = 0.87


def _default_seconds() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return int(json.load(handle)["run_seconds"])


def _git_commit() -> str:
    # The driver's checkout is not a repository; do not let git search
    # the directories above it.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(workload: str, args) -> Optional[Dict]:
    """One workload in a fresh process; its report, or ``None`` if it died."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.fail_shape:
        command.append("--fail-shape")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: child killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"{workload}: child exited with status {done.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"{workload}: child printed no report", file=sys.stderr)
        return None


def _print_metric(workload: str, name: str, metric: Dict) -> None:
    value = metric["value"]
    shown = "null" if value is None else f"{value:.6g}"
    line = f"{workload:24s} {name:34s} {shown:>12s} {metric['unit']}"
    if "n" in metric:
        line += (
            f"   [q1 {metric['q1']:.4g}  q3 {metric['q3']:.4g}  "
            f"min {metric['min']:.4g}  max {metric['max']:.4g}  n={metric['n']}]"
        )
    print(line)


def _metrics_of(report: Dict, traced: bool) -> Dict[str, Dict]:
    """The report's metrics as ``name -> {"value", "unit", ...}``."""
    if not traced:
        return report["end_to_end"]
    units = per_layer_units()
    return {
        name: {"value": report["per_layer"].get(name), "unit": unit}
        for name, unit in units.items()
    }


def _annotate_noise(report: Dict, load_1m: float, traced: bool) -> None:
    """Record the noise indicators; do not hide them."""
    nproc = os.cpu_count() or 1
    report["loadavg_1m"] = load_1m
    noisy = load_1m > nproc
    if not traced:
        e2e = report["end_to_end"]
        ratio = e2e["run_cpu_s"]["value"] / e2e["run_wall_s"]["value"]
        report["cpu_wall_ratio"] = ratio
        noisy = noisy or ratio < NOISY_CPU_WALL_RATIO
    report["noisy"] = noisy


def _contract_line(report: Dict, traced: bool) -> str:
    """The driver's one-line result.  Its values must be numbers, so a
    counter that no longer exists reads 0 here (``null`` in ``--out``)."""
    metrics = {
        name: {"value": 0 if m["value"] is None else m["value"], "unit": m["unit"]}
        for name, m in _metrics_of(report, traced).items()
    }
    return json.dumps(
        {
            "correct": report["ops_failed"] == 0,
            "attempted": report["ops_attempted"],
            "failed": report["ops_failed"],
            "metrics": metrics,
        }
    )


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=1,
                        help="passed as ScenarioSpec.seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed reps of one workload last "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer metrics from a traced run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test scale: 1 simulated second, 1 rep, "
                             "determinism checked but not the paper's shape")
    parser.add_argument("--fail-shape", action="store_true",
                        help="self-test: every shape check fails, to prove "
                             "that failed operations reach the exit status")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(_default_seconds())
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    traced = bool(args.trace)
    if args.child:
        from measure import child_main

        return child_main(args.workload, args.seed, args.seconds, traced,
                          args.smoke, args.fail_shape)

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    result = {
        "schema": SCHEMA,
        "traced": traced,
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": _git_commit(),
            "loadavg_1m_start": os.getloadavg()[0],
        },
        "workloads": {},
    }
    died = []
    for name in names:
        load_1m = os.getloadavg()[0]
        report = _run_child(name, args)
        if report is None:
            died.append(name)
            result["workloads"][name] = {"died": True}
            continue
        _annotate_noise(report, load_1m, traced)
        result["workloads"][name] = report
        for metric, body in _metrics_of(report, traced).items():
            _print_metric(name, metric, body)
        print(f"{name:24s} ops_attempted {report['ops_attempted']}  "
              f"ops_failed {report['ops_failed']}"
              + ("  NOISY (see README: noise record)" if report["noisy"] else ""))
        for failure in report["failures"]:
            print(f"{name:24s} FAILED {failure}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")

    failed = sum(r.get("ops_failed", 0) for r in result["workloads"].values())
    if died:
        print(f"child process died: {', '.join(died)}", file=sys.stderr)
        return 1
    if args.workload:
        print(_contract_line(result["workloads"][args.workload], traced))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
