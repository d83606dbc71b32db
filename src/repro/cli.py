"""Command-line interface: regenerate any paper experiment from a shell.

Examples::

    python -m repro fig8                      # all four schemes, default sweep
    python -m repro fig8 --jobs 4 --seeds 5   # parallel, with 95% CIs
    python -m repro fig9 --schemes tva,siff --sweep 10,100 --duration 20
    python -m repro fig10 --json > fig10.json
    python -m repro fig11 --scheme siff --pattern staggered
    python -m repro table1
    python -m repro fig12
    python -m repro scenario --scheme tva --attack legacy --attackers 30
    python -m repro scenario --scheme tva --fault link-down:1.0:5.0:bottleneck
    python -m repro dynamics --jobs 2 --metrics   # recovery after a reboot
    python -m repro lint                          # determinism static analysis
    python -m repro sweep --shard 0/2 --cache-dir /shared/cache   # half a grid
    python -m repro sweep --merge --json          # reassemble + emit the grid

The simulated artifacts — ``fig8``–``fig11`` and ``dynamics`` — are the
entries of :data:`repro.scenarios.FIGURES`: their subcommands are
generated in one loop, one flag per entry parameter (spelling and help
in ``_FIGURE_FLAGS`` below, defaults from the entry), and all run through
``_cmd_figure``.  ``report`` and ``sweep`` build their grids and sections
from the same entries; this module only parses and dispatches.

Every simulation subcommand shares the sweep-runner flags: ``--jobs N``
fans sweep points out across processes (default: all cores), ``--seeds
N`` replicates each point and reports mean ± 95% CI, ``--json`` emits
machine-readable results, and results are cached on disk (``--no-cache``
/ ``--cache-dir`` to disable or relocate) so re-runs are near-instant.
``--metrics`` attaches the deterministic observability layer
(:mod:`repro.obs`): per-class link utilization, qdisc drops by reason,
flow-state occupancy, and TCP retransmit series, carried in the JSON
output and summarized in text mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .eval.cache import ResultCache
from .eval.experiments import ATTACKS, SCHEMES, ExperimentConfig
from .eval.procbench import (
    PACKET_KINDS,
    forwarding_rate_curve,
    format_table1,
    measure_processing_costs,
)
from .eval.results import SweepResult, metrics_lines, summarize_metrics
from .eval.runner import (
    FIG11_PATTERNS,
    FIG11_SCHEMES,
    ScenarioSpec,
    SweepEvent,
    SweepRunner,
)
from .eval.service import ProgressLog, parse_shard, run_shard
from .faults import FaultSchedule
from .scenarios import (
    FIGURES,
    FLOOD_FIGURES,
    FigureDef,
    format_scenario_table,
    get_scenario,
)


def _parse_schemes(value: str) -> List[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    for name in names:
        if name not in SCHEMES:
            raise argparse.ArgumentTypeError(
                f"unknown scheme {name!r}; choose from {', '.join(SCHEMES)}"
            )
    return names


def _parse_scheme_opt(value: str):
    """One ``--scheme-opt KEY=VALUE`` pair; VALUE is parsed as JSON when
    possible (numbers, booleans, lists) and kept as a string otherwise."""
    key, sep, raw = value.partition("=")
    if not sep or not key.strip():
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {value!r}")
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw
    return key.strip(), parsed


def _parse_sweep(value: str) -> List[int]:
    try:
        return [int(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(minimum: int):
    def parse(value: str) -> int:
        try:
            parsed = int(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if parsed < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return parsed
    return parse


_positive_int, _nonnegative_int = _int_at_least(1), _int_at_least(0)


class _BadInput(Exception):
    """User input a spec builder rejected; ``main`` prints it and exits 2."""


def _checked(build, *args, **kwargs):
    """Call a spec builder on user input.

    Specs validate everything at construction — an unknown knob is a
    ``TypeError``, an out-of-range value or malformed fault a
    ``ValueError``, an unknown scenario a ``KeyError`` — so this is the
    one place the CLI turns those into an ``error:`` line.  Failures
    inside a run are not input errors and keep their traceback (or
    arrive as a ``SweepFailure``).
    """
    try:
        return build(*args, **kwargs)
    except KeyError as exc:
        raise _BadInput(exc.args[0]) from None
    except (ValueError, TypeError) as exc:
        raise _BadInput(str(exc)) from None


def _ticker(event: SweepEvent) -> None:
    """The stderr progress line: one update per spec done or cached."""
    if event.kind not in ("done", "cached"):
        return
    spec = event.spec
    tag = " (cached)" if event.kind == "cached" else ""
    print(f"\r{spec.scheme} k={spec.n_attackers} seed={spec.seed}"
          f" done{tag}   ", end="", file=sys.stderr)


def _make_runner(args, log: Optional[ProgressLog] = None) -> SweepRunner:
    """Build a :class:`SweepRunner` from the shared CLI flags; its events
    feed the stderr ticker and, when given, ``log``."""
    cache = None
    if not getattr(args, "no_cache", False):
        cache = ResultCache(getattr(args, "cache_dir", None))

    def on_event(event: SweepEvent) -> None:
        _ticker(event)
        if log is not None:
            log(event)

    return SweepRunner(jobs=getattr(args, "jobs", None), cache=cache,
                       retries=getattr(args, "retries", 1),
                       on_event=on_event)


def _params(figure: FigureDef, args) -> Dict:
    """``figure``'s parameters at the values its flags carry."""
    return {name: getattr(args, name) for name in figure.defaults}


def _grid(figure: FigureDef, args, params: Dict) -> List[ScenarioSpec]:
    return _checked(figure.specs, args.metrics, args.metrics_interval,
                    **params)


def _cmd_figure(args) -> int:
    """Every :data:`~repro.scenarios.FIGURES` subcommand: run the entry's
    grid at the flags' parameters and print its text or JSON view."""
    figure = FIGURES[args.command]
    params = _params(figure, args)
    specs = _grid(figure, args, params)
    sweep = _make_runner(args).run_points(
        specs, seeds=getattr(args, "seeds", 1), title=figure.title)
    print("", file=sys.stderr)
    record = figure.view(params, specs, sweep)
    print(record.to_json() if args.json
          else figure.text(figure.title, params, record))
    return 0


def _cmd_table1(args) -> int:
    costs = measure_processing_costs(packets_per_kind=args.packets)
    print("Table 1 — processing overhead of different packet types")
    print(format_table1(costs))
    print()
    print("Paper (Linux kernel module): request 460 ns, regular-cached 33 ns,")
    print("regular-uncached 1486 ns, renewal-cached 439 ns, renewal-uncached 1821 ns.")
    return 0


def _cmd_fig12(args) -> int:
    print("Figure 12 — output rate vs input rate (kpps)")
    rates = (50, 100, 150, 200, 250, 300, 350, 400)
    curves = {
        kind: dict(forwarding_rate_curve(kind, rates, args.packets))
        for kind in PACKET_KINDS
    }
    print("input " + " ".join(f"{k[:13]:>14s}" for k in PACKET_KINDS))
    for rate in rates:
        print(f"{rate:5d} " + " ".join(
            f"{curves[k][rate]:14.1f}" for k in PACKET_KINDS))
    return 0


def _cmd_scenario(args) -> int:
    if args.list_scenarios:
        print(format_scenario_table())
        return 0
    faults = _checked(FaultSchedule.from_specs, args.fault or ())
    scheme_options = dict(args.scheme_opt or ())
    if args.name:
        scenario = _checked(get_scenario, args.name)
        spec = _checked(scenario.spec, scheme=args.scheme, seed=args.seed,
                        duration=args.duration, metrics=args.metrics,
                        metrics_interval=args.metrics_interval,
                        faults=faults, scheme_options=scheme_options,
                        regular_qdisc=args.regular_qdisc)
    else:
        duration = (ExperimentConfig().duration if args.duration is None
                    else args.duration)
        config = ExperimentConfig(duration=duration, seed=args.seed,
                                  regular_qdisc=args.regular_qdisc)
        spec = _checked(ScenarioSpec, scheme=args.scheme, attack=args.attack,
                        n_attackers=args.attackers, seed=args.seed,
                        config=config, metrics=args.metrics,
                        metrics_interval=args.metrics_interval,
                        faults=faults, scheme_options=scheme_options)
    (run,) = _make_runner(args).run([spec])
    print("", file=sys.stderr)
    if args.json:
        print(json.dumps(run.to_dict(), indent=2))
        return 0
    avg = run.avg_transfer_time
    label = f"scenario={args.name} " if args.name else ""
    print(f"{label}scheme={args.scheme} attack={spec.attack} "
          f"k={spec.n_attackers} duration={spec.config.duration:.0f}s")
    print(f"  completion fraction : {run.fraction_completed:.2f}")
    print(f"  avg transfer time   : "
          f"{'-' if avg is None else f'{avg:.2f} s'}")
    print(f"  transfers completed : {run.transfers_completed}")
    if run.metrics is not None:
        print("metrics:")
        for line in metrics_lines(run.metrics):
            print(line)
    return 0


def _cmd_lint(args) -> int:
    """Run the determinism & simulation-safety analyzer (repro.lint).

    With no paths, lints the installed ``repro`` package itself — the
    tree whose determinism guarantees the experiments depend on.  Exits
    1 when any finding is neither suppressed inline nor baselined.
    """
    from pathlib import Path

    from .lint import (
        Baseline,
        LintEngine,
        LintError,
        mark_baselined,
        render_github,
        render_json,
        render_text,
    )

    paths = [Path(p) for p in args.paths] if args.paths \
        else [Path(__file__).parent]
    select = None
    if args.select:
        select = [token.strip() for token in args.select.split(",")
                  if token.strip()]
    exclude = [Path(p) for p in args.exclude] if args.exclude else None
    try:
        engine = LintEngine(select=select, exclude=exclude)
        findings, files_scanned = engine.lint_paths(paths)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline else None
    if args.write_baseline:
        if baseline_path is None:
            print("error: --write-baseline requires --baseline PATH",
                  file=sys.stderr)
            return 2
        baseline = Baseline.from_findings(findings)
        baseline.save(baseline_path)
        print(f"wrote {len(baseline)} fingerprint(s) to {baseline_path}")
        return 0
    if baseline_path is not None:
        try:
            known = Baseline.load(baseline_path).known()
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings = mark_baselined(findings, known)

    if args.format == "json":
        print(render_json(findings, files_scanned))
    elif args.format == "github":
        print(render_github(findings, files_scanned))
    else:
        print(render_text(findings, files_scanned,
                          show_suppressed=args.show_suppressed))
    return 1 if any(f.active for f in findings) else 0


def _cmd_bench(args) -> int:
    """Run the repro.perf workloads and check the op-count guard.

    The exit status gates on the deterministic op-count guard
    (``benchmarks/opcount_guard.json``).  Time is measured by
    ``python3 benchmarks/e2e/run.py``, not here.
    """
    from pathlib import Path

    from .perf.harness import (
        check_opcount_guard,
        load_guard,
        run_bench,
        write_guard,
    )

    report = run_bench()
    print(report.table())

    guard_path = Path(args.guard)
    if args.update_guard:
        write_guard(report, guard_path)
        print(f"updated op-count guard {guard_path}")
        return 0
    if not guard_path.exists():
        print(f"(no op-count guard at {guard_path}; "
              "create one with --update-guard)")
        return 0
    try:
        problems = check_opcount_guard(report, load_guard(guard_path))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if problems:
        print(f"\nop-count guard FAILED ({guard_path}):", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        print("if the change is intentional, regenerate with: "
              "repro bench --update-guard", file=sys.stderr)
        return 1
    print(f"op-count guard OK ({guard_path})")
    return 0


def _parse_shard_arg(value: str):
    try:
        return parse_shard(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _cmd_sweep(args) -> int:
    """Sharded, resumable sweep over a shared cache (repro.eval.service).

    Each invocation runs its ``--shard i/N`` slice of the grid; the
    shared cache makes a re-invocation after a crash re-run only the
    missing specs, and ``--progress-log`` is the sweep's one journal.
    With ``--merge`` (or when unsharded) it then reassembles the whole
    grid from the cache into SweepResult JSON byte-identical to a
    single-process ``--jobs 1`` run.
    """
    figure = FLOOD_FIGURES[args.attack]
    specs = _grid(figure, args, _params(figure, args))
    shard, of = args.shard if args.shard else (0, 1)
    log = ProgressLog(args.progress_log) if args.progress_log else None
    report = run_shard(_make_runner(args, log), specs, shard, of, args.seeds)
    print("", file=sys.stderr)
    print(report.summary(), file=sys.stderr)
    if not report.ok:
        return 1
    if of == 1 or args.merge:
        title = (f"Sharded sweep — {args.attack} floods, "
                 f"{','.join(args.schemes)}")
        result = _make_runner(args).run_points(specs, seeds=args.seeds,
                                               title=title)
        print("", file=sys.stderr)
        print(result.to_json() if args.json else result.table())
    return 0


def _cmd_report(args) -> int:
    """Run every experiment at the chosen scale and write one markdown
    report — the whole evaluation in a single command.

    The sections are the flood figures' subcommand output at the
    report's grid flags, and ``repro fig11``'s for each scheme × pattern
    at ``--fig11-duration``; all their grids are batched into a single
    runner pass, so ``--jobs N`` parallelizes across the whole
    evaluation and warm caches regenerate the report near-instantly.
    """
    fig11 = FIGURES["fig11"]
    sections = [(FLOOD_FIGURES[attack], _params(FLOOD_FIGURES[attack], args))
                for attack in FLOOD_FIGURES]
    sections += [(fig11, {"scheme": scheme, "pattern": pattern,
                          "duration": args.fig11_duration})
                 for scheme in args.schemes if scheme in FIG11_SCHEMES
                 for pattern in FIG11_PATTERNS]
    grids = [_grid(figure, args, params) for figure, params in sections]
    sweep = _make_runner(args).run_points(
        [spec for grid in grids for spec in grid], seeds=args.seeds,
        title="TVA reproduction report")
    print("", file=sys.stderr)
    if args.json:
        print(sweep.to_json())
        return 0

    lines = ["# TVA reproduction report", ""]
    points = iter(sweep.points)
    heading = None
    for (figure, params), specs in zip(sections, grids):
        part = SweepResult(figure.title, [next(points) for _ in specs])
        if figure.title != heading:
            heading = figure.title
            lines += [f"## {heading}", ""]
        record = figure.view(params, specs, part)
        lines += ["```", figure.text(figure.title, params, record), "```", ""]

    if args.metrics:
        lines += ["## Metrics — deterministic observability (`repro.obs`)",
                  "",
                  "Peak per-interval bottleneck utilization by traffic "
                  "class (Figure 2's output classes), peak flow-state "
                  "occupancy (the Section 3.6 bound), and total demotions, "
                  "from the seed-0 run of each point.", "",
                  "| figure | scheme | k | util req | util reg | util leg "
                  "| peak flow state | demotions |",
                  "|---|---|---|---|---|---|---|---|"]
        for point in sweep.points:
            if (point.attack not in FLOOD_FIGURES
                    or point.runs[0].metrics is None):
                continue
            summary = summarize_metrics(point.runs[0].metrics)
            peaks = " | ".join(
                f"{peak:.3f}" for _, peak in summary["util_peak"])
            lines.append(
                f"| {point.attack} | {point.scheme} | {point.n_attackers} "
                f"| {peaks} | {summary['flowstate_peak'] or 0:.0f} "
                f"| {summary['demotions'] or 0} |")
        lines.append("")

    costs = measure_processing_costs(packets_per_kind=args.packets)
    lines += ["## Table 1 — processing cost", "", "```",
              format_table1(costs), "```", ""]

    text = "\n".join(lines)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    return 0


#: Spelling and help of each figure parameter's flag, keyed by parameter
#: name (``reboot_at`` is ``--reboot-at``); defaults come from the entry.
_FIGURE_FLAGS: Dict[str, Dict] = {
    "schemes": dict(type=_parse_schemes,
                    help=f"comma-separated subset of {','.join(SCHEMES)}"),
    "sweep": dict(type=_parse_sweep, help="comma-separated attacker counts"),
    "duration": dict(type=float, help="simulated seconds per run"),
    "seed": dict(type=int),
    "scheme": dict(choices=FIG11_SCHEMES),
    "pattern": dict(choices=FIG11_PATTERNS),
    "reboot_at": dict(type=float, metavar="SEC",
                      help="when the router reboots"),
    "attackers": dict(type=int, help="background flood size (0 isolates "
                                     "the dynamics response)"),
    "router": dict(help="which router reboots (R1 is the trust-boundary "
                        "router)"),
    "keep_secret": dict(action="store_true",
                        help="reboot without rotating the pre-capability "
                             "secret (flow state is still lost)"),
}


def _add_figure_flags(parser: argparse.ArgumentParser, params) -> None:
    """One flag per ``(name, default)`` figure parameter."""
    for name, default in params:
        parser.add_argument("--" + name.replace("_", "-"), default=default,
                            **_FIGURE_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the TVA paper's experiments (SIGCOMM 2005).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner_flags(p, seeds=True, no_cache=True):
        """The sweep-runner knobs shared by every simulation command."""
        p.add_argument("--jobs", type=_positive_int, default=None,
                       metavar="N",
                       help="worker processes (default: all cores; "
                            "1 = deterministic in-process)")
        if seeds:
            p.add_argument("--seeds", type=_positive_int, default=1,
                           metavar="N",
                           help="seed replications per point "
                                "(mean ± 95%% CI when > 1)")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of a table")
        if no_cache:
            p.add_argument("--no-cache", action="store_true",
                           help="skip the on-disk result cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro)")
        p.add_argument("--metrics", action="store_true",
                       help="record deterministic metric time series "
                            "(per-class utilization, drops by reason, "
                            "flow-state occupancy, TCP retransmits)")
        p.add_argument("--metrics-interval", type=float, default=0.5,
                       metavar="SEC",
                       help="sampling interval in simulated seconds "
                            "(default: 0.5)")

    for name in FIGURES:
        figure = FIGURES[name]
        p = sub.add_parser(name, help=figure.title.partition(" — ")[2])
        _add_figure_flags(p, figure.params)
        add_runner_flags(p, seeds=figure.seeds)
        p.set_defaults(fn=_cmd_figure)

    pt1 = sub.add_parser("table1", help="per-packet processing cost")
    pt1.add_argument("--packets", type=_positive_int, default=10_000,
                     help="packets measured per type")
    pt1.set_defaults(fn=_cmd_table1)

    p12 = sub.add_parser("fig12", help="forwarding rate vs offered load")
    p12.add_argument("--packets", type=_positive_int, default=10_000)
    p12.set_defaults(fn=_cmd_fig12)

    psw = sub.add_parser(
        "sweep",
        help="sharded, resumable sweep over a shared cache "
             "(repro.eval.service)")
    psw.add_argument("--attack", choices=tuple(FLOOD_FIGURES),
                     default="legacy",
                     help="flood class for the grid (default: legacy)")
    _add_figure_flags(psw, FIGURES["fig8"].params)
    # No --no-cache: the shared cache is how shards hand results over.
    add_runner_flags(psw, no_cache=False)
    psw.add_argument("--shard", type=_parse_shard_arg, default=None,
                     metavar="I/N",
                     help="run only this deterministic slice of the grid "
                          "(e.g. 0/2 and 1/2 in two terminals); "
                          "default: the whole grid")
    psw.add_argument("--retries", type=_nonnegative_int, default=2,
                     metavar="N",
                     help="extra attempts per spec after a worker failure "
                          "(default: 2)")
    psw.add_argument("--progress-log", default=None, metavar="PATH",
                     help="append JSONL progress events (cached/start/"
                          "done/retry/failed, with per-spec timing) to "
                          "PATH — the sweep's one journal")
    psw.add_argument("--merge", action="store_true",
                     help="after running the shard, reassemble the whole "
                          "grid from the cache and print the SweepResult "
                          "(implied when unsharded)")
    psw.set_defaults(fn=_cmd_sweep)

    pr = sub.add_parser("report", help="run everything, write one markdown report")
    # The report's own scale: the flood grid flags at smaller defaults.
    _add_figure_flags(pr, dict(FIGURES["fig8"].params, sweep=(1, 10, 100),
                               duration=12.0).items())
    pr.add_argument("--fig11-duration", type=float, default=45.0,
                    help="window for the Figure 11 time series")
    pr.add_argument("--packets", type=_positive_int, default=8000)
    pr.add_argument("--output", default="RESULTS.md",
                    help="output file, or - for stdout")
    add_runner_flags(pr)
    pr.set_defaults(fn=_cmd_report)

    pl = sub.add_parser(
        "lint",
        help="determinism & simulation-safety static analysis (repro.lint)")
    pl.add_argument("paths", nargs="*", metavar="PATH",
                    help="files or directories to lint "
                         "(default: the repro package itself)")
    pl.add_argument("--format", choices=("text", "json", "github"),
                    default="text",
                    help="report format (default: text; github emits "
                         "::error workflow annotations)")
    pl.add_argument("--select", default=None, metavar="RULES",
                    help="comma-separated rule codes, slugs, or single-"
                         "letter families to run (e.g. P or D,S001; "
                         "default: all)")
    pl.add_argument("--exclude", action="append", default=None,
                    metavar="PATH",
                    help="skip files under PATH (repeatable; e.g. the "
                         "deliberately-dirty tests/lint/fixtures)")
    pl.add_argument("--baseline", default=None, metavar="PATH",
                    help="baseline file: known findings don't fail the run")
    pl.add_argument("--write-baseline", action="store_true",
                    help="write current unsuppressed findings to --baseline "
                         "and exit 0")
    pl.add_argument("--show-suppressed", action="store_true",
                    help="also list suppressed/baselined findings in text "
                         "output")
    pl.set_defaults(fn=_cmd_lint)

    pb = sub.add_parser(
        "bench",
        help="per-packet op-count workloads and their guard (repro.perf)")
    pb.add_argument("--guard", default="benchmarks/opcount_guard.json",
                    metavar="PATH",
                    help="deterministic op-count guard to check "
                         "(default: benchmarks/opcount_guard.json)")
    pb.add_argument("--update-guard", action="store_true",
                    help="rewrite the guard from this run instead of "
                         "checking it")
    pb.set_defaults(fn=_cmd_bench)

    ps = sub.add_parser("scenario",
                        help="one flood scenario: custom dumbbell or a "
                             "curated library entry")
    ps.add_argument("--list", action="store_true", dest="list_scenarios",
                    help="print the curated scenario library and exit")
    ps.add_argument("--name", metavar="SCENARIO",
                    help="run a curated scenario from the library "
                         "(see --list) instead of a custom dumbbell")
    ps.add_argument("--scheme", choices=SCHEMES, default="tva")
    ps.add_argument("--attack", choices=ATTACKS, default="legacy")
    ps.add_argument("--attackers", type=int, default=10)
    ps.add_argument("--duration", type=float, default=None,
                    help="measurement window in seconds (default: 15, or "
                         "the curated scenario's tuned duration)")
    ps.add_argument("--seed", type=int, default=1)
    ps.add_argument("--regular-qdisc", choices=("drr", "sfq"), default="drr",
                    help="fair queuing for TVA's regular class: per-key "
                         "DRR (the paper) or hashed SFQ (Section 3.9)")
    ps.add_argument("--fault", action="append", metavar="SPEC",
                    help="inject a fault; repeatable.  SPECs: "
                         "link-down:T[:T_up][:LINK], link-up:T[:LINK], "
                         "reboot:T[:ROUTER][:keep-secret], route-change:T "
                         "(e.g. --fault link-down:1.0:5.0:bottleneck)")
    ps.add_argument("--scheme-opt", action="append", metavar="KEY=VALUE",
                    type=_parse_scheme_opt, dest="scheme_opt",
                    help="override one knob of the selected scheme "
                         "(repeatable); KEY is a field of the scheme's "
                         "knob dataclass, VALUE is JSON when parseable "
                         "(e.g. --scheme-opt beta=0.3)")
    add_runner_flags(ps, seeds=False)
    ps.set_defaults(fn=_cmd_scenario)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
