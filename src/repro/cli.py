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
from typing import List, Optional, Sequence

from .eval.cache import ResultCache
from .eval.dynamics import DYNAMICS_SCHEMES, run_dynamics
from .eval.experiments import (
    ATTACKS,
    DEFAULT_SWEEP,
    SCHEMES,
    ExperimentConfig,
    Fig11Result,
)
from .eval.procbench import (
    PACKET_KINDS,
    forwarding_rate_curve,
    format_table1,
    measure_processing_costs,
)
from .eval.results import summarize_metrics
from .eval.runner import (
    FIG11_SCHEMES,
    ScenarioSpec,
    SweepEvent,
    SweepRunner,
    build_fig11_spec,
    build_flood_specs,
)
from .eval.service import ProgressLog, parse_shard, run_shard
from .faults import FaultSchedule


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


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def _nonnegative_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


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


def _flood_specs(args, attack: str) -> List[ScenarioSpec]:
    """The scheme × attacker-count grid the shared grid flags describe."""
    config = ExperimentConfig(duration=args.duration, seed=args.seed)
    return _checked(build_flood_specs, attack, args.schemes, args.sweep,
                    config, metrics=args.metrics,
                    metrics_interval=args.metrics_interval)


def _metrics_lines(metrics) -> List[str]:
    """Human summary of one run's observability export."""
    finals = metrics["finals"]
    summary = summarize_metrics(metrics)
    lines = [f"  bottleneck util[{cls:7s}] peak : {peak:.3f}"
             for cls, peak in summary["util_peak"]]
    drops = finals.get("link.bottleneck.qdisc.drops")
    if drops is not None:
        lines.append(f"  bottleneck qdisc drops      : {drops}")
    if summary["flowstate_peak"] is not None:
        lines.append(f"  demotions (all routers)     : "
                     f"{summary['demotions'] or 0}")
        lines.append(f"  peak flow-state occupancy   : "
                     f"{summary['flowstate_peak']:.0f}")
    retrans = finals.get("transport.data_retransmits")
    aborts = finals.get("transport.aborts")
    if retrans is not None:
        lines.append(f"  tcp retransmits / aborts    : {retrans} / {aborts}")
    applied = finals.get("faults.applied")
    if applied:
        lines.append(f"  faults applied              : {applied} "
                     f"(reboots {finals.get('faults.reboots', 0)}, "
                     f"link downs {finals.get('faults.link_downs', 0)}, "
                     f"route changes {finals.get('faults.route_changes', 0)})")
        lines.append(f"  packets lost to faults      : "
                     f"{finals.get('faults.drained_packets', 0)} drained + "
                     f"{finals.get('link.bottleneck.fault_drops', 0)} at "
                     f"the down bottleneck")
        rereq = finals.get("hosts.requests_sent", 0)
        explorers = finals.get("hosts.explorers_sent", 0)
        lines.append(f"  re-requests / explorers     : {rereq} / {explorers}")
    return lines


def _cmd_flood(args) -> int:
    """Figures 8, 9 and 10: ``args.attack``/``args.title`` pick which."""
    specs = _flood_specs(args, args.attack)
    result = _make_runner(args).run_points(specs, seeds=args.seeds,
                                           title=args.title)
    print("", file=sys.stderr)
    if args.json:
        print(result.to_json())
    else:
        print(result.table())
    return 0


def _sparkline(series, t_max: float, buckets: int = 60) -> str:
    """A terminal rendering of the Figure 11 time series: worst transfer
    time per time bucket."""
    glyphs = " .:-=+*#%@"
    worst = [0.0] * buckets
    for start, duration in series:
        idx = min(buckets - 1, int(start / t_max * buckets))
        worst[idx] = max(worst[idx], duration)
    top = max(max(worst), 1.0)
    return "".join(
        glyphs[min(len(glyphs) - 1, int(w / top * (len(glyphs) - 1)))]
        for w in worst
    )


def _cmd_fig11(args) -> int:
    spec = _checked(build_fig11_spec, args.scheme, args.pattern,
                    duration=args.duration, metrics=args.metrics,
                    metrics_interval=args.metrics_interval)
    (run,) = _make_runner(args).run([spec])
    result = Fig11Result.from_run(spec, run)
    print("", file=sys.stderr)
    if args.json:
        payload = {
            "scheme": result.scheme,
            "pattern": result.pattern,
            "attack_start": result.attack_start,
            "max_transfer_time": result.max_transfer_time(),
            "disruption_end": result.disruption_end(),
            "effective_attack_seconds": result.effective_attack_seconds(),
            "completion_gaps": result.completion_gaps(),
            "series": result.series,
        }
        if result.metrics is not None:
            payload["metrics"] = result.metrics
        print(json.dumps(payload, indent=2))
        return 0
    print(f"Figure 11 — {args.scheme}, {args.pattern} "
          f"(attack starts at t=10 s)")
    print(f"  completed transfers : {len(result.series)}")
    print(f"  max transfer time   : {result.max_transfer_time():.2f} s")
    print(f"  disruption ends at  : {result.disruption_end():.1f} s")
    gaps = [(round(a, 1), round(b, 1)) for a, b in result.completion_gaps()]
    print(f"  completion gaps     : {gaps}")
    print(f"  transfer-time sketch (0..{args.duration:.0f} s, darker = slower):")
    print(f"  [{_sparkline(result.series, args.duration)}]")
    if result.metrics is not None:
        print("  metrics:")
        for line in _metrics_lines(result.metrics):
            print(f"  {line}")
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
    from .scenarios import format_scenario_table, get_scenario

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
        duration = 15.0 if args.duration is None else args.duration
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
        for line in _metrics_lines(run.metrics):
            print(line)
    return 0


def _cmd_dynamics(args) -> int:
    """Compare post-reboot recovery across schemes (Section 3.8)."""
    result = _checked(
        run_dynamics,
        schemes=args.schemes,
        reboot_at=args.reboot_at,
        duration=args.duration,
        n_attackers=args.attackers,
        router=args.router,
        rotate_secret=not args.keep_secret,
        seed=args.seed,
        metrics=args.metrics,
        metrics_interval=args.metrics_interval,
        runner=_make_runner(args),
    )
    print("", file=sys.stderr)
    if args.json:
        print(result.to_json())
    else:
        print("Dynamics — recovery after a router reboot")
        print(result.table())
        print()
        print("recovery(s): time after the reboot until the completion rate")
        print("is back to 90% of its pre-fault level ('never' = not within")
        print("the run; 0.0 = no visible degradation).")
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
    specs = _flood_specs(args, args.attack)
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
        if args.json:
            print(result.to_json())
        else:
            print(result.table())
    return 0


def _cmd_report(args) -> int:
    """Run every experiment at the chosen scale and write one markdown
    report — the whole evaluation in a single command.

    All flood sweeps and the four Figure 11 scenarios are batched into a
    single runner pass, so ``--jobs N`` parallelizes across the whole
    evaluation and warm caches regenerate the report near-instantly.
    """
    figures = (("legacy", "Figure 8 — legacy packet floods"),
               ("request", "Figure 9 — request packet floods"),
               ("colluder", "Figure 10 — authorized floods"))

    specs: List[ScenarioSpec] = []
    for attack, _ in figures:
        specs.extend(_flood_specs(args, attack))
    fig11_specs = [_checked(build_fig11_spec, scheme, pattern,
                            duration=args.fig11_duration,
                            metrics=args.metrics,
                            metrics_interval=args.metrics_interval)
                   for scheme in args.schemes if scheme in FIG11_SCHEMES
                   for pattern in ("all_at_once", "staggered")]
    sweep_result = _make_runner(args).run_points(
        specs + fig11_specs, seeds=args.seeds,
        title="TVA reproduction report")
    runs = sweep_result.points
    print("", file=sys.stderr)
    if args.json:
        print(sweep_result.to_json())
        return 0

    lines = ["# TVA reproduction report", ""]
    per_figure = len(args.schemes) * len(args.sweep)
    for index, (attack, title) in enumerate(figures):
        lines += [f"## {title}", "",
                  "| scheme | k | completion | avg time (s) |",
                  "|---|---|---|---|"]
        for point in runs[index * per_figure:(index + 1) * per_figure]:
            avg = point.time_mean
            lines.append(
                f"| {point.scheme} | {point.n_attackers} "
                f"| {point.fraction_mean:.2f} "
                f"| {'-' if avg is None else f'{avg:.2f}'} |")
        lines.append("")

    lines += ["## Figure 11 — imprecise policies", "",
              "| scheme | pattern | max transfer (s) | completion gaps |",
              "|---|---|---|---|"]
    for point, spec in zip(runs[3 * per_figure:], fig11_specs):
        result = Fig11Result.from_run(spec, point.runs[0])
        gaps = ", ".join(f"{a:.1f}-{b:.1f}"
                         for a, b in result.completion_gaps())
        lines.append(f"| {result.scheme} | {result.pattern} | "
                     f"{result.max_transfer_time():.2f} | {gaps or '-'} |")
    lines.append("")

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
        for index, (attack, _) in enumerate(figures):
            for point in runs[index * per_figure:(index + 1) * per_figure]:
                if point.runs[0].metrics is None:
                    continue
                summary = summarize_metrics(point.runs[0].metrics)
                peaks = " | ".join(
                    f"{peak:.3f}" for _, peak in summary["util_peak"])
                lines.append(
                    f"| {attack} | {point.scheme} | {point.n_attackers} "
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

    def add_grid_flags(p):
        """The scheme × attacker-count grid of a Figure 8-10 style sweep."""
        p.add_argument("--schemes", type=_parse_schemes,
                       default=list(SCHEMES),
                       help=f"comma-separated subset of {','.join(SCHEMES)}")
        p.add_argument("--sweep", type=_parse_sweep,
                       default=list(DEFAULT_SWEEP),
                       help="comma-separated attacker counts")
        p.add_argument("--duration", type=float, default=15.0,
                       help="simulated seconds per point")
        p.add_argument("--seed", type=int, default=1)

    for name, attack, title, help_text in (
        ("fig8", "legacy", "Figure 8 — legacy packet floods",
         "legacy packet floods"),
        ("fig9", "request", "Figure 9 — request packet floods",
         "request packet floods"),
        ("fig10", "colluder", "Figure 10 — authorized floods at a colluder",
         "authorized floods at a colluder"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_grid_flags(p)
        add_runner_flags(p)
        p.set_defaults(fn=_cmd_flood, attack=attack, title=title)

    p11 = sub.add_parser("fig11", help="imprecise authorization policies")
    p11.add_argument("--scheme", choices=FIG11_SCHEMES, default="tva")
    p11.add_argument("--pattern", choices=("all_at_once", "staggered"),
                     default="all_at_once")
    p11.add_argument("--duration", type=float, default=50.0)
    add_runner_flags(p11, seeds=False)
    p11.set_defaults(fn=_cmd_fig11)

    pt1 = sub.add_parser("table1", help="per-packet processing cost")
    pt1.add_argument("--packets", type=int, default=10_000,
                     help="packets measured per type")
    pt1.set_defaults(fn=_cmd_table1)

    p12 = sub.add_parser("fig12", help="forwarding rate vs offered load")
    p12.add_argument("--packets", type=int, default=10_000)
    p12.set_defaults(fn=_cmd_fig12)

    psw = sub.add_parser(
        "sweep",
        help="sharded, resumable sweep over a shared cache "
             "(repro.eval.service)")
    psw.add_argument("--attack",
                     choices=("legacy", "request", "colluder"),
                     default="legacy",
                     help="flood class for the grid (default: legacy)")
    add_grid_flags(psw)
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
    pr.add_argument("--schemes", type=_parse_schemes, default=list(SCHEMES))
    pr.add_argument("--sweep", type=_parse_sweep, default=[1, 10, 100])
    pr.add_argument("--duration", type=float, default=12.0)
    pr.add_argument("--fig11-duration", type=float, default=45.0,
                    help="window for the Figure 11 time series")
    pr.add_argument("--packets", type=int, default=8000)
    pr.add_argument("--seed", type=int, default=1)
    pr.add_argument("--output", default="RESULTS.md",
                    help="output file, or - for stdout")
    add_runner_flags(pr)
    pr.set_defaults(fn=_cmd_report)

    pd = sub.add_parser("dynamics",
                        help="recovery after a router reboot (Section 3.8)")
    pd.add_argument("--schemes", type=_parse_schemes,
                    default=list(DYNAMICS_SCHEMES),
                    help=f"comma-separated subset of {','.join(SCHEMES)} "
                         f"(default: {','.join(DYNAMICS_SCHEMES)})")
    pd.add_argument("--reboot-at", type=float, default=8.0, metavar="SEC",
                    help="when the router reboots (default: 8.0)")
    pd.add_argument("--duration", type=float, default=20.0,
                    help="simulated seconds per scheme")
    pd.add_argument("--attackers", type=int, default=0,
                    help="background flood size (default: 0 — isolate "
                         "the dynamics response)")
    pd.add_argument("--router", default="R1",
                    help="which router reboots (default: R1, the "
                         "trust-boundary router)")
    pd.add_argument("--keep-secret", action="store_true",
                    help="reboot without rotating the pre-capability "
                         "secret (flow state is still lost)")
    pd.add_argument("--seed", type=int, default=1)
    add_runner_flags(pd, seeds=False)
    pd.set_defaults(fn=_cmd_dynamics)

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
