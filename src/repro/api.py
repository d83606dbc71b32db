"""The stable public API.

This module is the supported import surface for scripts, notebooks, and
examples::

    from repro.api import ScenarioSpec, run_scenario, sweep, build_scheme

Three entry points cover the common workflows:

* :func:`run_scenario` — one simulation, one result;
* :func:`sweep` — many specs, parallel + cached + multi-seed, one
  :class:`SweepResult`;
* :func:`build_scheme` — instantiate any registered scheme by name,
  with knob overrides (the :data:`SCHEMES` registry).

A paper artifact is one more call: ``FIGURES["fig11"].run(scheme="siff")``
runs what ``repro fig11 --scheme siff`` runs and returns the record it
prints (:data:`FIGURES` holds Figures 8–11 and the reboot experiment).

Scripts should import from here; the deep module paths
(``repro.eval.runner`` etc.) remain importable but are implementation
detail.  There is one run path — a :class:`ScenarioSpec` goes through
:func:`run_spec` (directly, or via :func:`run_scenario` / :func:`sweep` /
:class:`SweepRunner`) and comes back as a :class:`RunResult` — and one
cache, :class:`ResultCache` over a directory.  :class:`SweepRunner` is
also the one sweep driver: :func:`run_scenario`, :func:`sweep` and
:func:`run_shard` (one slice of a sharded grid) all go through it, and
its ``on_event`` stream is the one progress channel.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

# -- scheme registry -------------------------------------------------------
from .schemes import (
    SCHEMES,
    InternetKnobs,
    NetFenceKnobs,
    PushbackKnobs,
    SchemeKnobs,
    SiffKnobs,
    TvaKnobs,
    build_scheme,
    knobs_for,
    register_scheme,
    scheme_names,
)

# -- static analysis (determinism & simulation safety) ---------------------
from .lint import Finding, LintEngine, LintError
from .lint import RULES as LINT_RULES
from .lint import lint_paths

# -- benchmarking (deterministic op counts) --------------------------------
from .perf import (
    PERF,
    BenchReport,
    OpCountProbe,
    OpCounts,
    PerfCounters,
    run_bench,
)

# -- fault injection -------------------------------------------------------
from .faults import (
    FaultInjector,
    FaultSchedule,
    LinkDown,
    LinkUp,
    RouteChange,
    RouterReboot,
    parse_fault,
)

# -- curated scenario library ----------------------------------------------
from .scenarios import (
    FIGURES,
    SCENARIOS as SCENARIO_LIBRARY,
    FigureDef,
    ScenarioDef,
    format_scenario_table,
    get_scenario,
    scenario_names,
)

# -- scenario running ------------------------------------------------------
from .eval.cache import ResultCache, default_cache_dir
from .eval.dynamics import DynamicsResult, build_dynamics_spec, recovery_time
from .eval.experiments import ExperimentConfig
from .eval.results import PointResult, RunResult, ShardReport, SweepResult
from .eval.runner import (
    FIG11_SCHEMES,
    ScenarioSpec,
    SpecFailure,
    SweepEvent,
    SweepFailure,
    SweepRunner,
    build_fig11_spec,
    build_flood_specs,
    run_spec,
)
from .eval.service import ProgressLog, parse_shard, run_shard, shard_specs

# -- building blocks for custom topologies (what examples/ use) ------------
from .baselines import (
    LegacyScheme,
    NetFenceScheme,
    PushbackScheme,
    SiffScheme,
)
from .core import ServerPolicy, TvaScheme
from .sim import (
    AggregateHost,
    AggregateLink,
    DropTailQueue,
    Dumbbell,
    Host,
    LegacyDefaults,
    Link,
    LinkSpec,
    Network,
    NodeSpec,
    Router,
    SchemeFactory,
    Simulator,
    TopologySpec,
    TransferLog,
    as_graph_spec,
    asymmetric_spec,
    build_chain,
    build_dumbbell,
    build_parallel,
    build_static_routes,
    build_two_tier,
    dumbbell_spec,
    fat_tree_spec,
    instantiate,
    partial_deployment_spec,
    tree_spec,
)
from .transport import (
    AggregateSender,
    CbrFlood,
    PacketSink,
    RepeatingTransferClient,
    TcpListener,
)


def run_scenario(
    spec: Optional[ScenarioSpec] = None,
    *,
    cache: Optional[ResultCache] = None,
    **kwargs,
) -> RunResult:
    """Run one scenario and return its :class:`RunResult`.

    Pass a ready :class:`ScenarioSpec`, or its fields as keywords::

        run_scenario(scheme="tva", attack="legacy", n_attackers=10)

    ``cache`` (a :class:`ResultCache`) is consulted before running and
    updated after — by a one-spec, in-process, no-retry
    :class:`SweepRunner`, the one cache-then-run path; a failing run
    raises :class:`SweepFailure`.
    """
    if spec is None:
        spec = ScenarioSpec(**kwargs)
    elif kwargs:
        raise TypeError("pass either a spec or spec fields, not both")
    return SweepRunner(jobs=1, cache=cache, retries=0).run([spec])[0]


def sweep(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: Optional[int] = None,
    seeds: int = 1,
    cache: Optional[ResultCache] = None,
    title: str = "",
    on_event: Optional[Callable[[SweepEvent], None]] = None,
) -> SweepResult:
    """Run many scenarios — parallel, cached, seed-replicated.

    Each spec runs under ``seeds`` consecutive seeds and is aggregated
    into a mean/stdev/CI :class:`PointResult`; the returned
    :class:`SweepResult` serializes bit-identically regardless of
    ``jobs`` (execution strategy never leaks into results).
    ``on_event`` receives every :class:`SweepEvent` of the run.
    """
    runner = SweepRunner(jobs=jobs, cache=cache, on_event=on_event)
    return runner.run_points(specs, seeds=seeds, title=title)


__all__ = [
    # entry points
    "run_scenario",
    "sweep",
    "build_scheme",
    # registry
    "SCHEMES",
    "scheme_names",
    "register_scheme",
    "knobs_for",
    "SchemeKnobs",
    "TvaKnobs",
    "SiffKnobs",
    "PushbackKnobs",
    "InternetKnobs",
    "NetFenceKnobs",
    # static analysis
    "lint_paths",
    "LintEngine",
    "LintError",
    "Finding",
    "LINT_RULES",
    # specs and results
    "ExperimentConfig",
    "ScenarioSpec",
    "RunResult",
    "PointResult",
    "SweepResult",
    "SweepRunner",
    "SweepEvent",
    "SweepFailure",
    "SpecFailure",
    "ResultCache",
    "default_cache_dir",
    "run_spec",
    "build_flood_specs",
    "build_fig11_spec",
    "FIG11_SCHEMES",
    # sharded sweeps
    "run_shard",
    "ShardReport",
    "ProgressLog",
    "shard_specs",
    "parse_shard",
    # the paper's simulated artifacts
    "FIGURES",
    "FigureDef",
    # curated scenario library
    "SCENARIO_LIBRARY",
    "ScenarioDef",
    "scenario_names",
    "get_scenario",
    "format_scenario_table",
    # benchmarking
    "PERF",
    "PerfCounters",
    "OpCounts",
    "OpCountProbe",
    "BenchReport",
    "run_bench",
    # faults
    "FaultInjector",
    "FaultSchedule",
    "LinkDown",
    "LinkUp",
    "RouteChange",
    "RouterReboot",
    "parse_fault",
    # dynamics
    "DynamicsResult",
    "build_dynamics_spec",
    "recovery_time",
    # building blocks
    "ServerPolicy",
    "TvaScheme",
    "SiffScheme",
    "PushbackScheme",
    "LegacyScheme",
    "NetFenceScheme",
    "SchemeFactory",
    "LegacyDefaults",
    "Simulator",
    "TransferLog",
    "Dumbbell",
    "Network",
    "Host",
    "Link",
    "Router",
    "AggregateHost",
    "AggregateLink",
    "DropTailQueue",
    "TopologySpec",
    "NodeSpec",
    "LinkSpec",
    "instantiate",
    "dumbbell_spec",
    "tree_spec",
    "fat_tree_spec",
    "as_graph_spec",
    "asymmetric_spec",
    "partial_deployment_spec",
    "build_chain",
    "build_dumbbell",
    "build_parallel",
    "build_static_routes",
    "build_two_tier",
    # traffic agents
    "TcpListener",
    "RepeatingTransferClient",
    "PacketSink",
    "CbrFlood",
    "AggregateSender",
]
