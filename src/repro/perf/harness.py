"""Benchmark workloads and the ``BENCH_perf.json`` writer (``repro bench``).

Each workload is measured two ways:

* **wall-clock seconds** — informational only.  Host-dependent, never a
  gate.
* **deterministic op counts** — the :data:`~repro.perf.counters.PERF`
  delta across the workload.  These are exact, seed-stable functions of
  the workload, identical on every machine, so CI gates on them: an
  accidental change to the per-packet work (a cache that stopped
  hitting, an event-loop regression) shows up as an integer diff.

The op-count guard lives in ``benchmarks/opcount_guard.json`` and is
checked/updated via ``repro bench --quick`` (the guard is recorded for
quick mode, which is what CI runs).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from ..core.header import (
    RegularHeader,
    RequestHeader,
    ReturnInfo,
    unpack_header,
)
from ..core.capability import Capability, PreCapability
from ..eval.experiments import ExperimentConfig
from ..eval.procbench import RouterWorkbench
from ..eval.runner import ScenarioSpec, run_spec
from ..sim.engine import Simulator
from .opcounts import OpCounts, OpCountProbe

SCHEMA = "repro.perf/v1"

#: Counters the guard compares.  Wall-clock is deliberately absent.
GUARD_FIELDS = OpCounts().to_dict().keys()


# ---------------------------------------------------------------------------
# Workloads.  Each takes quick: bool and performs deterministic work;
# the harness wraps it in timing + an OpCountProbe.
# ---------------------------------------------------------------------------

def _workload_fig8(quick: bool) -> None:
    """End-to-end fig8 scenario — the acceptance benchmark."""
    duration = 3.0 if quick else 8.0
    run_spec(
        ScenarioSpec(
            scheme="tva",
            attack="legacy",
            n_attackers=10,
            seed=1,
            config=ExperimentConfig(duration=duration, seed=1),
        )
    )


def _workload_fig8_netfence(quick: bool) -> None:
    """The same fig8 scenario under NetFence: its costs live in feedback
    MACs (hashes) and per-sender limiter churn rather than capability
    validation, so the guard pins a second scheme-shaped profile."""
    duration = 3.0 if quick else 8.0
    run_spec(
        ScenarioSpec(
            scheme="netfence",
            attack="legacy",
            n_attackers=10,
            seed=1,
            config=ExperimentConfig(duration=duration, seed=1),
        )
    )


def _workload_event_loop(quick: bool) -> None:
    """Pure simulator churn: timer re-arm/cancel cycles (the TCP pattern
    that grows the lazy-deletion heap) plus fire-and-forget deliveries."""
    sim = Simulator()
    n = 20_000 if quick else 100_000

    def tick() -> None:
        pass

    pending = None
    for i in range(n):
        if pending is not None and i % 4:
            sim.cancel(pending)  # re-arm churn: most timers never fire
        pending = sim.at(1.0 + i * 1e-3, tick)
        if i % 10 == 0:
            sim.call_after(i * 1e-3, tick)
    sim.run()


def _workload_validation(quick: bool) -> None:
    """Router pipeline batches across the Table 1 packet kinds."""
    bench = RouterWorkbench(pool_size=64)
    batch = 256 if quick else 2048
    for kind in (
        "request",
        "regular_cached",
        "regular_uncached",
        "renewal_cached",
        "renewal_uncached",
    ):
        bench.run_batch(kind, batch=batch)
    bench.run_wire_batch("regular_uncached", batch=batch // 4)


def _workload_codec(quick: bool) -> None:
    """Figure 5 header pack/unpack round trips."""
    n = 2_000 if quick else 20_000
    caps = [Capability(5, 0x00F00D + i) for i in range(6)]
    pres = [PreCapability(5, 0x00BEEF + i) for i in range(6)]
    regular = RegularHeader(
        flow_nonce=0xABCDE,
        n_bytes=64 * 1024,
        t_seconds=10,
        capabilities=caps,
        return_info=ReturnInfo(n_bytes=64 * 1024, t_seconds=10,
                               capabilities=caps[:3]),
    )
    request = RequestHeader(path_ids=[11, 22, 33], precapabilities=pres)
    for _ in range(n):
        unpack_header(regular.pack())
        unpack_header(request.pack())
        assert regular.wire_size() == len(regular.pack())
        assert request.wire_size() == len(request.pack())


def _run_topology(topology, aggregate: bool, duration: float) -> None:
    run_spec(
        ScenarioSpec(
            scheme="tva",
            attack="legacy",
            n_attackers=len(topology.role_addresses("attacker")),
            seed=1,
            config=ExperimentConfig(duration=duration, seed=1),
            topology=topology,
            aggregate=aggregate,
        )
    )


def _workload_topo_dumbbell(quick: bool) -> None:
    """Topology scaling, point 1: the classic dumbbell (20 hosts)."""
    from ..sim.topospec import dumbbell_spec

    _run_topology(dumbbell_spec(), aggregate=False,
                  duration=2.0 if quick else 6.0)


def _workload_topo_tree(quick: bool) -> None:
    """Topology scaling, point 2: aggregation tree, aggregated senders
    (one AggregateSender per 40-attacker leaf group — 240 senders)."""
    from ..sim.topospec import tree_spec

    _run_topology(
        tree_spec(users_per_leaf=1, attackers_per_leaf=40),
        aggregate=True,
        duration=2.0 if quick else 6.0,
    )


def _workload_topo_fattree(quick: bool) -> None:
    """Topology scaling, point 3: k=4 fat-tree fabric, aggregated
    senders on every non-victim edge (7 groups of 50 — 350 senders)."""
    from ..sim.topospec import fat_tree_spec

    _run_topology(
        fat_tree_spec(users_per_edge=1, attackers_per_edge=50),
        aggregate=True,
        duration=2.0 if quick else 6.0,
    )


def _workload_flood10k(quick: bool) -> None:
    """Topology scaling, point 4: the curated ``flood-10k`` scenario —
    10^4 aggregated flood sources against one victim link, the regime
    ROADMAP item 2 targets.  Quick mode shortens the simulated horizon
    only; the topology (and hence the per-second shape) is identical."""
    from ..scenarios import get_scenario

    run_spec(get_scenario("flood-10k").spec(duration=1.0 if quick else None))


#: name -> workload, in report order.
WORKLOADS: Dict[str, Callable[[bool], None]] = {
    "fig8_e2e": _workload_fig8,
    "fig8_netfence": _workload_fig8_netfence,
    "event_loop": _workload_event_loop,
    "validation": _workload_validation,
    "codec": _workload_codec,
    "topo_dumbbell": _workload_topo_dumbbell,
    "topo_tree": _workload_topo_tree,
    "topo_fattree": _workload_topo_fattree,
    "flood_10k": _workload_flood10k,
}

#: The ``scaling`` view: workload -> (hosts, simulated seconds) per mode,
#: in ascending topology size.  Derived throughput (events/sec, pkts/sec)
#: comes from the same measured results the main table reports.
SCALING_POINTS: Dict[str, Dict[str, float]] = {
    "topo_dumbbell": {"hosts": 22, "quick_duration": 2.0, "duration": 6.0},
    "topo_tree": {"hosts": 247, "quick_duration": 2.0, "duration": 6.0},
    "topo_fattree": {"hosts": 358, "quick_duration": 2.0, "duration": 6.0},
    "flood_10k": {"hosts": 10009, "quick_duration": 1.0, "duration": 5.0},
}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadResult:
    name: str
    wall_seconds: float
    op_counts: OpCounts

    def to_dict(self) -> dict:
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "op_counts": self.op_counts.to_dict(),
        }


@dataclass(frozen=True)
class BenchReport:
    quick: bool
    results: Tuple[WorkloadResult, ...]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "quick": self.quick,
            "workloads": {r.name: r.to_dict() for r in self.results},
        }

    def table(self) -> str:
        lines = [f"{'workload':12s} {'wall (s)':>10s} "
                 f"{'events':>10s} {'hashes':>8s} {'queue ops':>10s}"]
        for r in self.results:
            ops = r.op_counts
            lines.append(
                f"{r.name:12s} {r.wall_seconds:10.3f} "
                f"{ops.events_fired:10d} {ops.hashes:8d} "
                f"{ops.enqueues + ops.dequeues:10d}"
            )
        return "\n".join(lines)


def run_bench(quick: bool = False) -> BenchReport:
    """Run every workload, capturing wall-clock and op-count deltas.

    Op counts are process-global deltas, so workloads run sequentially
    in this process (never probe across a worker pool)."""
    from ..core.pathid import clear_tag_cache

    results: List[WorkloadResult] = []
    # repro: allow-d002 — literal dict; declaration order IS the report order
    for name, fn in WORKLOADS.items():
        # Cold-start each workload: process-wide memos with op-count-
        # visible state would otherwise make counts depend on what ran
        # earlier in this process.
        clear_tag_cache()
        with OpCountProbe() as probe:
            start = time.perf_counter()
            fn(quick)
            elapsed = time.perf_counter() - start
        results.append(WorkloadResult(name, elapsed, probe.counts))
    return BenchReport(quick=quick, results=tuple(results))


def write_bench_report(report: BenchReport, path) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# Op-count guard
# ---------------------------------------------------------------------------

def guard_payload(report: BenchReport) -> dict:
    """The committed guard: op counts only — wall-clock never gates."""
    return {
        "schema": SCHEMA,
        "quick": report.quick,
        "workloads": {r.name: r.op_counts.to_dict() for r in report.results},
    }


def write_guard(report: BenchReport, path) -> None:
    Path(path).write_text(
        json.dumps(guard_payload(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_guard(path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"guard schema {data.get('schema')!r} != {SCHEMA!r}; "
            "regenerate with: repro bench --quick --update-guard"
        )
    return data


def scaling_table(report: BenchReport) -> str:
    """The ``scaling`` view: throughput vs. topology size.

    Events/sec and pkts/sec (queue dequeues — one per transmitted
    packet) are derived from the same measured workload results as the
    main table, over the dumbbell → tree → fat-tree → flood-10k size
    ladder.  Wall-clock throughput is host-dependent and informational;
    the underlying op counts are what the guard pins."""
    by_name = {r.name: r for r in report.results}
    lines = [
        f"{'scaling point':14s} {'hosts':>6s} {'sim (s)':>8s} "
        f"{'wall (s)':>9s} {'events':>9s} {'events/s':>10s} "
        f"{'pkts':>8s} {'pkts/s':>9s}"
    ]
    # repro: allow-d002 — literal dict; declaration order IS the size ladder
    for name, point in SCALING_POINTS.items():
        r = by_name.get(name)
        if r is None:
            continue
        sim_s = point["quick_duration"] if report.quick else point["duration"]
        ops = r.op_counts
        wall = r.wall_seconds
        pkts = ops.dequeues
        lines.append(
            f"{name:14s} {int(point['hosts']):6d} {sim_s:8.1f} "
            f"{wall:9.3f} {ops.events_fired:9d} "
            f"{ops.events_fired / wall:10.0f} "
            f"{pkts:8d} {pkts / wall:9.0f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Before/after comparison (``repro bench --compare OLD.json``)
# ---------------------------------------------------------------------------

def load_report(path) -> dict:
    """Load a previously written ``BENCH_perf.json``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"report schema {data.get('schema')!r} != {SCHEMA!r}"
        )
    return data


def compare_reports(report: BenchReport, old: dict) -> Tuple[str, List[str]]:
    """Per-workload speedup/op-delta table against a prior report.

    Returns ``(table, regressions)``.  Speedup is informational
    (``old_wall / new_wall``; host noise applies); *regressions* are
    op-count increases or missing workloads — found by running the guard
    comparator over the old report's op counts and keeping only the
    deltas that grew.  Workloads only present on one side are listed in
    the table; ones the old report lacks are never regressions (they are
    new coverage); a counter only one side records is listed as
    ``removed``/``new`` and is never a regression either."""
    if bool(old.get("quick")) != report.quick:
        raise ValueError(
            f"old report was quick={old.get('quick')} but this run is "
            f"quick={report.quick}; compare like modes"
        )
    old_workloads = old.get("workloads", {})
    lines = [
        f"{'workload':14s} {'old (s)':>9s} {'new (s)':>9s} "
        f"{'speedup':>8s} {'Δevents':>9s} {'Δqueue ops':>11s} "
        f"{'Δhashes':>9s}"
    ]
    for r in report.results:
        prev = old_workloads.get(r.name)
        if prev is None:
            lines.append(f"{r.name:14s} {'-':>9s} {r.wall_seconds:9.3f} "
                         f"{'new':>8s}")
            continue
        old_wall = float(prev.get("wall_seconds", 0.0))
        old_ops = OpCounts.from_dict(prev.get("op_counts", {}))
        ops = r.op_counts
        speedup = old_wall / r.wall_seconds if r.wall_seconds > 0 else 0.0
        d_events = ops.events_fired - old_ops.events_fired
        d_queue = (ops.enqueues + ops.dequeues) - (
            old_ops.enqueues + old_ops.dequeues
        )
        d_hashes = ops.hashes - old_ops.hashes
        lines.append(
            f"{r.name:14s} {old_wall:9.3f} {r.wall_seconds:9.3f} "
            f"{speedup:7.2f}x {d_events:+9d} {d_queue:+11d} {d_hashes:+9d}"
        )
    # A counter only one side records was added or removed between the
    # two reports; it has no delta, so it is only named.  (The comparator
    # below skips counters the old report lacks and reads one this build
    # lacks as 0 — a decrease, never a regression.)
    old_counters = set()
    for _, data in sorted(old_workloads.items()):
        old_counters.update(data.get("op_counts", {}))
    for counter in sorted(old_counters ^ set(GUARD_FIELDS)):
        status = "removed" if counter in old_counters else "new"
        lines.append(f"counter {counter}: {status}")
    # Regressions via the guard comparator: treat the old report's op
    # counts as the guard and keep only the deltas that increased.
    pseudo_guard = {
        "quick": old.get("quick"),
        "workloads": {
            name: dict(data.get("op_counts", {}))
            for name, data in sorted(old_workloads.items())
        },
    }
    regressions = [
        line
        for line in check_opcount_guard(report, pseudo_guard)
        if "(+" in line or "missing" in line
    ]
    return "\n".join(lines), regressions


def check_opcount_guard(report: BenchReport, guard: dict) -> List[str]:
    """Compare a report's op counts against a loaded guard.

    Returns human-readable mismatch lines (empty = pass).  Only counters
    present in the guard are compared, so adding a counter field is not
    retroactively a failure — regenerating the guard picks it up."""
    problems: List[str] = []
    if bool(guard.get("quick")) != report.quick:
        return [
            f"guard was recorded with quick={guard.get('quick')} but this "
            f"run used quick={report.quick}; op counts are mode-specific"
        ]
    expected_workloads = guard.get("workloads", {})
    actual = {r.name: r.op_counts.to_dict() for r in report.results}
    for name, expected in sorted(expected_workloads.items()):
        got = actual.get(name)
        if got is None:
            problems.append(f"{name}: workload missing from this run")
            continue
        for counter, want in sorted(expected.items()):
            have = got.get(counter, 0)
            if have != want:
                problems.append(
                    f"{name}.{counter}: expected {want}, got {have} "
                    f"({have - want:+d})"
                )
    return problems
