"""Benchmark workloads and the op-count guard (``repro bench``).

Each workload's cost is recorded as **deterministic op counts** — the
:data:`~repro.perf.counters.PERF` delta across the workload.  These are
exact, seed-stable functions of the workload, identical on every
machine, so CI gates on them: an accidental change to the per-packet
work (a cache that stopped hitting, an event-loop regression) shows up
as an integer diff.

The guard lives in ``benchmarks/opcount_guard.json`` and is
checked/updated via ``repro bench``; the workloads have one size, the
one the guard records.  Time is not measured here: the
repo's one clock is ``python3 benchmarks/e2e/run.py`` + ``compare.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

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
from ..sim.topospec import dumbbell_spec, fat_tree_spec, tree_spec
from .opcounts import OpCounts, OpCountProbe

SCHEMA = "repro.perf/v1"


# ---------------------------------------------------------------------------
# Workloads.  Each performs deterministic work; the harness wraps it in
# an OpCountProbe.
# ---------------------------------------------------------------------------

def _run_fig8(scheme: str) -> None:
    run_spec(
        ScenarioSpec(
            scheme=scheme,
            attack="legacy",
            n_attackers=10,
            seed=1,
            config=ExperimentConfig(duration=3.0, seed=1),
        )
    )


def _workload_fig8() -> None:
    """End-to-end fig8 scenario — the acceptance benchmark."""
    _run_fig8("tva")


def _workload_fig8_netfence() -> None:
    """The same fig8 scenario under NetFence: its costs live in feedback
    MACs (hashes) and per-sender limiter churn rather than capability
    validation, so the guard pins a second scheme-shaped profile."""
    _run_fig8("netfence")


def _workload_event_loop() -> None:
    """Pure simulator churn: timer re-arm/cancel cycles (the TCP pattern
    that grows the lazy-deletion heap) plus fire-and-forget deliveries."""
    sim = Simulator()
    n = 20_000

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


def _workload_validation() -> None:
    """Router pipeline batches across the Table 1 packet kinds."""
    bench = RouterWorkbench(pool_size=64)
    batch = 256
    for kind in (
        "request",
        "regular_cached",
        "regular_uncached",
        "renewal_cached",
        "renewal_uncached",
    ):
        bench.run_batch(kind, batch=batch)
    bench.run_wire_batch("regular_uncached", batch=batch // 4)


def _workload_codec() -> None:
    """Figure 5 header pack/unpack round trips."""
    n = 2_000
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


def _run_topology(topology, aggregate: bool) -> None:
    run_spec(
        ScenarioSpec(
            scheme="tva",
            attack="legacy",
            n_attackers=len(topology.role_addresses("attacker")),
            seed=1,
            config=ExperimentConfig(duration=2.0, seed=1),
            topology=topology,
            aggregate=aggregate,
        )
    )


def _workload_topo_dumbbell() -> None:
    """Topology scaling, point 1: the classic dumbbell (20 hosts)."""
    _run_topology(dumbbell_spec(), aggregate=False)


def _workload_topo_tree() -> None:
    """Topology scaling, point 2: aggregation tree, aggregated senders
    (one AggregateSender per 40-attacker leaf group — 240 senders)."""
    _run_topology(
        tree_spec(users_per_leaf=1, attackers_per_leaf=40),
        aggregate=True,
    )


def _workload_topo_fattree() -> None:
    """Topology scaling, point 3: k=4 fat-tree fabric, aggregated
    senders on every non-victim edge (7 groups of 50 — 350 senders)."""
    _run_topology(
        fat_tree_spec(users_per_edge=1, attackers_per_edge=50),
        aggregate=True,
    )


def _workload_flood10k() -> None:
    """Topology scaling, point 4: the curated ``flood-10k`` scenario —
    10^4 aggregated flood sources against one victim link, the regime
    ROADMAP item 2 targets.  Only the simulated horizon is shortened;
    the topology (and hence the per-second shape) is the scenario's."""
    from ..scenarios import get_scenario

    run_spec(get_scenario("flood-10k").spec(duration=1.0))


#: name -> workload, in report order.
WORKLOADS: Dict[str, Callable[[], None]] = {
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


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchReport:
    #: workload name -> its op-count delta, in ``WORKLOADS`` order.
    counts: Dict[str, OpCounts]

    def table(self) -> str:
        lines = [f"{'workload':14s} {'events':>10s} {'hashes':>8s} "
                 f"{'queue ops':>10s}"]
        # repro: allow-d002 — filled in WORKLOADS (report) order
        for name, ops in self.counts.items():
            lines.append(
                f"{name:14s} {ops.events_fired:10d} {ops.hashes:8d} "
                f"{ops.enqueues + ops.dequeues:10d}"
            )
        return "\n".join(lines)


def run_bench() -> BenchReport:
    """Run every workload, capturing its op-count delta.

    Op counts are process-global deltas, so workloads run sequentially
    in this process (never probe across a worker pool)."""
    from ..core.pathid import clear_tag_cache

    counts: Dict[str, OpCounts] = {}
    # repro: allow-d002 — literal dict; declaration order IS the report order
    for name, fn in WORKLOADS.items():
        # Cold-start each workload: process-wide memos with op-count-
        # visible state would otherwise make counts depend on what ran
        # earlier in this process.
        clear_tag_cache()
        with OpCountProbe() as probe:
            fn()
        counts[name] = probe.counts
    return BenchReport(counts=counts)


# ---------------------------------------------------------------------------
# Op-count guard
# ---------------------------------------------------------------------------

def guard_payload(report: BenchReport) -> dict:
    """The committed guard: op counts per workload."""
    return {
        "schema": SCHEMA,
        "workloads": {
            name: ops.to_dict() for name, ops in sorted(report.counts.items())
        },
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
            "regenerate with: repro bench --update-guard"
        )
    return data


def check_opcount_guard(report: BenchReport, guard: dict) -> List[str]:
    """Compare a report's op counts against a loaded guard.

    Returns human-readable mismatch lines (empty = pass).  Only counters
    present in the guard are compared, so adding a counter field is not
    retroactively a failure — regenerating the guard picks it up."""
    problems: List[str] = []
    expected_workloads = guard.get("workloads", {})
    for name, expected in sorted(expected_workloads.items()):
        got = report.counts.get(name)
        if got is None:
            problems.append(f"{name}: workload missing from this run")
            continue
        for counter, want in sorted(expected.items()):
            have = getattr(got, counter, 0)
            if have != want:
                problems.append(
                    f"{name}.{counter}: expected {want}, got {have} "
                    f"({have - want:+d})"
                )
    return problems
