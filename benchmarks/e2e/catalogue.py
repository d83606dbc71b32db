"""The benchmark's fixed vocabulary: layers, metric names and units.

Everything here is data.  ``run.py`` measures these names, ``compare.py``
diffs them, ``BENCHMARK.json`` lists them and ``test_e2e_bench.py``
checks that the three agree, so a metric cannot be added in one place
only.
"""

from __future__ import annotations

import statistics
from statistics import median  # noqa: F401  (re-exported with the helpers below)
from typing import Dict, List, Optional, Sequence

WORKLOADS = (
    "tva_legacy_flood",
    "tva_colluder_flood",
    "baselines_legacy_flood",
    "flood_10k",
)

#: End-to-end metrics, all lower-is-better: name -> unit.
END_TO_END: Dict[str, str] = {
    "run_cpu_s": "s",
    "run_wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

#: Path (relative to ``src/repro/``) -> layer.  A key ending in ``/`` is
#: a whole directory; anything else is one file, and exact files win.
#: ``sim/``, ``core/`` and ``transport/`` are listed file by file on
#: purpose: a new module there must be given a layer here (the self-test
#: fails until it is) instead of landing silently in ``other``.
LAYER_OF_PATH: Dict[str, str] = {
    "sim/engine.py": "sim.engine",
    "sim/engine_fast.py": "sim.engine",
    "sim/_evcore.c": "sim.engine",
    "sim/link.py": "sim.link",
    "sim/queues.py": "sim.queues",
    "sim/node.py": "sim.node",
    "sim/packet.py": "sim.packet",
    "sim/topology.py": "sim.topology",
    "sim/topospec.py": "sim.topology",
    "sim/routing.py": "sim.topology",
    "sim/__init__.py": "sim.topology",
    "sim/trace.py": "obs",
    "core/router.py": "core.router",
    "core/flowstate.py": "core.flowstate",
    "core/crypto.py": "core.crypto",
    "core/capability.py": "core.crypto",
    "core/pathid.py": "core.crypto",
    "core/header.py": "core.header",
    "core/bits.py": "core.header",
    "core/host.py": "core.host",
    "core/policy.py": "core.host",
    "core/scheme.py": "core.host",
    "core/params.py": "core.host",
    "core/__init__.py": "core.host",
    "baselines/": "baselines",
    "transport/tcp.py": "transport.tcp",
    "transport/agents.py": "transport.agents",
    "transport/__init__.py": "transport.agents",
    "obs/": "obs",
    "perf/counters.py": "obs",
    # Everything that builds, describes, caches or reports a run — plus
    # the tooling that never executes inside one (lint, analysis, CLI).
    "eval/": "eval",
    "faults/": "eval",
    "perf/": "eval",
    "lint/": "eval",
    "analysis/": "eval",
    "scenarios.py": "eval",
    "schemes.py": "eval",
    "api.py": "eval",
    "cli.py": "eval",
    "__main__.py": "eval",
    "__init__.py": "eval",
}

#: The 17 layers, in report order.  ``other`` is never a mapping target:
#: it holds profile time whose caller is outside ``repro``.
LAYERS = (
    "sim.engine",
    "sim.link",
    "sim.queues",
    "sim.node",
    "sim.packet",
    "sim.topology",
    "core.router",
    "core.flowstate",
    "core.crypto",
    "core.header",
    "core.host",
    "baselines",
    "transport.tcp",
    "transport.agents",
    "obs",
    "eval",
    "other",
)


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro/``, or ``None`` if unmapped."""
    relpath = relpath.replace("\\", "/")
    exact = LAYER_OF_PATH.get(relpath)
    if exact is not None:
        return exact
    if "/" in relpath:
        return LAYER_OF_PATH.get(relpath.split("/", 1)[0] + "/")
    return None


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Count-pass counters: metric name -> field of ``repro.api.OpCounts``.
COUNTERS: Dict[str, str] = {
    "sim.engine.events_fired": "events_fired",
    "sim.engine.events_scheduled": "events_scheduled",
    "sim.engine.heap_compactions": "heap_compactions",
    "sim.queues.enqueues": "enqueues",
    "sim.queues.dequeues": "dequeues",
    "sim.link.bursts_planned": "bursts_planned",
    "sim.packet.pool_reuses": "pool_reuses",
    "core.crypto.hashes": "hashes",
    "core.router.valcache_hits": "valcache_hits",
    "core.router.valcache_misses": "valcache_misses",
}

#: Simulated statistics.  A change meant only to speed the simulator up
#: must leave all six identical; ``compare.py`` flags any difference.
SIM_STATS: Dict[str, str] = {
    "sim.fraction_completed": "ratio",
    "sim.avg_transfer_time_s": "s",
    "sim.transfers_completed": "count",
    "sim.bottleneck_tx_pkts": "count",
    "sim.bottleneck_drops": "count",
    "sim.result_crc32": "crc32",
}

#: Layer micro-benchmarks: name -> unit.
MICRO: Dict[str, str] = {
    "sim.engine.fire_ns": "ns",
    "sim.engine.rearm_ns": "ns",
    "sim.queues.droptail_fwd_ns": "ns",
    "sim.queues.droptail_drop_ns": "ns",
    "sim.queues.drr_fwd_ns": "ns",
    "sim.queues.tva_fwd_ns": "ns",
    "sim.queues.tva_drop_ns": "ns",
    "sim.link.chain_forward_ns": "ns",
    "core.router.request_ns": "ns",
    "core.router.regular_cached_ns": "ns",
    "core.router.regular_uncached_ns": "ns",
    "core.router.renewal_cached_ns": "ns",
    "core.router.renewal_uncached_ns": "ns",
    "core.header.roundtrip_ns": "ns",
    "eval.spec_key_us": "us",
    "eval.cache_roundtrip_us": "us",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["trace.profile_overhead_ratio"] = "ratio"
    for name in COUNTERS:
        units[name] = "count"
    units.update(SIM_STATS)
    units["obs.overhead_ratio"] = "ratio"
    units.update(MICRO)
    return units


#: Metrics where a higher value is the better one; every other per-layer
#: metric (times, counts of work, overhead ratios) is better lower.
HIGHER_IS_BETTER = frozenset(
    {
        "sim.fraction_completed",
        "sim.transfers_completed",
        "sim.packet.pool_reuses",
        "core.router.valcache_hits",
    }
)


# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, q3]`` as ``statistics.quantiles(values, n=4)`` gives them —
    the same estimator the acceptance check uses.  One sample has no
    spread: both quartiles are that sample."""
    if len(values) < 2:
        return [float(values[0]), float(values[0])]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [float(q1), float(q3)]


def summarize(values: Sequence[float], unit: str) -> Dict[str, object]:
    """A timing as median + quartiles + extremes + sample count."""
    q1, q3 = quartiles(values)
    return {
        "value": median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "min": float(min(values)),
        "max": float(max(values)),
        "n": len(values),
    }
