"""Operation counters for the per-packet fast path.

The paper's performance claims (Table 1, Figure 12) are statements about
*how much work* a router does per packet — hashes computed, events
fired, queue operations.  Wall-clock time is hostage to the host; these
counts are not: they are exact, seed-stable functions of the scenario,
which makes them usable as regression guards (``repro bench`` gates on
them; time is the repo benchmark's business).

The counters live in this dependency-free module so the modules that
add to them directly (:mod:`repro.core.crypto`, :mod:`repro.core.router`,
:mod:`repro.core.pathid`, :mod:`repro.sim.engine`) can do so without
import cycles.  Those are the rare or already-amortized counts: a hash,
a cache hit or miss, one add per ``run()``, a heap compaction.  The four
that would cost an add on *every* packet at *every* hop —
``events_scheduled``, ``enqueues``, ``dequeues``, ``pool_reuses`` — are
not incremented by the data path at all:
:class:`repro.perf.opcounts.OpCountProbe` wraps the counted methods
while a probe is open, so the counts are as exact as ever under a probe
and free outside one.

Counters are process-global: capture deltas with
:class:`repro.perf.opcounts.OpCountProbe` rather than reading absolute
values (outside a probe the per-packet four do not move), and capture
them in-process (``jobs=1``) — a pool worker's counts stay in the worker.
"""

from __future__ import annotations

from typing import Dict

#: The counter fields, in export order.  Adding a field changes
#: ``benchmarks/opcount_guard.json``; regenerate it (``--update-guard``).
FIELDS = (
    "hashes",
    "secret_derivations",
    "secret_cache_hits",
    "events_fired",
    "events_scheduled",
    "heap_compactions",
    "enqueues",
    "dequeues",
    "valcache_hits",
    "valcache_misses",
    "pool_reuses",
)


class PerfCounters:
    """Process-global operation tally.

    ``hashes`` — BLAKE2b invocations in the capability machinery;
    ``secret_derivations`` / ``secret_cache_hits`` — epoch-secret
    derivations vs LRU hits; ``events_fired`` / ``events_scheduled`` —
    simulator event-loop traffic; ``heap_compactions`` — lazy-deletion
    heap rebuilds; ``enqueues`` / ``dequeues`` — qdisc accounting ops
    (hierarchical disciplines count once per level, by design);
    ``valcache_hits`` / ``valcache_misses`` — the Table 1
    capability-validation cache; ``pool_reuses`` — packet allocations
    served from a simulator's free list.
    """

    __slots__ = FIELDS

    def __init__(self) -> None:
        for name in FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in FIELDS}

    def reset(self) -> None:
        for name in FIELDS:
            setattr(self, name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " ".join(f"{n}={getattr(self, n)}" for n in FIELDS)
        return f"<PerfCounters {inner}>"


#: The singleton every counting site adds to.
PERF = PerfCounters()
