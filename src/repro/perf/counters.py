"""Always-on operation counters for the per-packet fast path.

The paper's performance claims (Table 1, Figure 12) are statements about
*how much work* a router does per packet — hashes computed, events
fired, queue operations.  Wall-clock time is hostage to the host; these
counts are not: they are exact, seed-stable functions of the scenario,
which makes them usable as regression guards (``repro bench`` gates on
them, wall-clock numbers are informational only).

The counters live in this dependency-free module so the hot modules
(:mod:`repro.core.crypto`, :mod:`repro.sim.engine`,
:mod:`repro.sim.queues`) can increment them without import cycles.
Each increment is one integer add on a ``__slots__`` singleton — cheap
enough to leave on permanently, which is what keeps the counts exact
rather than sampled.

Counters are process-global: capture deltas with
:class:`repro.perf.opcounts.OpCountProbe` rather than reading absolute
values, and capture them in-process (``jobs=1``) — a pool worker's
counts stay in the worker.
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


#: The singleton every hot module increments.
PERF = PerfCounters()
