"""Delta capture over the process-global :data:`~repro.perf.counters.PERF`.

The counters only ever increase, so a workload's cost is the difference
between two snapshots.  :class:`OpCountProbe` packages that as a context
manager::

    with OpCountProbe() as probe:
        run_spec(spec)
    assert probe.counts.hashes == 1234   # exact, seed-stable

Deltas must be captured in-process: a ``SweepRunner(jobs=4)`` worker
increments *its own* copy of the singleton, so probe sweeps with
``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .counters import FIELDS, PERF


@dataclass(frozen=True)
class OpCounts:
    """An immutable snapshot-delta of every perf counter."""

    hashes: int = 0
    secret_derivations: int = 0
    secret_cache_hits: int = 0
    events_fired: int = 0
    events_scheduled: int = 0
    heap_compactions: int = 0
    enqueues: int = 0
    dequeues: int = 0
    valcache_hits: int = 0
    valcache_misses: int = 0
    pool_reuses: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "OpCounts":
        return cls(**{name: int(data.get(name, 0)) for name in FIELDS})

    def __sub__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            **{n: getattr(self, n) - getattr(other, n) for n in FIELDS}
        )


def snapshot() -> OpCounts:
    """The current absolute counter values as an :class:`OpCounts`."""
    return OpCounts(**PERF.snapshot())


class OpCountProbe:
    """Context manager capturing the counter delta across its body."""

    def __init__(self) -> None:
        self._start: OpCounts | None = None
        self.counts: OpCounts = OpCounts()

    def __enter__(self) -> "OpCountProbe":
        self._start = snapshot()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.counts = snapshot() - self._start
