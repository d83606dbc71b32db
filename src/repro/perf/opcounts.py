"""Delta capture over the process-global :data:`~repro.perf.counters.PERF`.

The counters only ever increase, so a workload's cost is the difference
between two snapshots.  :class:`OpCountProbe` packages that as a context
manager::

    with OpCountProbe() as probe:
        run_spec(spec)
    assert probe.counts.hashes == 1234   # exact, seed-stable

The four per-packet counts — ``enqueues``, ``dequeues``,
``events_scheduled``, ``pool_reuses`` — are taken *only* while a probe is
open.  Entering the first probe wraps the methods listed in
:data:`PROBED` on their owning classes; leaving the last one restores
them, so an unprobed run executes the original methods and pays nothing
— not even a flag test.  (A count taken outside a probe would be thrown
away anyway: absolute ``PERF`` values mean nothing, only deltas do.)
The wrappers count from return values, which keeps the definitions
exactly what the in-line increments used to be: once per scheduler
level, and once for a subclass that reaches a wrapped method through
``super()``.  A link's idle cut-through (``admit_idle``) counts as the
``enqueue`` + ``dequeue`` pair it replaces, so the counts do not depend
on which path a packet took.  The rare counts (``events_fired`` per
``run()``, ``heap_compactions``) and the crypto/validation-cache ones are
added by their owners directly.

A bound method keeps whichever function it was looked up as: one bound
before a probe opens is not counted inside it, and one bound inside keeps
counting after.  Simulation code looks its methods up per call.

Deltas must be captured in-process: a ``SweepRunner(jobs=4)`` worker
increments *its own* copy of the singleton, so probe sweeps with
``jobs=1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..sim.engine import Simulator
from ..sim.queues import DropTailQueue, DRRFairQueue, PriorityScheduler, Qdisc
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

    def __sub__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            **{n: getattr(self, n) - getattr(other, n) for n in FIELDS}
        )


def snapshot() -> OpCounts:
    """The current absolute counter values as an :class:`OpCounts`."""
    return OpCounts(**PERF.snapshot())


# -- counting rules: each wraps one method to add to one ``PERF`` field -----
# A wrapper repeats the wrapped signature and names its field literally.
# ``*args, **kwargs`` and ``setattr(PERF, field, ...)`` would let one rule
# serve every row, but the golden-run pins and the benchmark's count pass
# run whole simulations under a probe, and on a per-hop method that generic
# form costs several times the call it counts (a probed tva fig8 point ran
# at 1.43x a plain one with generic wrappers, 1.25x with these).
def _count_enqueue(method: Callable) -> Callable:
    """``enqueues``: one per accepted ``enqueue`` (``True``); a refusal
    adds nothing."""
    @functools.wraps(method)
    def counted(self, pkt):
        accepted = method(self, pkt)
        if accepted:
            PERF.enqueues += 1
        return accepted
    return counted


def _count_dequeue(method: Callable) -> Callable:
    """``dequeues``: one per ``dequeue`` that produced a packet; an empty
    or token-starved poll (``None``) adds nothing."""
    @functools.wraps(method)
    def counted(self, now):
        pkt = method(self, now)
        if pkt is not None:
            PERF.dequeues += 1
        return pkt
    return counted


def _count_admit(method: Callable) -> Callable:
    """An ``admit_idle`` override as the pair it replaces: a packet is one
    of each, a ``None`` that left a backlog (a parked head) one
    ``enqueues``.  The default calls the wrapped pair and needs no rule."""
    @functools.wraps(method)
    def counted(self, pkt, now):
        head = method(self, pkt, now)
        if head is not None:
            PERF.enqueues += 1
            PERF.dequeues += 1
        elif self.backlog_pkts:
            PERF.enqueues += 1
        return head
    return counted


def _count_drained(method: Callable) -> Callable:
    """``dequeues``: ``_drained`` returns every packet a drain removed."""
    @functools.wraps(method)
    def counted(self, pkts):
        drained = method(self, pkts)
        PERF.dequeues += len(drained)
        return drained
    return counted


def _count_event(method: Callable) -> Callable:
    """``events_scheduled``: every scheduling call that returns pushed
    exactly one heap entry (a rejected time raises instead)."""
    @functools.wraps(method)
    def counted(self, when, fn, *args):
        event = method(self, when, fn, *args)
        PERF.events_scheduled += 1
        return event
    return counted


def _count_reuse(method: Callable) -> Callable:
    """``pool_reuses``: an allocation served from a non-empty free list —
    read before the call, which pops it."""
    @functools.wraps(method)
    def counted(self, src, dst, size, proto="raw", tcp=None, shim=None,
                created=0.0):
        reuse = bool(self._pool._free)
        pkt = method(self, src, dst, size, proto, tcp, shim, created)
        if reuse:
            PERF.pool_reuses += 1
        return pkt
    return counted


#: ``(class, method, rule)`` — every per-packet count, as the method whose
#: calls define it and the rule (above) that says how and into which field.
PROBED: Tuple[Tuple[type, str, Callable], ...] = (
    (DropTailQueue, "enqueue", _count_enqueue),
    (DRRFairQueue, "enqueue", _count_enqueue),
    (PriorityScheduler, "enqueue", _count_enqueue),
    (DropTailQueue, "dequeue", _count_dequeue),
    (DRRFairQueue, "dequeue", _count_dequeue),
    (PriorityScheduler, "dequeue", _count_dequeue),
    (DropTailQueue, "admit_idle", _count_admit),
    (DRRFairQueue, "admit_idle", _count_admit),
    (PriorityScheduler, "admit_idle", _count_admit),
    (Qdisc, "_drained", _count_drained),
    (Simulator, "at", _count_event),
    (Simulator, "after", _count_event),
    (Simulator, "call_at", _count_event),
    (Simulator, "call_after", _count_event),
    (Simulator, "alloc_packet", _count_reuse),
)


#: The originals of the wrapped methods while any probe is open, and how
#: many probes are.  Process-global like ``PERF`` itself: the wrappers
#: live on the classes, not on a probe.
_originals: List[Tuple[type, str, Callable]] = []
_open_probes = 0


def _install() -> None:
    global _open_probes
    _open_probes += 1
    if _open_probes > 1:
        return  # nested: the outer probe's wrappers already count, once
    for cls, name, rule in PROBED:
        original = cls.__dict__[name]
        _originals.append((cls, name, original))
        setattr(cls, name, rule(original))


def _uninstall() -> None:
    global _open_probes
    _open_probes -= 1
    if _open_probes:
        return
    while _originals:
        cls, name, original = _originals.pop()
        setattr(cls, name, original)


class OpCountProbe:
    """Context manager capturing the counter delta across its body."""

    def __init__(self) -> None:
        self._start: OpCounts | None = None
        self.counts: OpCounts = OpCounts()

    def __enter__(self) -> "OpCountProbe":
        _install()
        self._start = snapshot()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        self.counts = snapshot() - self._start
        _uninstall()
