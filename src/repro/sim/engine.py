"""Discrete-event simulation engine.

This is the substrate that replaces ns-2 in the paper's evaluation.  It is a
classic calendar-of-events simulator: callbacks are scheduled at absolute
simulated times, a binary heap orders them, and :meth:`Simulator.run` drains
the heap while advancing the clock.

Design notes
------------
* Events with equal timestamps fire in FIFO scheduling order (a
  monotonically increasing sequence number breaks heap ties), so the
  simulation is fully deterministic for a given seed.
* Heap entries are ``(time, seq, event)`` tuples rather than the
  :class:`Event` objects themselves: ``seq`` is unique, so tuple
  comparison never reaches the event and heap ordering (time, then
  sequence) runs entirely in C.
* Cancellation is O(1): a cancelled event stays in the heap but is skipped
  when popped.  This is the standard "lazy deletion" trick and matters for
  protocols (TCP) that cancel and re-arm retransmit timers constantly.
  To keep the heap bounded under timer churn, it is compacted in place
  (mirroring ``FlowStateTable._expiry_heap``) once cancelled entries
  outnumber live ones — in place, because :meth:`Simulator.run` holds a
  local reference to the heap list while callbacks (which may cancel)
  are executing.
* :attr:`Simulator.pending` is O(1) too — heap length minus the cancelled
  entries still in it — so the observability layer can sample it as a
  gauge without scanning the heap.
* Time is a float in seconds, like ns-2.
* The per-packet op counts (``events_scheduled``, ``pool_reuses``) are not
  taken here: :class:`repro.perf.opcounts.OpCountProbe` wraps the four
  scheduling methods and :meth:`Simulator.alloc_packet` while a probe is
  open.  Only the once-per-``run()`` ``events_fired`` and the rare
  ``heap_compactions`` are added to ``PERF`` directly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from ..perf.counters import PERF
from .packet import Packet, PacketPool

#: Compaction threshold, mirroring ``FlowStateTable``: never bother below
#: this many heap entries, and above it rebuild once cancelled entries
#: exceed half the heap (i.e. outnumber the live ones).
_COMPACT_FLOOR = 64

_INFINITY = float("inf")


class Event:
    """A scheduled callback.

    Returned by :meth:`Simulator.at` / :meth:`Simulator.after` so the caller
    can later :meth:`Simulator.cancel` it.  ``time`` is the absolute
    simulated time at which the callback fires.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # ``fired`` is distinct from ``cancelled`` on purpose: timer users
        # (TCP) test ``cancelled`` to decide whether a re-arm is needed, and
        # an executed timer must keep reading as not-cancelled.  The flag
        # exists so cancelling an event that already ran is not counted as
        # a cancelled entry still sitting in the heap.
        self.fired = False
        self.sim = sim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class SimulationError(Exception):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class Simulator:
    """The event loop.

    A single :class:`Simulator` instance owns the clock for one experiment.
    Components hold a reference to it and schedule their work through it::

        sim = Simulator()
        sim.after(1.0, lambda: print("one second in"))
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # Entries are (time, seq, event) or, for call_after, (time, seq,
        # fn, args); seq is unique so mixed-shape tuples compare fine.
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_in_heap = 0
        self._running = False
        self._stopped = False
        # Packet identity and recycling are simulator-owned: uids count
        # from 1 per run (never from whatever earlier in-process runs
        # left behind) and released packets are reused via the pool.
        self._packet_uid = itertools.count(1)
        self._pool = PacketPool()

    # ------------------------------------------------------------------
    # Packet allocation
    # ------------------------------------------------------------------
    def alloc_packet(
        self,
        src: int,
        dst: int,
        size: int,
        proto: str = "raw",
        tcp: Any = None,
        shim: Any = None,
        created: float = 0.0,
    ) -> Packet:
        """Allocate a :class:`Packet` with a run-local uid, recycling a
        released one when available.  The data path allocates through
        this (not ``Packet(...)``) so uid sequences are identical across
        back-to-back runs in one process and allocation churn is bounded
        by the peak number of packets alive, not the total sent."""
        free = self._pool._free
        if not free or size <= 0:
            # Miss — or a bad size, which acquire rejects.
            return self._pool.acquire(
                next(self._packet_uid), src, dst, size, proto, tcp, shim, created
            )
        pkt = free.pop()
        pkt.uid = next(self._packet_uid)
        pkt.src = src
        pkt.dst = dst
        pkt.size = size
        pkt.proto = proto
        pkt.tcp = tcp
        pkt.shim = shim
        pkt.demoted = False
        pkt.created = created
        pkt.in_pool = False
        return pkt

    def release_packet(self, pkt: Packet) -> None:
        """Return a dead packet to the pool.  Only terminal owners call
        this (see :class:`~repro.sim.packet.PacketPool` ownership rules);
        not releasing is always safe, merely slower."""
        self._pool.release(pkt)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, current time is {self.now:.6f}"
            )
        event = Event(time, fn, args, sim=self)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        event = Event(time, fn, args, sim=self)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`after`: no :class:`Event` handle, so the
        callback can never be cancelled.

        The per-packet path (a link's delivery and boundary wake-up via
        :meth:`call_at`, agents' send ticks via this) schedules one or two
        callbacks per packet and never cancels them; skipping the Event
        allocation and its flag bookkeeping is a measurable share of the
        event-loop cost.  Heap entries are
        ``(time, seq, fn, args)`` 4-tuples — ``seq`` is unique, so they
        order against the 3-tuple Event entries by (time, seq) exactly
        like everything else."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heapq.heappush(
            self._heap, (self.now + delay, next(self._seq), fn, args)
        )

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at`: absolute-time twin of
        :meth:`call_after`.

        A link computes each packet's serialization end as an absolute
        float and schedules both the delivery (``end + delay``) and the
        next packet's start (``end``) from it; going through
        ``call_after`` would re-derive those times as ``now + (t - now)``
        and could shift them by an ulp, so back-to-back packets would no
        longer share exact boundary timestamps."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, current time is {self.now:.6f}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))

    @staticmethod
    def cancel(event: Optional[Event]) -> None:
        """Cancel a previously scheduled event.  Cancelling ``None`` or an
        already-cancelled event is a no-op, which simplifies timer code."""
        if event is not None and not event.cancelled:
            event.cancelled = True
            if not event.fired and event.sim is not None:
                event.sim._note_cancelled()

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        heap = self._heap
        if len(heap) >= _COMPACT_FLOOR and self._cancelled_in_heap * 2 > len(heap):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop cancelled entries and re-heapify, *in place*.

        ``run()`` binds the heap list to a local for speed, and a callback
        fired from inside that loop can trigger compaction via ``cancel`` —
        so the list object itself must survive (slice-assign, never rebind).
        """
        heap = self._heap
        # 4-tuple entries (call_after) are uncancellable and always kept.
        heap[:] = [
            entry for entry in heap if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        PERF.heap_compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events processed
        by this call.

        When ``until`` is given the clock is advanced to exactly ``until``
        on return even if the heap drained earlier, so back-to-back ``run``
        calls behave like one long run.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        processed = 0
        # Hot loop: bind everything reachable to locals.  The heap list
        # object is shared with ``_compact_heap`` (in-place rebuild), so
        # the local alias stays valid across compactions.
        heap = self._heap
        heappop = heapq.heappop
        limit = _INFINITY if until is None else until
        fire_cap = _INFINITY if max_events is None else max_events
        try:
            while heap and not self._stopped:
                entry = heap[0]
                etime = entry[0]
                if etime > limit:
                    break
                heappop(heap)
                if len(entry) == 4:
                    # Fire-and-forget entry from call_after: no Event, no
                    # cancellation state to check or maintain.
                    self.now = etime
                    entry[2](*entry[3])
                else:
                    event = entry[2]
                    if event.cancelled:
                        self._cancelled_in_heap -= 1
                        continue
                    event.fired = True
                    self.now = etime
                    event.fn(*event.args)
                processed += 1
                if processed >= fire_cap:
                    break
        finally:
            self._running = False
            self._events_processed += processed
            PERF.events_fired += processed
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return processed

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the heap — O(1),
        so it is safe to sample as a gauge every metrics interval."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def events_processed(self) -> int:
        """Total events fired over the simulator's lifetime."""
        return self._events_processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self.pending}>"
