"""Queue disciplines.

Routers in every evaluated scheme are built from three primitives:

* :class:`DropTailQueue` — the plain FIFO used by the legacy Internet and
  for legacy/demoted traffic in TVA.
* :class:`DRRFairQueue` — deficit round robin fair queuing, the bounded-state
  fair queuing TVA performs over request path identifiers and over the
  destinations of cached authorized flows (Sections 3.2 and 3.9).
* :class:`TokenBucket` — the rate limiter that confines request traffic to a
  small fixed fraction of each link (Section 3.2).

All disciplines share the :class:`Qdisc` interface: ``enqueue`` returns
``False`` when the packet is dropped, ``dequeue(now)`` returns the next
packet or ``None``, and ``next_ready(now)`` tells a link when a currently
undequeuable backlog will become ready (used by rate-limited classes).
``admit_idle(pkt, now)``, called by a link only on an empty discipline,
returns and leaves behind exactly what ``enqueue(pkt)`` then
``dequeue(now)`` would; the default is that pair, and the FIFO, DRR and
the scheduler override it with what the empty state makes exact.

Accounting contract — every decision is counted once, by the discipline
that made it, on plain ``int`` attributes:

* an accepted ``enqueue`` adds the packet to ``backlog_pkts``/
  ``backlog_bytes``; a successful ``dequeue`` takes it off again;
* a refused ``enqueue`` goes through :meth:`Qdisc._drop`, which bumps
  ``drops``, ``drop_bytes`` and the per-reason tally and fires
  ``drop_hook``;
* ``drain`` ends in :meth:`Qdisc._drained`, which zeroes the backlog
  without touching the drop tallies.

A :class:`PriorityScheduler` is itself a discipline over its children, so
a packet crossing it is accounted at both levels: the parent's backlog is
the sum of its children's (plus parked heads), and a child's refusal is
one drop at the child (its own reason) plus one ``"child"`` drop at the
parent.

The op counts (``enqueues``/``dequeues``, once per level) are not taken
here: while open, a :class:`repro.perf.opcounts.OpCountProbe` wraps
``enqueue``, ``dequeue``, the ``admit_idle`` overrides and
:meth:`Qdisc._drained` of the classes below and counts from their return
values (``True``/a packet counts, ``False``/``None`` does not; an
``admit_idle`` packet is one of each), so an unprobed run pays nothing
for them.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import (
    Callable, Deque, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from ..obs.metrics import MetricItem, tally_items
from .packet import Packet


class Qdisc:
    """Interface and shared accounting of all queue disciplines.

    ``backlog_pkts``, ``backlog_bytes``, ``drops``, ``drop_bytes`` and the
    per-reason ``drop_reasons`` are plain ints anyone may read; the
    observability layer reads them through :meth:`metric_items`.
    Disciplines are slotted and build containers on first use: a flood
    holds a scheduler per member channel, most only ever ``admit_idle``
    (and a scheduler builds a class only when a packet joins it).
    """

    __slots__ = ("backlog_bytes", "backlog_pkts", "drops", "drop_bytes",
                 "_drop_reasons", "label", "drop_hook")

    #: Reason labels this discipline can drop for.
    DROP_REASONS: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A redefined enqueue/dequeue must not be skipped by an inherited shortcut.
        if "admit_idle" not in vars(cls) and {"enqueue", "dequeue"} & vars(cls).keys():
            cls.admit_idle = Qdisc.admit_idle

    def __init__(self) -> None:
        self.backlog_bytes = 0
        self.backlog_pkts = 0
        self.drops = 0
        self.drop_bytes = 0
        self._drop_reasons: Optional[Dict[str, int]] = None
        #: Label used by the observability layer to name this discipline
        #: inside a scheduler hierarchy (e.g. "request", "regular").
        self.label: str = ""
        #: Optional callback invoked with each dropped packet; pushback's
        #: aggregate detection feeds on this.
        self.drop_hook: Optional[Callable[[Packet], None]] = None

    @property
    def drop_reasons(self) -> Dict[str, int]:
        """Drops per reason label; every label reads 0 before the first drop."""
        if self._drop_reasons is None:
            return dict.fromkeys(self.DROP_REASONS, 0)
        return self._drop_reasons

    def metric_items(self) -> Iterator[MetricItem]:
        """This discipline's tallies as ``(suffix, read)`` pairs."""
        yield from tally_items(
            self, ("backlog_pkts", "backlog_bytes", "drops", "drop_bytes")
        )
        for reason in self.DROP_REASONS:
            yield f"drops.{reason}", (lambda r=reason: self.drop_reasons[r])

    # -- subclass API ---------------------------------------------------
    def enqueue(self, pkt: Packet) -> bool:
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        raise NotImplementedError

    def admit_idle(self, pkt: Packet, now: float) -> Optional[Packet]:
        """``enqueue(pkt)`` then ``dequeue(now)`` on an empty discipline.  An
        override must return the same packet and leave the same state
        (tallies, drop reasons and hooks, cursors, tokens, parked heads)."""
        return self.dequeue(now) if self.enqueue(pkt) else None

    def next_ready(self, now: float) -> Optional[float]:
        """Earliest absolute time a backlogged packet could dequeue, or
        ``None`` when nothing is waiting.  The default says "now" whenever
        there is a backlog; rate-limited disciplines override this."""
        return now if self.backlog_pkts else None

    def drain(self) -> List[Packet]:
        """Remove and return every queued packet, in a deterministic order.

        Used when a link goes down (fault injection): the backlog is lost
        with the link.  Drained packets are *not* counted as qdisc drops —
        the queue did nothing wrong — so byte/packet backlog accounting
        returns to zero while the drop tallies stay untouched; the caller
        (the link) accounts the loss on its own fault tallies.
        """
        raise NotImplementedError

    # -- shared bookkeeping ---------------------------------------------
    def _drop(self, pkt: Packet, reason: str) -> bool:
        """Count one refused packet; returns ``False`` so ``enqueue`` can
        ``return self._drop(...)``."""
        self.drops += 1
        self.drop_bytes += pkt.size
        reasons = self._drop_reasons
        if reasons is None:
            reasons = self._drop_reasons = dict.fromkeys(self.DROP_REASONS, 0)
        reasons[reason] += 1
        if self.drop_hook is not None:
            self.drop_hook(pkt)
        return False

    def _drained(self, pkts: List[Packet]) -> List[Packet]:
        """Close out a :meth:`drain` that removed ``pkts`` — everything
        this discipline held."""
        self.backlog_bytes = 0
        self.backlog_pkts = 0
        return pkts


class DropTailQueue(Qdisc):
    """Plain FIFO; arrivals beyond the limit are dropped.

    The limit can be in packets (ns-2's default DropTail style, used by the
    legacy-Internet baseline so large flood packets and small TCP control
    packets face the same loss rate) or in bytes, or both."""

    __slots__ = ("limit_bytes", "limit_pkts", "_queue")

    DROP_REASONS = ("tail",)

    def __init__(
        self,
        limit_bytes: Optional[int] = 64_000,
        limit_pkts: Optional[int] = None,
    ) -> None:
        super().__init__()
        if limit_bytes is None and limit_pkts is None:
            raise ValueError("need a byte or packet limit")
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError("queue byte limit must be positive")
        if limit_pkts is not None and limit_pkts <= 0:
            raise ValueError("queue packet limit must be positive")
        self.limit_bytes = limit_bytes
        self.limit_pkts = limit_pkts
        #: Built by the first enqueue; ``None`` reads as an empty FIFO.
        self._queue: Optional[Deque[Packet]] = None

    def enqueue(self, pkt: Packet) -> bool:
        size = pkt.size
        if self.limit_bytes is not None and self.backlog_bytes + size > self.limit_bytes:
            return self._drop(pkt, "tail")
        if self.limit_pkts is not None and self.backlog_pkts + 1 > self.limit_pkts:
            return self._drop(pkt, "tail")
        queue = self._queue
        if queue is None:
            queue = self._queue = deque()
        queue.append(pkt)
        self.backlog_bytes += size
        self.backlog_pkts += 1
        return True

    def admit_idle(self, pkt: Packet, now: float) -> Optional[Packet]:
        # Empty, so only the byte limit can refuse (limit_pkts is >= 1).
        if self.limit_bytes is not None and pkt.size > self.limit_bytes:
            self._drop(pkt, "tail")
            return None
        return pkt

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        pkt = self._queue.popleft()
        self.backlog_bytes -= pkt.size
        self.backlog_pkts -= 1
        return pkt

    def drain(self) -> List[Packet]:
        drained = list(self._queue or ())
        self._queue = None
        return self._drained(drained)


class _Flow:
    """One backlogged DRR key: its FIFO and its scheduling state."""

    __slots__ = ("key", "queue", "bytes", "deficit", "topped")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.queue: Deque[Packet] = deque()
        self.bytes = 0
        self.deficit = 0
        # Whether this flow already received its quantum for the current
        # round visit; without this flag a flow would be topped up on
        # every dequeue and monopolize the scheduler.
        self.topped = False


class DRRFairQueue(Qdisc):
    """Deficit round robin fair queue with a bounded number of per-key queues.

    ``key_fn`` maps a packet to its queue identity — a path identifier for
    request queuing, a destination address for authorized-traffic queuing.
    The number of simultaneously backlogged keys is capped at ``max_queues``
    (the paper's bounded router state requirement); packets for new keys
    beyond the cap are dropped.

    Fairness is byte-based: each active queue receives ``quantum`` bytes of
    deficit per round, the standard DRR algorithm of Shreedhar & Varghese.
    """

    __slots__ = ("key_fn", "limit_bytes_per_queue", "max_queues", "quantum",
                 "_flows", "_round", "_round_idx")

    DROP_REASONS = ("overflow", "no_slot")

    def __init__(
        self,
        key_fn: Callable[[Packet], Hashable],
        limit_bytes_per_queue: int = 32_000,
        max_queues: int = 4096,
        quantum: int = 1500,
    ) -> None:
        super().__init__()
        self.key_fn = key_fn
        self.limit_bytes_per_queue = limit_bytes_per_queue
        self.max_queues = max_queues
        self.quantum = quantum
        #: Backlogged keys only: a flow exists exactly while it holds a
        #: packet, so idle keys keep no state and no deficit.
        self._flows: Dict[Hashable, _Flow] = {}
        # The same flows in service order.  New keys join at the tail and
        # the cursor walks forward, so where a key lands relative to the
        # cursor — and therefore the service order — is part of the
        # behaviour the goldens pin; a rotating deque would differ.
        self._round: List[_Flow] = []
        self._round_idx = 0

    @property
    def active_queues(self) -> int:
        return len(self._round)

    def enqueue(self, pkt: Packet) -> bool:
        key = self.key_fn(pkt)
        size = pkt.size
        flow = self._flows.get(key)
        if flow is None:
            if len(self._flows) >= self.max_queues:
                return self._drop(pkt, "no_slot")
            if size > self.limit_bytes_per_queue:
                # Reject before registering: a flow exists only while it
                # holds a packet, and flows retire on dequeue — registering
                # first would let a flood of oversized packets with
                # distinct keys pin all max_queues slots permanently, state
                # exhaustion inside the DoS defense itself.
                return self._drop(pkt, "overflow")
            flow = self._flows[key] = _Flow(key)
            self._round.append(flow)
        elif flow.bytes + size > self.limit_bytes_per_queue:
            return self._drop(pkt, "overflow")
        flow.queue.append(pkt)
        flow.bytes += size
        self.backlog_bytes += size
        self.backlog_pkts += 1
        return True

    def admit_idle(self, pkt: Packet, now: float) -> Optional[Packet]:
        # A new key's checks; serving and retiring its flow at once would
        # leave the cursor at 0, where an empty round's already is.
        if len(self._flows) >= self.max_queues:
            self._drop(pkt, "no_slot")
            return None
        if pkt.size > self.limit_bytes_per_queue:
            self._drop(pkt, "overflow")
            return None
        return pkt

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self.backlog_pkts:
            return None
        # Classic DRR (Shreedhar & Varghese): on *arriving* at a queue in
        # round order its deficit grows by one quantum; packets are served
        # while the deficit covers them; when it no longer does, the
        # scheduler moves on and the queue waits for its next round.
        round_ = self._round
        while True:
            if self._round_idx >= len(round_):
                self._round_idx = 0
            flow = round_[self._round_idx]
            if not flow.topped:
                flow.deficit += self.quantum
                flow.topped = True
            queue = flow.queue
            size = queue[0].size
            if flow.deficit < size:
                # Spent for this round; revisit after the others.
                flow.topped = False
                self._round_idx += 1
                continue
            head = queue.popleft()
            flow.deficit -= size
            flow.bytes -= size
            self.backlog_bytes -= size
            self.backlog_pkts -= 1
            if not queue:
                # Retire the emptied flow; the cursor now rests on its
                # successor, which has not been topped up yet.
                del round_[self._round_idx]
                del self._flows[flow.key]
            return head

    def drain(self) -> List[Packet]:
        # Round order is the deterministic service order, so draining in it
        # keeps the result independent of dict iteration quirks.
        drained: List[Packet] = []
        for flow in self._round:
            drained.extend(flow.queue)
        self._flows.clear()
        self._round.clear()
        self._round_idx = 0
        return self._drained(drained)


class StochasticFairQueue(DRRFairQueue):
    """Stochastic fair queuing (McKenney / SFQ): flows hash onto a fixed
    number of DRR queues instead of getting their own.

    The paper considers this as the alternative to its
    bounded-cached-flows scheme and rejects it: "we believe our scheme has
    the potential to prevent attackers from using deliberate hash
    collisions to crowd out legitimate users" (Section 3.9).  This
    implementation exists to make that comparison runnable — see
    ``tests/sim/test_sfq.py`` for the collision attack.
    """

    __slots__ = ("_flow_key_fn", "n_buckets", "salt")

    def __init__(
        self,
        key_fn: Callable[[Packet], Hashable],
        n_buckets: int = 16,
        limit_bytes_per_queue: int = 32_000,
        quantum: int = 1500,
        salt: int = 0,
    ) -> None:
        super().__init__(
            key_fn=self._bucket_of,
            limit_bytes_per_queue=limit_bytes_per_queue,
            max_queues=n_buckets,
            quantum=quantum,
        )
        self._flow_key_fn = key_fn
        self.n_buckets = n_buckets
        self.salt = salt

    def _bucket_of(self, pkt: Packet) -> int:
        # Deliberately NOT Python's hash(): that one is salted per process
        # (PYTHONHASHSEED), which would make bucket assignment — and thus
        # every SFQ result — differ across pool workers and cache replays.
        # crc32 over a canonical encoding is stable everywhere.  This is
        # the bug that motivated lint rule D001 (hash-builtin); a builtin
        # hash() here would need a # repro: allow-hash-builtin it could
        # never justify.
        key = repr((self._flow_key_fn(pkt), self.salt)).encode("utf-8")
        return zlib.crc32(key) % self.n_buckets


class TokenBucket:
    """A token bucket metering bytes at ``rate_bps`` bits per second.

    Tokens are stored as bytes.  ``burst_bytes`` caps accumulation so an
    idle request class cannot save up an unbounded burst allowance.
    """

    __slots__ = ("rate_Bps", "burst_bytes", "_tokens", "_last")

    def __init__(self, rate_bps: float, burst_bytes: int = 3000) -> None:
        if rate_bps <= 0:
            raise ValueError("token bucket rate must be positive")
        if burst_bytes <= 0:
            # A bucket that can never hold a packet parks its class's head
            # forever while the link re-polls without end.
            raise ValueError("token bucket burst must be positive")
        self.rate_Bps = rate_bps / 8.0
        self.burst_bytes = burst_bytes
        self._tokens = float(burst_bytes)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(
                self.burst_bytes, self._tokens + (now - self._last) * self.rate_Bps
            )
            self._last = now

    def available(self, now: float) -> float:
        self._refill(now)
        return self._tokens

    #: Tolerance for float rounding in refill arithmetic.  Without it a
    #: bucket can asymptotically approach (but never reach) a packet's
    #: size, deadlocking the link that polls on ``time_until``.
    _EPSILON = 1e-6

    def set_rate(
        self, rate_bps: float, now: float, burst_bytes: Optional[int] = None
    ) -> None:
        """Change the fill rate (and optionally the burst cap) at ``now``.

        Tokens accrued so far are settled at the *old* rate first, so a
        mid-interval change never re-prices already-elapsed time.
        NetFence's AIMD limiters adjust their rates through this every
        control interval.
        """
        if rate_bps <= 0:
            raise ValueError("token bucket rate must be positive")
        self._refill(now)
        self.rate_Bps = rate_bps / 8.0
        if burst_bytes is not None:
            if burst_bytes <= 0:
                raise ValueError("token bucket burst must be positive")
            self.burst_bytes = burst_bytes
            self._tokens = min(self._tokens, float(burst_bytes))

    def try_consume(self, nbytes: int, now: float) -> bool:
        self._refill(now)
        if self._tokens >= nbytes - self._EPSILON:
            self._tokens -= nbytes
            return True
        return False

    def time_until(self, nbytes: int, now: float) -> float:
        """Absolute time at which ``nbytes`` of tokens will be available."""
        self._refill(now)
        deficit = nbytes - self._tokens
        if deficit <= self._EPSILON:
            return now
        return now + deficit / self.rate_Bps


class _Unbuilt:
    """Stands in a scheduler's class list for a class no packet has
    joined yet.  It never holds packets or tallies and reads as empty to
    every ``backlog_pkts`` test; copying or pickling it yields itself, so
    a deep-copied scheduler still knows which of its classes are unbuilt."""

    __slots__ = ()

    backlog_pkts = 0

    def __reduce__(self) -> str:
        return "_UNBUILT"


_UNBUILT = _Unbuilt()
#: What an unbuilt class's entry reads as; shared by every scheduler.
_UNBUILT_CLASS = (_UNBUILT, None)

#: A scheduler class: its discipline and, for a metered class, its bucket.
ClassPair = Tuple[Qdisc, Optional[TokenBucket]]


class PriorityScheduler(Qdisc):
    """Strict-priority composition of child disciplines.

    ``classes`` lists the classes highest priority first, each either as
    a built ``(qdisc, bucket)`` pair (``bucket`` is ``None`` for an
    unmetered class) or as a builder returning one.  A builder runs when
    the first packet is classified into its class, or when
    :attr:`classes` or :attr:`children` is read; until then the class
    costs nothing.  A builder must return a fresh, untouched pair (empty
    queue, full bucket), so a class built late starts exactly as one
    built at construction; one builder may serve many schedulers.

    ``classify(pkt)`` is called exactly once per arriving packet and
    returns the index of the class it joins, or ``None`` to refuse it as
    ``"unclassified"``.  Dequeue serves the highest-priority class with a
    ready packet; a class with a token bucket may only send when the
    bucket covers the head packet (this is how TVA confines requests to
    5% of the link without ever letting them starve, Figure 2).
    """

    __slots__ = ("classify", "_builders", "_classes", "_deferred")

    DROP_REASONS = ("child", "unclassified")

    def __init__(
        self,
        classify: Callable[[Packet], Optional[int]],
        classes: Sequence[Union[ClassPair, Callable[[], ClassPair]]],
    ) -> None:
        super().__init__()
        self.classify = classify
        # tuple() of a tuple is that tuple: builders shared by the caller
        # stay shared.
        self._builders = tuple(classes)
        self._classes: List[ClassPair] = [
            _UNBUILT_CLASS if callable(entry) else entry
            for entry in self._builders
        ]
        # A rate-limited class may have dequeued a head packet it cannot yet
        # afford; it is parked here (index-aligned with _classes) until its
        # tokens accrue.  Parking the real packet lets next_ready() report
        # the exact wait, which is what keeps links from busy-polling.
        self._deferred: List[Optional[Packet]] = [None] * len(self._classes)

    def _build(self, idx: int) -> ClassPair:
        pair = self._classes[idx] = self._builders[idx]()
        return pair

    @property
    def classes(self) -> List[ClassPair]:
        """Every class as its ``(qdisc, bucket)`` pair, highest priority
        first; reading this builds any class not built yet."""
        for idx, (qdisc, _) in enumerate(self._classes):
            if qdisc is _UNBUILT:
                self._build(idx)
        return list(self._classes)

    @property
    def children(self) -> List[Qdisc]:
        return [qdisc for qdisc, _ in self.classes]

    @property
    def built(self) -> List[bool]:
        """Per class, whether it has been built; reading this builds none."""
        return [qdisc is not _UNBUILT for qdisc, _ in self._classes]

    def enqueue(self, pkt: Packet) -> bool:
        idx = self.classify(pkt)
        if idx is None:
            return self._drop(pkt, "unclassified")
        qdisc = self._classes[idx][0]
        if qdisc is _UNBUILT:
            qdisc = self._build(idx)[0]
        if not qdisc.enqueue(pkt):
            # The child counted the drop under its own reason (and fired
            # its own drop_hook); the parent records it too so scheduler
            # totals equal the sum over children.
            return self._drop(pkt, "child")
        self.backlog_bytes += pkt.size
        self.backlog_pkts += 1
        return True

    def admit_idle(self, pkt: Packet, now: float) -> Optional[Packet]:
        # All classes are empty, so the dequeue after enqueue serves this one.
        idx = self.classify(pkt)
        if idx is None:
            self._drop(pkt, "unclassified")
            return None
        qdisc, bucket = self._classes[idx]
        if qdisc is _UNBUILT:
            qdisc, bucket = self._build(idx)
        head = qdisc.admit_idle(pkt, now)
        if head is None:
            if not qdisc.backlog_pkts:
                self._drop(pkt, "child")
                return None
        elif bucket is None or bucket.try_consume(head.size, now):
            return head
        else:
            self._deferred[idx] = head
        self.backlog_bytes += pkt.size
        self.backlog_pkts += 1
        return None

    def dequeue(self, now: float) -> Optional[Packet]:
        # Parked heads stay in this scheduler's backlog accounting, so an
        # empty backlog really means nothing to serve anywhere.
        if not self.backlog_pkts:
            return None
        deferred = self._deferred
        for idx, (qdisc, bucket) in enumerate(self._classes):
            pkt = deferred[idx]
            if pkt is None:
                if not qdisc.backlog_pkts:
                    continue
                pkt = qdisc.dequeue(now)
                if pkt is None:
                    continue
            if bucket is None or bucket.try_consume(pkt.size, now):
                deferred[idx] = None
                self.backlog_bytes -= pkt.size
                self.backlog_pkts -= 1
                return pkt
            # Not enough tokens yet; park the head and let a lower class go.
            deferred[idx] = pkt
        return None

    def drain(self) -> List[Packet]:
        # Parked heads left the child on dequeue but are still in this
        # scheduler's backlog accounting, so they drain here too.  An
        # empty class, built or not, has nothing to give.
        drained: List[Packet] = []
        for idx, (qdisc, _) in enumerate(self._classes):
            deferred = self._deferred[idx]
            if deferred is not None:
                self._deferred[idx] = None
                drained.append(deferred)
            if qdisc.backlog_pkts:
                drained.extend(qdisc.drain())
        return self._drained(drained)

    def next_ready(self, now: float) -> Optional[float]:
        if not self.backlog_pkts:
            return None
        best: Optional[float] = None
        for idx, (qdisc, bucket) in enumerate(self._classes):
            deferred = self._deferred[idx]
            if deferred is None and not qdisc.backlog_pkts:
                continue
            if bucket is None:
                return now
            if deferred is not None:
                t = bucket.time_until(deferred.size, now)
            else:
                # A head packet exists but has not been pulled yet; the next
                # dequeue attempt will park it and refine the estimate.
                t = now
            if best is None or t < best:
                best = t
        return best
