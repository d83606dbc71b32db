"""Unidirectional links.

A :class:`Link` models a serial transmission line: packets leave the
attached queue discipline one at a time at ``bandwidth_bps``, then take
``delay`` seconds of propagation to arrive at the remote node.  This is the
same store-and-forward model ns-2 uses, so queueing dynamics (and therefore
the paper's transfer-time results) carry over.

Each channel keeps one float, ``busy_until``: the time the packet now on
the wire finishes serializing.  ``send`` enqueues and, if the wire is
free, pumps: ``_pump`` dequeues one packet and ``_start``, the one
transmit site, counts it transmitted, sets ``busy_until = now + size * 8
/ bandwidth`` and schedules its delivery at ``busy_until + delay``.  On
an *idle* channel (empty qdisc, free wire, no wake-up pending) ``send``
starts what ``qdisc.admit_idle`` returns instead — the same decisions
without the queue round trip.  A *wake-up* at the boundary is scheduled
only when there is something to serve then — at start time if a backlog
remains, otherwise by the first ``send`` that finds the wire busy — so a
packet crossing an idle link costs one event (its delivery), not two.

Rate-limited disciplines (TVA's request class) can have a backlog without a
sendable packet; the link then parks itself and re-polls at the time the
discipline promises readiness via ``next_ready``.

Accounting: a link counts what it put on the wire (``tx_packets``,
``tx_bytes``, and per-class ``class_bytes`` once the observability layer
turns classification on) and what it lost to being down (``fault_drops``,
``fault_drop_bytes``) — plain ints, exported by :meth:`Link.metric_items`.
Queueing decisions are the qdisc's to count, not the link's.

Links can be taken down and brought back up (fault injection,
:mod:`repro.faults`): :meth:`Link.set_down` drains the queue backlog and
refuses new arrivals, :meth:`Link.set_up` resumes transmission.  A packet
already serialized onto the wire when the link goes down still propagates —
the cut happens at the queue, matching a store-and-forward model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..obs.metrics import MetricItem, tally_items
from .engine import Event, Simulator
from .packet import Packet
from .queues import Qdisc

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node


class _Channel:
    """One serial transmitter: a qdisc plus the state of its wire.

    A plain :class:`Link` owns exactly one; an :class:`AggregateLink`
    owns one per member.
    """

    __slots__ = ("qdisc", "busy_until", "wake_pending", "poll_event")

    def __init__(self, qdisc: Qdisc) -> None:
        self.qdisc = qdisc
        #: When the packet on the wire finishes serializing; the wire is
        #: free once ``sim.now`` reaches it.
        self.busy_until = 0.0
        #: Whether a live :meth:`Link._wake` is scheduled at
        #: ``busy_until``.  It alone serves the backlog at the boundary,
        #: so arrivals (and polls) landing at that very timestamp before
        #: it fires leave the dequeue to it.
        self.wake_pending = False
        self.poll_event: Optional[Event] = None


class Link:
    """One direction of a wire between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth_bps: float,
        delay: float,
        qdisc: Qdisc,
        name: Optional[str] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.qdisc = qdisc
        self.name = name or f"{src.name}->{dst.name}"
        #: Whether this link crosses into a trust domain at its far end:
        #: a trust-boundary router tags requests arriving over such links
        #: (Section 3.2).  Topology builders set it for host access links
        #: and inter-domain links.
        self.boundary_ingress = False
        #: Administrative/fault state; a down link drops arrivals and does
        #: not start new transmissions.
        self.up = True
        #: Fault token: bumped by every :meth:`set_down` and carried by
        #: each scheduled wake-up, so one armed before the link went down
        #: is ignored when it fires.
        self._fault_token = 0
        self._chan = _Channel(qdisc)
        self.tx_packets = 0
        self.tx_bytes = 0
        # Packets lost to the link being down: the backlog drained by
        # set_down() plus arrivals while down.  Kept separate from qdisc
        # drops so queue-level accounting stays about queueing decisions.
        self.fault_drops = 0
        self.fault_drop_bytes = 0
        #: Optional packet -> class-name callback.  ``None`` (the default)
        #: keeps the transmit path classification-free; the observability
        #: layer sets it for instrumented links only, together with a
        #: zero-filled ``class_bytes`` entry per class it can return.
        self.classify: Optional[Callable[[Packet], str]] = None
        self.class_bytes: Dict[str, int] = {}

    def metric_items(self) -> List[MetricItem]:
        return tally_items(
            self, ("tx_packets", "tx_bytes", "fault_drops", "fault_drop_bytes")
        )

    # ------------------------------------------------------------------
    def ingress_of(self, pkt: Packet) -> str:
        """The ingress-interface identity of ``pkt`` on this link.

        Trust-boundary routers key path-identifier tags on this (one tag
        per ingress interface, Section 3.2).  A plain link is one
        interface; an :class:`AggregateLink` resolves the packet to its
        member channel so every aggregated sender keeps the distinct tag
        its expanded equivalent would have."""
        return self.name

    # ------------------------------------------------------------------
    def _all_channels(self) -> Sequence[_Channel]:
        return (self._chan,)

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Hand a packet to this link's queue; starts transmission if idle.

        Returns ``False`` when the queue discipline dropped the packet or
        the link is down.
        """
        if not self.up:
            self.fault_drops += 1
            self.fault_drop_bytes += pkt.size
            return False
        return self._send_on(self._chan, pkt)

    def _send_on(self, channel: _Channel, pkt: Packet) -> bool:
        qdisc = channel.qdisc
        now = self.sim.now
        if not (qdisc.backlog_pkts or channel.wake_pending
                or now < channel.busy_until):
            # Idle: enqueue + dequeue in one call; ``None`` and no backlog is a refusal.
            head = qdisc.admit_idle(pkt, now)
            self._start(channel, head, now)
            return head is not None or qdisc.backlog_pkts > 0
        if not qdisc.enqueue(pkt):
            return False
        if not channel.wake_pending:
            self._serve(channel)
        return True

    def _serve(self, channel: _Channel) -> None:
        """Transmit now if the wire is free, else wake at the boundary."""
        if self.sim.now >= channel.busy_until:
            self._pump(channel)
        else:
            channel.wake_pending = True
            self.sim.call_at(
                channel.busy_until, self._wake, channel, self._fault_token
            )

    # ------------------------------------------------------------------
    def set_down(self) -> List[Packet]:
        """Take the link down: park transmission and drain the backlog.

        Returns the drained packets (already counted on the link's fault
        counters).  A packet mid-transmission still completes and
        propagates; pending polls are cancelled and pending wake-ups
        revoked, so nothing new starts until :meth:`set_up`.
        Idempotent — downing a down link drains nothing.
        """
        if not self.up:
            return []
        self.up = False
        self._fault_token += 1
        drained: List[Packet] = []
        for channel in self._all_channels():
            self.sim.cancel(channel.poll_event)
            channel.poll_event = None
            channel.wake_pending = False
            drained.extend(channel.qdisc.drain())
        self.fault_drops += len(drained)
        self.fault_drop_bytes += sum(pkt.size for pkt in drained)
        return drained

    def set_up(self) -> None:
        """Bring the link back; resumes service of any new backlog — at
        once, or at the boundary of a packet still serializing."""
        if self.up:
            return
        self.up = True
        for channel in self._all_channels():
            self._serve(channel)

    # ------------------------------------------------------------------
    def _pump(self, channel: _Channel) -> None:
        """Put the next queued packet on a free wire."""
        now = self.sim.now
        self._start(channel, channel.qdisc.dequeue(now), now)

    def _start(self, channel: _Channel, pkt: Optional[Packet], now: float) -> None:
        """Put ``pkt``, just released by the qdisc, on the free wire; for
        ``None``, poll a rate-limited backlog if one remains."""
        qdisc = channel.qdisc
        if pkt is None:
            if not qdisc.backlog_pkts:
                # Truly idle — nothing to poll for (every discipline's
                # next_ready returns None on zero backlog).
                return
            # Backlogged but rate-limited: re-poll when tokens accrue.
            ready = qdisc.next_ready(now)
            if ready is not None and channel.poll_event is None:
                # Floor the poll delay at 1 µs so float rounding in a rate
                # limiter can never freeze simulated time.
                delay = max(1e-6, ready - now)
                channel.poll_event = self.sim.after(delay, self._poll, channel)
            return
        # Boundaries are absolute floats chained by addition (end, then
        # end + delay); the next packet starts at exactly this ``end``.
        end = now + pkt.size * 8.0 / self.bandwidth_bps
        channel.busy_until = end
        self.tx_packets += 1
        self.tx_bytes += pkt.size
        if self.classify is not None:
            self.class_bytes[self.classify(pkt)] += pkt.size
        # Fire-and-forget: a started transmission is never cancelled (even
        # set_down lets the on-wire packet finish and propagate).
        self.sim.call_at(end + self.delay, self.dst.receive, pkt, self)
        if qdisc.backlog_pkts:
            channel.wake_pending = True
            self.sim.call_at(end, self._wake, channel, self._fault_token)

    def _wake(self, channel: _Channel, token: int) -> None:
        if token != self._fault_token:
            return
        channel.wake_pending = False
        self._pump(channel)

    def _poll(self, channel: _Channel) -> None:
        channel.poll_event = None
        # A poll armed while idle can outlive the idleness (another class
        # started transmitting since); the boundary wake-up, or the send
        # that arms one, serves the backlog then.
        if not channel.wake_pending and self.sim.now >= channel.busy_until:
            self._pump(channel)

    # ------------------------------------------------------------------
    @property
    def drops(self) -> int:
        return self.qdisc.drops

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity used over ``elapsed`` seconds of simulation."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.tx_bytes * 8.0 / (self.bandwidth_bps * elapsed))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.bandwidth_bps/1e6:.1f}Mb/s {self.delay*1e3:.0f}ms>"


class AggregateLink(Link):
    """An access trunk bundling ``count`` independent member channels.

    One :class:`AggregateLink` stands in for the ``count`` per-host
    access links an expanded topology would have.  Each channel has its
    own queue discipline (built on first use from ``qdisc_factory``) and
    its own serial transmitter at ``bandwidth_bps``, so queueing
    dynamics are exactly those of ``count`` separate links — the
    savings are the per-``Link``/per-``Node`` objects and one routing
    range entry per router instead of ``count``, not the model.

    ``by="src"`` selects the channel from the packet's source address
    (the uplink trunk), ``by="dst"`` from the destination (the
    downlink).  Lazily built channel qdiscs start in the same state a
    link-construction-time qdisc would have reached untouched (empty
    queues, full token buckets), so lazy creation is behaviour-neutral.
    """

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth_bps: float,
        delay: float,
        qdisc_factory: Callable[[], Qdisc],
        base_address: int,
        count: int,
        by: str,
        member_prefix: str,
        name: Optional[str] = None,
    ) -> None:
        if by not in ("src", "dst"):
            raise ValueError(f"unknown channel selector {by!r}")
        if count < 1:
            raise ValueError("aggregate link needs at least one channel")
        # The base-class qdisc slot holds channel 0's discipline so code
        # that pokes link.qdisc (drain on faults, tests) sees a real one.
        super().__init__(sim, src, dst, bandwidth_bps, delay,
                         qdisc=qdisc_factory(), name=name)
        self.qdisc_factory = qdisc_factory
        self.base_address = base_address
        self.count = count
        self.by_src = by == "src"
        self.member_prefix = member_prefix
        self._channels: Dict[int, _Channel] = {0: self._chan}

    # -- channel resolution --------------------------------------------
    def _index_of(self, pkt: Packet) -> int:
        addr = pkt.src if self.by_src else pkt.dst
        idx = addr - self.base_address
        if not 0 <= idx < self.count:
            raise ValueError(
                f"packet {'src' if self.by_src else 'dst'} {addr} outside "
                f"aggregate {self.name} range "
                f"[{self.base_address}, {self.base_address + self.count})"
            )
        return idx

    def _all_channels(self) -> Sequence[_Channel]:
        return [self._channels[idx] for idx in sorted(self._channels)]

    def ingress_of(self, pkt: Packet) -> str:
        # Matches the expanded per-host link name f"{member}->{router}".
        return f"{self.member_prefix}{self._index_of(pkt)}->{self.dst.name}"

    # -- data path ------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        if not self.up:
            self.fault_drops += 1
            self.fault_drop_bytes += pkt.size
            return False
        # Hit: one lookup.  A miss range-checks the address (_index_of),
        # then builds the member's channel on first use.
        channel = self._channels.get(
            (pkt.src if self.by_src else pkt.dst) - self.base_address
        )
        if channel is None:
            idx = self._index_of(pkt)
            channel = self._channels[idx] = _Channel(self.qdisc_factory())
        return self._send_on(channel, pkt)

    @property
    def drops(self) -> int:
        return sum(
            self._channels[idx].qdisc.drops for idx in sorted(self._channels)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AggregateLink {self.name} x{self.count} "
            f"{self.bandwidth_bps/1e6:.1f}Mb/s {self.delay*1e3:.0f}ms>"
        )
