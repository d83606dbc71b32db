"""Simplified TCP with the paper's modified connection establishment.

Section 5 describes the transport the simulations use: TCP transfers with
capability requests piggybacked on SYNs, plus two deliberate changes that
make the comparison fair for schemes that treat SYNs as legacy traffic:

* the SYN timeout is fixed at one second (no exponential backoff) and up
  to eight retransmissions are performed — nine tries total;
* the data exchange aborts when the retransmission timeout for a regular
  data packet exceeds 64 seconds, or one packet has been transmitted more
  than ten times.

The data path is a byte-counting-free, segment-indexed Reno: slow start,
congestion avoidance, fast retransmit on three duplicate ACKs, exponential
RTO backoff with Karn's rule, go-back-one on timeout.  With the default
initial window of two segments, a 20 KB transfer over a 60 ms RTT takes
about 0.31 s — the figure the paper quotes in Section 5.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..obs.metrics import MetricItem, tally_items
from ..sim.engine import Event, Simulator
from ..sim.node import Host
from ..sim.packet import IP_TCP_HEADER, Packet

FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4
FLAG_RST = 0x8


class TcpSegment:
    """The TCP part of a packet.  ``seq``/``ack`` count segments, not bytes;
    the packet's wire size carries the byte accounting."""

    __slots__ = ("src_port", "dst_port", "flags", "seq", "ack", "length")

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        flags: int = 0,
        seq: int = 0,
        ack: int = 0,
        length: int = 0,
    ) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.flags = flags
        self.seq = seq
        self.ack = ack
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = []
        for bit, name in ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"), (FLAG_RST, "RST")):
            if self.flags & bit:
                names.append(name)
        return f"<TcpSeg {'|'.join(names) or 'DATA'} seq={self.seq} ack={self.ack} len={self.length}>"


@dataclass(frozen=True)
class TcpParams:
    """Transport constants; defaults match Section 5's description."""

    mss: int = 1000
    initial_cwnd: float = 2.0
    initial_ssthresh: float = 64.0
    syn_timeout: float = 1.0       # fixed, no backoff (paper modification)
    syn_retries: int = 8           # retransmissions, so 9 tries in total
    initial_rto: float = 1.0
    min_rto: float = 1.0
    max_rto: float = 64.0
    abort_rto: float = 64.0        # abort when backoff exceeds this
    max_transmissions: int = 10    # abort when one packet is sent more often
    dupack_threshold: int = 3


class TcpStats:
    """Shared transport counters, aggregated across every sender that is
    handed the same instance (one per simulation run in the harness).
    The obs registry exposes them as ``transport.*``."""

    def __init__(self) -> None:
        self.syn_retransmits = 0
        self.data_retransmits = 0
        self.fast_retransmits = 0
        self.aborts = 0
        self.completions = 0

    def metric_items(self) -> List[MetricItem]:
        return tally_items(self, (
            "syn_retransmits", "data_retransmits", "fast_retransmits",
            "aborts", "completions",
        ))


class TcpSender:
    """Client side of one transfer: connect, push ``nbytes``, report."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: int,
        dst_port: int,
        nbytes: int,
        params: Optional[TcpParams] = None,
        on_complete: Optional[Callable[[float], None]] = None,
        on_fail: Optional[Callable[[float, str], None]] = None,
        stats: Optional[TcpStats] = None,
    ) -> None:
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        self.sim = sim
        self.host = host
        self.dst = dst
        self.dst_port = dst_port
        self.nbytes = nbytes
        self.params = params or TcpParams()
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.stats = stats

        self.src_port = host.allocate_port()
        self.state = "idle"
        self.n_segs = math.ceil(nbytes / self.params.mss)

        # Congestion state.
        self.cwnd = self.params.initial_cwnd
        self.ssthresh = self.params.initial_ssthresh
        self.snd_una = 0
        self.snd_nxt = 0
        self.dupacks = 0

        # RTT estimation (RFC 6298 style).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.params.initial_rto
        self._timed_seg: Optional[Tuple[int, float]] = None

        self._transmissions: Dict[int, int] = {}
        self._timer: Optional[Event] = None
        self._syn_tries = 0
        self._backoff = 1.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.state != "idle":
            raise RuntimeError("sender already started")
        self.host.bind("tcp", self.src_port, self._on_packet)
        self.state = "syn_sent"
        self._send_syn()

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------
    def _send_syn(self) -> None:
        self._syn_tries += 1
        self._syn_sent_at = self.sim.now
        seg = TcpSegment(self.src_port, self.dst_port, flags=FLAG_SYN)
        self._emit(seg, payload=0)
        self.sim.cancel(self._timer)
        self._timer = self.sim.after(self.params.syn_timeout, self._syn_timeout)

    def _syn_timeout(self) -> None:
        if self.state != "syn_sent":
            return
        if self._syn_tries > self.params.syn_retries:
            self._fail("syn-retries-exhausted")
            return
        if self.stats is not None:
            self.stats.syn_retransmits += 1
        self._notify_shim_timeout()
        self._send_syn()

    # ------------------------------------------------------------------
    # Data transfer
    # ------------------------------------------------------------------
    def _send_window(self) -> None:
        window = max(1, int(self.cwnd))
        while self.snd_nxt < self.n_segs and self.snd_nxt - self.snd_una < window:
            self._send_segment(self.snd_nxt)
            self.snd_nxt += 1
        self._arm_timer()

    def _send_segment(self, seg_idx: int) -> None:
        count = self._transmissions.get(seg_idx, 0) + 1
        self._transmissions[seg_idx] = count
        if count == 1 and self._timed_seg is None:
            self._timed_seg = (seg_idx, self.sim.now)
        payload = min(self.params.mss, self.nbytes - seg_idx * self.params.mss)
        seg = TcpSegment(
            self.src_port, self.dst_port, flags=FLAG_ACK, seq=seg_idx, length=payload
        )
        self._emit(seg, payload=payload)

    def _emit(self, seg: TcpSegment, payload: int) -> None:
        pkt = self.sim.alloc_packet(
            src=self.host.address,
            dst=self.dst,
            size=IP_TCP_HEADER + payload,
            proto="tcp",
            tcp=seg,
            created=self.sim.now,
        )
        self.host.send(pkt)

    # ------------------------------------------------------------------
    def _on_packet(self, pkt: Packet) -> None:
        seg = pkt.tcp
        if seg is None or pkt.src != self.dst:
            return
        if self.state == "syn_sent" and seg.flags & FLAG_SYN and seg.flags & FLAG_ACK:
            self._established()
            return
        if self.state == "established" and seg.flags & FLAG_ACK:
            self._on_ack(seg.ack)

    def _established(self) -> None:
        self.state = "established"
        self.sim.cancel(self._timer)
        self._timer = None
        # The SYN round-trip gives the first RTT sample when it was not
        # retransmitted (Karn's rule).
        if self._syn_tries == 1:
            self._rtt_sample(self.sim.now - self._syn_sent_at)
        self._send_window()

    def _on_ack(self, ack: int) -> None:
        if ack > self.snd_una:
            newly = ack - self.snd_una
            self.snd_una = ack
            self.dupacks = 0
            self._backoff = 1.0
            if self._timed_seg is not None and ack > self._timed_seg[0]:
                seg_idx, sent_at = self._timed_seg
                if self._transmissions.get(seg_idx, 0) == 1:
                    self._rtt_sample(self.sim.now - sent_at)
                self._timed_seg = None
            for _ in range(newly):
                if self.cwnd < self.ssthresh:
                    self.cwnd += 1.0
                else:
                    self.cwnd += 1.0 / self.cwnd
            if self.snd_una >= self.n_segs:
                self._complete()
                return
            self._arm_timer(reset=True)
            self._send_window()
        elif self.snd_nxt > self.snd_una:
            self.dupacks += 1
            if self.dupacks == self.params.dupack_threshold:
                # Fast retransmit (simplified Reno, no window inflation).
                flight = self.snd_nxt - self.snd_una
                self.ssthresh = max(2.0, flight / 2.0)
                self.cwnd = self.ssthresh
                self._timed_seg = None
                if not self._check_transmission_budget(self.snd_una):
                    return
                if self.stats is not None:
                    self.stats.fast_retransmits += 1
                self._send_segment(self.snd_una)
                self._arm_timer(reset=True)

    # ------------------------------------------------------------------
    def _arm_timer(self, reset: bool = False) -> None:
        if self.snd_una >= self.n_segs:
            return
        if self._timer is not None and not reset and not self._timer.cancelled:
            return
        self.sim.cancel(self._timer)
        self._timer = self.sim.after(self.rto * self._backoff, self._rto_timeout)

    def _rto_timeout(self) -> None:
        if self.state != "established":
            return
        self._backoff *= 2.0
        if self.rto * self._backoff > self.params.abort_rto:
            self._fail("rto-exceeded")
            return
        if not self._check_transmission_budget(self.snd_una):
            return
        flight = max(1, self.snd_nxt - self.snd_una)
        self.ssthresh = max(2.0, flight / 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self._timed_seg = None  # Karn: no samples across retransmits
        if self.stats is not None:
            self.stats.data_retransmits += 1
        self._notify_shim_timeout()
        self._send_segment(self.snd_una)
        self._arm_timer(reset=True)

    def _check_transmission_budget(self, seg_idx: int) -> bool:
        if self._transmissions.get(seg_idx, 0) >= self.params.max_transmissions:
            self._fail("max-transmissions")
            return False
        return True

    # ------------------------------------------------------------------
    def _rtt_sample(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(
            self.params.max_rto,
            max(self.params.min_rto, self.srtt + 4.0 * self.rttvar),
        )

    def _notify_shim_timeout(self) -> None:
        if self.host.shim is not None:
            self.host.shim.on_transport_timeout(self.dst)

    # ------------------------------------------------------------------
    def _complete(self) -> None:
        self.state = "done"
        self._teardown()
        if self.stats is not None:
            self.stats.completions += 1
        if self.on_complete is not None:
            self.on_complete(self.sim.now)

    def _fail(self, reason: str) -> None:
        self.state = "failed"
        self._teardown()
        if self.stats is not None:
            self.stats.aborts += 1
        if self.on_fail is not None:
            self.on_fail(self.sim.now, reason)

    def _teardown(self) -> None:
        self.sim.cancel(self._timer)
        self._timer = None
        self.host.unbind("tcp", self.src_port)


class _RxConnection:
    __slots__ = ("rcv_next", "out_of_order")

    def __init__(self) -> None:
        self.rcv_next = 0
        self.out_of_order: Set[int] = set()


class TcpListener:
    """Server side: accept connections on a port, ACK data cumulatively."""

    def __init__(self, sim: Simulator, host: Host, port: int) -> None:
        self.sim = sim
        self.host = host
        self.port = port
        self._conns: Dict[Tuple[int, int], _RxConnection] = {}
        self.accepted = 0
        self.segments_received = 0
        host.bind("tcp", port, self._on_packet)

    def _on_packet(self, pkt: Packet) -> None:
        seg = pkt.tcp
        if seg is None:
            return
        key = (pkt.src, seg.src_port)
        if seg.flags & FLAG_SYN:
            if key not in self._conns:
                self._conns[key] = _RxConnection()
                self.accepted += 1
            self._reply(pkt, flags=FLAG_SYN | FLAG_ACK, ack=0)
            return
        conn = self._conns.get(key)
        if conn is None:
            return  # data for an unknown connection: ignore (no RST model)
        if seg.length > 0:
            self.segments_received += 1
            if seg.seq >= conn.rcv_next:
                conn.out_of_order.add(seg.seq)
            while conn.rcv_next in conn.out_of_order:
                conn.out_of_order.remove(conn.rcv_next)
                conn.rcv_next += 1
            self._reply(pkt, flags=FLAG_ACK, ack=conn.rcv_next)

    def _reply(self, pkt: Packet, flags: int, ack: int) -> None:
        seg = pkt.tcp
        reply = TcpSegment(self.port, seg.src_port, flags=flags, ack=ack)
        out = self.sim.alloc_packet(
            src=self.host.address,
            dst=pkt.src,
            size=IP_TCP_HEADER,
            proto="tcp",
            tcp=reply,
            created=self.sim.now,
        )
        self.host.send(out)
