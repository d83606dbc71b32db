"""Traffic agents: the workloads of Section 5.

* :class:`RepeatingTransferClient` — a legitimate user: 20 KB TCP
  transfers back to back, "the next transfer starting after the previous
  one completes or aborts due to excessive loss".
* :class:`CbrFlood` — an attacker: a constant-bit-rate flood at 1 Mb/s.
  Three modes cover the paper's three flood classes: ``legacy`` (plain IP
  packets), ``request`` (hand-crafted capability request packets), and
  ``shim`` (packets sent through the host's capability layer — the
  authorized floods of Sections 5.3/5.4, where a colluder or an imprecise
  destination grants the attacker capabilities).
"""

from __future__ import annotations

import heapq
import random
from array import array
from typing import List, Optional, Union

from ..core.header import RequestHeader
from ..sim.engine import Simulator
from ..sim.node import AggregateHost, Host
from ..sim.packet import Packet
from ..sim.trace import TransferLog
from .tcp import TcpParams, TcpSender, TcpStats


class RepeatingTransferClient:
    """A legitimate user performing fixed-size transfers in a closed loop."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: int,
        dst_port: int,
        nbytes: int = 20_000,
        log: Optional[TransferLog] = None,
        start_at: float = 0.0,
        stop_at: Optional[float] = None,
        max_transfers: Optional[int] = None,
        tcp_params: Optional[TcpParams] = None,
        tcp_stats: Optional[TcpStats] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.dst = dst
        self.dst_port = dst_port
        self.nbytes = nbytes
        self.log = log if log is not None else TransferLog()
        self.stop_at = stop_at
        self.max_transfers = max_transfers
        self.tcp_params = tcp_params or TcpParams()
        self.tcp_stats = tcp_stats
        self.transfers_started = 0
        self.completed = 0
        self.failed = 0
        self._record = None
        sim.call_at(start_at, self._begin)

    # ------------------------------------------------------------------
    def _begin(self) -> None:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        if self.max_transfers is not None and self.transfers_started >= self.max_transfers:
            return
        self.transfers_started += 1
        self._record = self.log.open(
            self.host.address, self.dst, self.nbytes, self.sim.now
        )
        sender = TcpSender(
            self.sim,
            self.host,
            self.dst,
            self.dst_port,
            self.nbytes,
            params=self.tcp_params,
            on_complete=self._on_complete,
            on_fail=self._on_fail,
            stats=self.tcp_stats,
        )
        sender.start()

    def _on_complete(self, now: float) -> None:
        self._record.end = now
        self.completed += 1
        self._begin()

    def _on_fail(self, now: float, reason: str) -> None:
        self._record.aborted = True
        self.failed += 1
        self._begin()


class PacketSink:
    """A sink for a datagram protocol: counts what arrives.

    Binding a sink at a flood's target models an open service port; without
    one, flood packets are "unexpected" and the host shim reports the
    sender to the policy immediately (Section 3.3), which short-circuits
    experiments that need the attacker to be *authorized* first."""

    def __init__(self, host: Host, proto: str = "cbr") -> None:
        self.host = host
        self.packets = 0
        self.bytes = 0
        host.bind(proto, 0, self._on_packet)

    def _on_packet(self, pkt: Packet) -> None:
        self.packets += 1
        self.bytes += pkt.size


class JitterStream:
    """``random.Random(seed)``'s ``uniform`` draws, held as stored draws.

    ``uniform(a, b)`` returns exactly what ``random.Random(seed).uniform(a,
    b)`` would, draw for draw.  A flood member draws once per packet, and
    a short-lived one makes far fewer draws than its generator's 2.5 KB
    of Mersenne-Twister state is worth: when the stored draws run out, a
    generator is seeded, replayed past the draws already made, and asked
    for as many again as have been made (at least 32) before it is
    dropped.  Once a refill would store 312 draws — as many bytes as the
    generator's 624-word state — the stream keeps the generator instead.
    """

    __slots__ = ("_seed", "_made", "_draws", "_rng")

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._made = 0
        #: Upcoming ``random()`` values, the next one last (``pop`` takes it).
        self._draws: Optional[array] = None
        self._rng: Optional[random.Random] = None

    def uniform(self, a: float, b: float) -> float:
        # random.Random.uniform's own formula, over a live or stored random().
        if self._rng is not None:
            return a + (b - a) * self._rng.random()
        if not self._draws:
            self._refill()
            return self.uniform(a, b)
        self._made += 1
        return a + (b - a) * self._draws.pop()

    def _refill(self) -> None:
        rng = random.Random(self._seed)
        for _ in range(self._made):
            rng.random()
        count = max(32, self._made)
        if count >= 312:
            self._rng = rng
            self._draws = None
            return
        self._draws = array("d", [rng.random() for _ in range(count)][::-1])


class CbrFlood:
    """A constant-bit-rate flood source.

    ``mode``:

    * ``"legacy"`` — plain packets with no capability shim, bypassing any
      host shim (Section 5.1's legacy packet floods).
    * ``"request"`` — each packet is a blank capability request
      (Section 5.2's request packet floods).
    * ``"shim"`` — packets go through the host's capability layer, which
      requests/uses/renews capabilities like any sender; this produces
      authorized floods when some destination is willing to grant
      (Sections 5.3 and 5.4).  The flood first performs a handshake with
      small probe packets (a request rides on something SYN-sized, as in
      the paper) and blasts at full rate only once authorized; while
      unauthorized it keeps probing at a low rate.
    """

    #: Size of the handshake probe (a SYN-sized packet carrying the
    #: capability request) and the probe retry interval.
    PROBE_SIZE = 60
    PROBE_INTERVAL = 0.3

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst: int,
        rate_bps: float = 1e6,
        pkt_size: int = 1500,
        mode: str = "legacy",
        start_at: float = 0.0,
        stop_at: Optional[float] = None,
        jitter: float = 0.0,
        rng: Optional[Union[random.Random, JitterStream]] = None,
    ) -> None:
        if mode not in ("legacy", "request", "shim"):
            raise ValueError(f"unknown flood mode {mode!r}")
        if rate_bps <= 0:
            raise ValueError("flood rate must be positive")
        self.sim = sim
        self.host = host
        self.dst = dst
        self.rate_bps = rate_bps
        self.pkt_size = pkt_size
        self.mode = mode
        self.stop_at = stop_at
        self.jitter = jitter
        self.rng = rng or random.Random(host.address)
        self.packets_sent = 0
        self.probes_sent = 0
        self.interval = pkt_size * 8.0 / rate_bps
        self._last_probe = -1e9
        sim.call_at(start_at, self._tick)

    def _tick(self) -> None:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        if self.mode == "shim" and not self._authorized():
            # Handshake phase: request with a small probe, retry until the
            # destination (or colluder) grants.
            if self.sim.now - self._last_probe >= self.PROBE_INTERVAL:
                self._last_probe = self.sim.now
                self.probes_sent += 1
                self.host.send(self._packet(self.PROBE_SIZE))
            self.sim.call_after(self.PROBE_INTERVAL / 3.0, self._tick)
            return
        self._emit()
        delay = self.interval
        if self.jitter:
            delay *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
        self.sim.call_after(delay, self._tick)

    def _authorized(self) -> bool:
        shim = self.host.shim
        return shim is None or shim.authorized(self.dst)

    def _packet(self, size: int, shim=None) -> Packet:
        return self.sim.alloc_packet(
            src=self.host.address,
            dst=self.dst,
            size=size,
            proto="cbr",
            shim=shim,
            created=self.sim.now,
        )

    def _emit(self) -> None:
        self.packets_sent += 1
        if self.mode == "shim":
            self.host.send(self._packet(self.pkt_size))
            return
        shim = RequestHeader() if self.mode == "request" else None
        self.host.send_raw(self._packet(self.pkt_size, shim))


class AggregateSender:
    """``k`` :class:`CbrFlood` senders driven by one agent.

    Models every member of an :class:`~repro.sim.node.AggregateHost` as
    an independent CBR flood with its own start time, RNG stream, shim,
    and source address.  Member schedules are interleaved through a
    single binary heap keyed on next-emission time, so the merged packet
    sequence matches what ``k`` separate :class:`CbrFlood` agents would
    produce (per-member behaviour — probe handshakes, jitter draws,
    packet sizes — is a line-for-line mirror of :class:`CbrFlood`).
    Exactly one simulator event is outstanding at any moment, which is
    what lets 10^4–10^5 senders fit in one process.
    """

    PROBE_SIZE = CbrFlood.PROBE_SIZE
    PROBE_INTERVAL = CbrFlood.PROBE_INTERVAL

    def __init__(
        self,
        sim: Simulator,
        host: AggregateHost,
        dst: int,
        rate_bps: float = 1e6,
        pkt_size: int = 1500,
        mode: str = "legacy",
        starts: Optional[List[float]] = None,
        stop_at: Optional[float] = None,
        jitter: float = 0.0,
        rngs: Optional[List[Union[random.Random, JitterStream]]] = None,
    ) -> None:
        if mode not in ("legacy", "request", "shim"):
            raise ValueError(f"unknown flood mode {mode!r}")
        if rate_bps <= 0:
            raise ValueError("flood rate must be positive")
        self.sim = sim
        self.host = host
        self.dst = dst
        self.rate_bps = rate_bps
        self.pkt_size = pkt_size
        self.mode = mode
        self.stop_at = stop_at
        self.jitter = jitter
        self.count = host.count
        if starts is not None and len(starts) != self.count:
            raise ValueError(f"got {len(starts)} starts for {self.count} members")
        if rngs is not None and len(rngs) != self.count:
            raise ValueError(f"got {len(rngs)} rngs for {self.count} members")
        self.rngs = rngs if rngs is not None else [
            JitterStream(host.address + i) for i in range(self.count)
        ]
        self.packets_sent = 0
        self.probes_sent = 0
        self.interval = pkt_size * 8.0 / rate_bps
        self._last_probe = [-1e9] * self.count
        self._heap: List[tuple] = [
            ((starts[i] if starts is not None else 0.0), i)
            for i in range(self.count)
        ]
        heapq.heapify(self._heap)
        self._schedule()

    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        if self._heap:
            self.sim.call_at(self._heap[0][0], self._fire)

    def _fire(self) -> None:
        heap = self._heap
        i = heap[0][1]
        nxt = self._tick_member(i)
        # One sift instead of a pop and a push; entries are ordered by the
        # same (time, i) tuples, so the pop order is unchanged.
        if nxt is not None:
            heapq.heapreplace(heap, (nxt, i))
        else:
            heapq.heappop(heap)
        self._schedule()

    def _tick_member(self, i: int) -> Optional[float]:
        """One member's :meth:`CbrFlood._tick`; returns its next fire time."""
        now = self.sim.now
        if self.stop_at is not None and now >= self.stop_at:
            return None
        if self.mode == "shim" and not self._authorized(i):
            if now - self._last_probe[i] >= self.PROBE_INTERVAL:
                self._last_probe[i] = now
                self.probes_sent += 1
                self.host.virtuals[i].send(self._packet(i, self.PROBE_SIZE))
            return now + self.PROBE_INTERVAL / 3.0
        self.packets_sent += 1
        if self.mode == "shim":
            self.host.virtuals[i].send(self._packet(i, self.pkt_size))
        else:
            shim = RequestHeader() if self.mode == "request" else None
            self.host.send_raw(self._packet(i, self.pkt_size, shim))
        delay = self.interval
        if self.jitter:
            delay *= 1.0 + self.rngs[i].uniform(-self.jitter, self.jitter)
        return now + delay

    def _authorized(self, i: int) -> bool:
        shim = self.host.shim_for(i)
        return shim is None or shim.authorized(self.dst)

    def _packet(self, i: int, size: int, shim=None) -> Packet:
        return self.sim.alloc_packet(
            src=self.host.address + i,
            dst=self.dst,
            size=size,
            proto="cbr",
            shim=shim,
            created=self.sim.now,
        )
