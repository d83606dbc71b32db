"""Packets.

A :class:`Packet` models one IP datagram plus the capability shim layer the
paper adds above IP (Section 4.1).  The shim payload lives in the ``shim``
attribute and is scheme specific: for TVA it is one of the header objects in
:mod:`repro.core.header`; for SIFF it is a :class:`repro.baselines.siff.SiffShim`;
legacy traffic carries ``None``.

``size`` is the wire size in bytes and is what links and queues charge for;
callers set it to payload + header overhead.  Packets use ``__slots__``
because simulations create hundreds of thousands of them.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Tuple

#: Fallback uid source for packets built outside a simulator (unit tests,
#: standalone tooling).  Simulation code allocates through
#: :meth:`repro.sim.engine.Simulator.alloc_packet`, which draws uids from
#: a per-``Simulator`` counter so two back-to-back runs in one process
#: number their packets identically.
_uid = itertools.count(1)

#: Bytes of TCP/IP header charged to every packet (40 per the paper's
#: "40 TCP/IP bytes" minimum-size figure).
IP_TCP_HEADER = 40

#: Bytes of capability shim charged to packets that carry one ("20
#: capability bytes" in Section 6).
CAPABILITY_HEADER = 20


class Packet:
    """One datagram in flight.

    Attributes
    ----------
    src, dst:
        Integer addresses of the originating and destination hosts.
    size:
        Wire size in bytes; links serialize ``size * 8`` bits.
    proto:
        Transport label, e.g. ``"tcp"`` or ``"cbr"``.  Used only for
        host-side demux and tracing, never by routers.
    tcp:
        The TCP segment riding in this packet, if any.
    shim:
        Capability-layer payload (request / regular / renewal headers,
        SIFF marks, ...) or ``None`` for pure legacy traffic.
    demoted:
        Set by a router that could not validate the packet's capability;
        demoted packets are forwarded at legacy priority (Section 3.8).
    created:
        Simulated time the packet was created, for latency tracing.
    """

    __slots__ = (
        "uid",
        "src",
        "dst",
        "size",
        "proto",
        "tcp",
        "shim",
        "demoted",
        "created",
        "pooled",
        "in_pool",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        size: int,
        proto: str = "raw",
        tcp: Any = None,
        shim: Any = None,
        created: float = 0.0,
        uid: Optional[int] = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.uid = next(_uid) if uid is None else uid
        self.src = src
        self.dst = dst
        self.size = size
        self.proto = proto
        self.tcp = tcp
        self.shim = shim
        self.demoted = False
        self.created = created
        # ``pooled`` marks pool-eligible packets (allocated through a
        # simulator); ``in_pool`` guards against double release.
        self.pooled = False
        self.in_pool = False

    @property
    def flow(self) -> Tuple[int, int]:
        """The paper defines a flow on a sender-to-destination basis."""
        return (self.src, self.dst)

    def reply_addr(self) -> Tuple[int, int]:
        """(src, dst) of a packet answering this one."""
        return (self.dst, self.src)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = type(self.shim).__name__ if self.shim is not None else "legacy"
        flags = " demoted" if self.demoted else ""
        return (
            f"<Packet #{self.uid} {self.src}->{self.dst} {self.size}B "
            f"{self.proto}/{kind}{flags}>"
        )


def shim_overhead(shim: Optional[Any]) -> int:
    """Header bytes charged for a capability shim (0 for legacy packets)."""
    return CAPABILITY_HEADER if shim is not None else 0


class PacketPool:
    """Free-list recycling of :class:`Packet` objects, one pool per
    :class:`~repro.sim.engine.Simulator`.

    Ownership rules (see DESIGN.md "Fast path & perf budget"):

    * A packet has exactly one owner at a time: the agent that allocated
      it, then the link/qdisc holding it, then the receiving node.
    * Only the terminal owner releases — a host after transport dispatch,
      a router when the forward failed (processor verdict, no route, or
      ``link.send()`` returning ``False``).  Queued and in-flight packets
      are never released.
    * Hooks observing a packet (``drop_hook``, classify, a scheme's own
      queue hooks) run synchronously before release and must not retain
      it.

    Releasing is optional: an unreleased packet is garbage-collected as
    before, the pool just loses the reuse.  Double-release is a hard
    error because a recycled packet with two owners corrupts simulation
    state invisibly.
    """

    __slots__ = ("_free",)

    def __init__(self) -> None:
        self._free: List[Packet] = []

    def acquire(
        self,
        uid: int,
        src: int,
        dst: int,
        size: int,
        proto: str = "raw",
        tcp: Any = None,
        shim: Any = None,
        created: float = 0.0,
    ) -> Packet:
        """Build a fresh pool-eligible packet: the miss path.  A hit is
        served by :meth:`~repro.sim.engine.Simulator.alloc_packet` itself,
        which pops ``_free`` and refills the packet in place rather than
        pay a second call per allocation."""
        # repro: allow-p002 — the pool's own miss branch; uid is caller-supplied
        pkt = Packet(src, dst, size, proto, tcp, shim, created, uid=uid)
        pkt.pooled = True
        return pkt

    def release(self, pkt: Packet) -> None:
        """Recycle ``pkt`` if this pool owns its lifecycle.

        Packets built directly via ``Packet(...)`` (tests, tools) are not
        ``pooled`` and pass through untouched — callers on the data path
        can therefore release unconditionally."""
        if not pkt.pooled:
            return
        if pkt.in_pool:
            raise ValueError(f"double release of {pkt!r}")
        pkt.in_pool = True
        # Drop payload references now so recycled packets never keep TCP
        # segments or capability headers alive across reuse.
        pkt.tcp = None
        pkt.shim = None
        self._free.append(pkt)
