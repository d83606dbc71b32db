"""Nodes: routers and hosts.

A :class:`Router` forwards packets along static routes and optionally runs a
scheme-specific :class:`RouterProcessor` (TVA capability checking, SIFF mark
verification, pushback filtering).  The processor sees every transit packet
*before* it is queued on the outgoing link, mirroring where the paper's
capability router logic sits (Figure 6).

A :class:`Host` is an endpoint.  Its transport agents register for incoming
packets; an optional :class:`HostShim` implements the capability layer the
paper deploys as a user-space proxy (Section 6), transparently rewriting
outgoing packets (attaching requests / capabilities) and interpreting
incoming ones (collecting grants, echoing demotions).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .engine import Simulator
from .link import Link
from .packet import Packet


class RouterProcessor:
    """Scheme hook run on every packet a router forwards.

    ``process`` may mutate the packet (stamp a pre-capability, mark it
    demoted) and returns ``False`` to drop it outright.
    """

    def process(self, pkt: Packet, router: "Router", in_link: Optional[Link], out_link: Link) -> bool:
        return True


class HostShim:
    """Capability layer at a host (the paper's inline proxy).

    ``on_send`` may rewrite the outgoing packet's shim; ``on_receive``
    consumes capability payloads and returns ``True`` when the packet should
    still be delivered to the transport layer (control-only packets return
    ``False``).
    """

    def attach(self, host: "Host") -> None:
        self.host = host

    def on_send(self, pkt: Packet) -> None:  # pragma: no cover - interface
        pass

    def on_receive(self, pkt: Packet) -> bool:  # pragma: no cover - interface
        return True

    def on_transport_timeout(self, peer: int) -> None:
        """Transport saw a retransmission timeout toward ``peer``; shims use
        this to re-acquire authorization when in-network state was lost."""

    def on_unexpected(self, pkt: Packet) -> None:
        """The host had no transport consumer for ``pkt`` — the
        "unexpected packets" misbehaviour signal of the paper's
        Section 3.3 server policy."""

    def authorized(self, peer: int) -> bool:
        """Whether this host currently holds a usable authorization to send
        to ``peer``.  Attack agents use it to time their floods."""
        return True


class Node:
    """Common base: a named entity with outgoing links and a routing table."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        #: destination address -> outgoing Link.  Kept by routers and by
        #: hosts with other than one outgoing link; a single-uplink host's
        #: table stays empty and it sends over its uplink (the default
        #: gateway) — see :func:`~repro.sim.routing.build_static_routes`.
        self.routing: Dict[int, Link] = {}
        #: (lo, hi, Link) route entries covering the address block
        #: ``lo <= addr < hi`` — one entry per reachable
        #: :class:`AggregateHost`, consulted only on a ``routing`` miss so
        #: the per-packet fast path is untouched on aggregate-free graphs.
        self.routing_ranges: List[tuple] = []
        self.links_out: List[Link] = []
        self.rx_packets = 0
        self.dropped_no_route = 0

    def add_link(self, link: Link) -> None:
        self.links_out.append(link)

    def receive(self, pkt: Packet, in_link: Optional[Link]) -> None:
        raise NotImplementedError

    def range_route(self, dst: int) -> Optional[Link]:
        for lo, hi, link in self.routing_ranges:
            if lo <= dst < hi:
                return link
        return None

    def route_for(self, dst: int) -> Optional[Link]:
        link = self.routing.get(dst)
        if link is None and self.routing_ranges:
            link = self.range_route(dst)
        return link

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Router(Node):
    """A store-and-forward router with an optional capability processor."""

    def __init__(self, sim: Simulator, name: str, processor: Optional[RouterProcessor] = None) -> None:
        super().__init__(sim, name)
        self.processor = processor
        self.dropped_by_processor = 0

    def receive(self, pkt: Packet, in_link: Optional[Link]) -> None:
        self.rx_packets += 1
        out_link = self.routing.get(pkt.dst)
        if out_link is None:
            if self.routing_ranges:
                out_link = self.range_route(pkt.dst)
            if out_link is None:
                self.dropped_no_route += 1
                self.sim.release_packet(pkt)
                return
        if self.processor is not None:
            if not self.processor.process(pkt, self, in_link, out_link):
                self.dropped_by_processor += 1
                self.sim.release_packet(pkt)
                return
        if not out_link.send(pkt):
            # Dropped at the queue (or the link is down): every observer
            # (drop hooks, fault counters) ran synchronously inside send,
            # so the router is the packet's terminal owner.
            self.sim.release_packet(pkt)


class Host(Node):
    """An endpoint with an address, transport demux, and optional shim."""

    def __init__(self, sim: Simulator, name: str, address: int, shim: Optional[HostShim] = None) -> None:
        super().__init__(sim, name)
        self.address = address
        self.shim = shim
        if shim is not None:
            shim.attach(self)
        #: (proto, local_port) -> handler(pkt); port 0 is the wildcard for a proto.
        self._handlers: Dict[tuple, Callable[[Packet], None]] = {}
        self._next_port = 1024
        self.delivered = 0
        self.undeliverable = 0

    # -- transport registration -----------------------------------------
    def allocate_port(self) -> int:
        self._next_port += 1
        return self._next_port

    def bind(self, proto: str, port: int, handler: Callable[[Packet], None]) -> None:
        self._handlers[(proto, port)] = handler

    def unbind(self, proto: str, port: int) -> None:
        self._handlers.pop((proto, port), None)

    def route_for(self, dst: int) -> Optional[Link]:
        """The link :meth:`send` and :meth:`send_raw` use toward ``dst``:
        the table entry, else the uplink."""
        link = self.routing.get(dst)
        if link is None and self.links_out:
            link = self.links_out[0]
        return link

    # -- data path --------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Send a packet originating at this host."""
        if self.shim is not None:
            self.shim.on_send(pkt)
        out_link = self.routing.get(pkt.dst)
        if out_link is None and self.links_out:
            out_link = self.links_out[0]  # default route over the uplink
        if out_link is None:
            self.dropped_no_route += 1
            self.sim.release_packet(pkt)
            return False
        if out_link.send(pkt):
            return True
        self.sim.release_packet(pkt)
        return False

    def send_raw(self, pkt: Packet) -> bool:
        """Send bypassing the shim — used by attack agents that emit legacy
        floods or hand-crafted request packets."""
        out_link = self.routing.get(pkt.dst)
        if out_link is None and self.links_out:
            out_link = self.links_out[0]
        if out_link is None:
            self.dropped_no_route += 1
            self.sim.release_packet(pkt)
            return False
        if out_link.send(pkt):
            return True
        self.sim.release_packet(pkt)
        return False

    def receive(self, pkt: Packet, in_link: Optional[Link]) -> None:
        self.rx_packets += 1
        if pkt.dst != self.address:
            self.undeliverable += 1
            self.sim.release_packet(pkt)
            return
        if self.shim is not None and not self.shim.on_receive(pkt):
            # Control-only packet, consumed by the shim.  Shims read the
            # capability payload synchronously and retain at most the
            # header objects, never the packet.
            self.sim.release_packet(pkt)
            return
        handler = self._dispatch(pkt)
        if handler is None:
            self.undeliverable += 1
            if self.shim is not None:
                self.shim.on_unexpected(pkt)
            self.sim.release_packet(pkt)
            return
        self.delivered += 1
        handler(pkt)
        self.sim.release_packet(pkt)

    def _dispatch(self, pkt: Packet) -> Optional[Callable[[Packet], None]]:
        if pkt.tcp is not None:
            handler = self._handlers.get(("tcp", pkt.tcp.dst_port))
            if handler is not None:
                return handler
        return self._handlers.get((pkt.proto, 0))


class _VirtualSender:
    """The host-shaped face of one member of an :class:`AggregateHost`.

    Host shims talk to their host through exactly four touchpoints —
    ``.sim``, ``.address``, ``.name``, and ``.send()`` — so a slotted
    proxy per member lets every virtual sender run an unmodified
    per-sender shim while sharing the aggregate's node, links, and
    routing state.
    """

    __slots__ = ("aggregate", "address", "name")

    def __init__(self, aggregate: "AggregateHost", index: int) -> None:
        self.aggregate = aggregate
        self.address = aggregate.address + index
        self.name = f"{aggregate.member_prefix}{index}"

    @property
    def sim(self) -> Simulator:
        return self.aggregate.sim

    def send(self, pkt: Packet) -> bool:
        return self.aggregate.send_virtual(self.address - self.aggregate.address, pkt)

    def send_raw(self, pkt: Packet) -> bool:
        return self.aggregate.send_raw(pkt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<virtual {self.name} addr={self.address}>"


class AggregateHost(Host):
    """One node standing in for ``count`` homogeneous sender hosts.

    Owns the address block ``[address, address + count)``.  Each member
    keeps its own shim (attached to a :class:`_VirtualSender` proxy) and
    its own access-link channel (see
    :class:`~repro.sim.link.AggregateLink`), so capability handshakes,
    path-identifier tags, and per-sender queueing are identical to the
    expanded topology — only the per-host ``Host``/``Link`` objects are
    shared, and each router holds one range entry for the block instead
    of ``count`` host entries (member hosts, single-uplink, hold none
    either way).  Members never bind transports:
    aggregation is for flood senders, whose incoming traffic is control
    packets (consumed by the shim) or unexpected.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: int,
        count: int,
        member_prefix: Optional[str] = None,
    ) -> None:
        if count < 1:
            raise ValueError("aggregate host needs at least one member")
        super().__init__(sim, name, address, shim=None)
        self.count = count
        self.member_prefix = member_prefix if member_prefix is not None else name
        #: Per-member shims (may be ``None`` per member for shim-less
        #: schemes); empty until :meth:`set_shims`.
        self.shims: List[Optional[HostShim]] = []
        self.virtuals: List[_VirtualSender] = [
            _VirtualSender(self, i) for i in range(count)
        ]

    def owns(self, address: int) -> bool:
        return self.address <= address < self.address + self.count

    def set_shims(self, shims: List[Optional[HostShim]]) -> None:
        """Install one shim per member (``None`` entries allowed)."""
        if len(shims) != self.count:
            raise ValueError(
                f"{self.name}: got {len(shims)} shims for {self.count} members"
            )
        self.shims = list(shims)
        for i, shim in enumerate(self.shims):
            if shim is not None:
                shim.attach(self.virtuals[i])

    def shim_for(self, index: int) -> Optional[HostShim]:
        return self.shims[index] if self.shims else None

    # -- data path ------------------------------------------------------
    def send_virtual(self, index: int, pkt: Packet) -> bool:
        """Send on behalf of member ``index``, through its shim — the
        aggregate's equivalent of ``Host.send`` on the expanded host."""
        shim = self.shim_for(index)
        if shim is not None:
            shim.on_send(pkt)
        return self.send_raw(pkt)

    def send(self, pkt: Packet) -> bool:
        raise TypeError(
            "AggregateHost has no single shim; use send_virtual(index, pkt) "
            "or a member's _VirtualSender"
        )

    def receive(self, pkt: Packet, in_link: Optional[Link]) -> None:
        self.rx_packets += 1
        index = pkt.dst - self.address
        if not 0 <= index < self.count:
            self.undeliverable += 1
            self.sim.release_packet(pkt)
            return
        shim = self.shim_for(index)
        if shim is not None and not shim.on_receive(pkt):
            # Control-only packet, consumed by the member's shim.
            self.sim.release_packet(pkt)
            return
        # Members bind no transports, exactly like expanded flood hosts.
        self.undeliverable += 1
        if shim is not None:
            shim.on_unexpected(pkt)
        self.sim.release_packet(pkt)
