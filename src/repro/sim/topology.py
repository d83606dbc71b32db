"""Topology construction: specs to live networks.

:func:`instantiate` turns a declarative
:class:`~repro.sim.topospec.TopologySpec` into a wired
:class:`Network` — nodes, links, shims, static routes — for any scheme
implementing :class:`SchemeFactory`.  With ``aggregate=True``, attacker
host groups collapse into :class:`~repro.sim.node.AggregateHost` nodes
(one node + one channelized access trunk per group), which is how
10^4–10^5-sender scenarios fit in one process.

:func:`build_dumbbell` constructs the simulation topology of Figure 7: ten
legitimate users and a variable number of attackers on the left, a 10 Mb/s
10 ms bottleneck in the middle, and the destination (plus an optional
colluder) on the right.  Access links add 10 ms each way, giving the
paper's 60 ms RTT.  It is a thin wrapper over
``instantiate(dumbbell_spec(...))`` and is construction-order equivalent
to the historical hand-rolled builder (the golden-run suite pins this);
:func:`build_chain`, :func:`build_parallel` and :func:`build_two_tier`
wrap their specs the same way.

Builders are scheme-parametric.  A *scheme* object supplies the queue
discipline for each link, the router processor, and the host shim; the four
schemes the paper compares (TVA, SIFF, pushback, legacy Internet) each
implement this factory protocol.  See :class:`SchemeFactory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple

from .engine import Simulator
from .link import AggregateLink, Link
from .node import AggregateHost, Host, HostShim, Node, Router, RouterProcessor
from .queues import DropTailQueue, Qdisc
from .routing import build_static_routes
from .topospec import (
    TopologySpec,
    chain_spec,
    dumbbell_spec,
    parallel_spec,
    two_tier_spec,
)


class SchemeFactory(Protocol):
    """The protocol a DoS-defense scheme implements to wire a topology.

    This used to be a concrete class whose default method bodies *were*
    the legacy Internet; those defaults now live on
    :class:`LegacyDefaults`, which every shipped scheme extends.  The
    protocol itself only states the contract, so a type checker (and a
    reader) can see exactly which hooks a scheme may override without
    inheriting behaviour implicitly.

    Queue sizing comes in two deliberate flavours:

    * :meth:`make_qdisc` builds the discipline actually installed on a
      link.  The legacy default is a *packet*-limited DropTail
      (ns-2-style ``limit_pkts=50``): large flood packets and small TCP
      control packets face the same loss rate, which is the behaviour
      the paper's Internet baseline needs.  It deliberately does **not**
      consult :meth:`queue_limit`.
    * :meth:`queue_limit` is the *byte* budget helper — roughly 50 ms of
      buffering at link rate — for schemes whose queues are byte-limited.
      TVA sizes its regular-class per-queue byte limits from it, and
      NetFence's byte-limited bottleneck FIFO (and its congestion-mark
      threshold) derives from it.  A scheme that keeps the packet-limited
      default simply never calls it.

    ``tests/sim/test_scheme_protocol.py`` pins this split so the two
    methods cannot silently drift back into looking redundant.
    """

    name: str

    def make_qdisc(self, link_kind: str, bandwidth_bps: float) -> Qdisc:
        """Queue discipline for one directed link.  ``link_kind`` is one
        of ``bottleneck``, ``access_up`` (host to router),
        ``access_down``, ``core`` (router to router, reverse)."""
        ...

    def queue_limit(self, link_kind: str, bandwidth_bps: float) -> int:
        """Byte budget for a byte-limited queue on such a link (see the
        class docstring for how this relates to :meth:`make_qdisc`)."""
        ...

    def make_router_processor(self, router_name: str, trust_boundary: bool) -> Optional[RouterProcessor]:
        """Per-router packet processor, or ``None`` for plain forwarding."""
        ...

    def make_host_shim(self, role: str) -> Optional[HostShim]:
        """``role`` is ``user``, ``attacker``, ``destination`` or ``colluder``."""
        ...

    def wire(self, net: "Dumbbell") -> None:
        """Post-construction hook (e.g. pushback registers the links whose
        drops it monitors)."""
        ...

    def reboot_router(self, router_name: str, now: float, rotate_secret: bool = True) -> bool:
        """Fault-injection hook: the named router rebooted at ``now``.

        A scheme that keeps per-router state (TVA's flow-state table and
        secrets, SIFF's marking secret, pushback's filters, NetFence's
        feedback secrets and rate limiters) clears it here;
        ``rotate_secret`` additionally discards any keying material,
        killing outstanding authorizations through that router.  Returns
        ``True`` when the scheme held state for the router.
        """
        ...

    def metric_items(self) -> Iterable[Tuple[str, Callable[[], float]]]:
        """Scheme-specific metrics as ``(name, read)`` pairs; the
        observability layer registers them under ``scheme.<name>``."""
        ...


class LegacyDefaults:
    """Concrete :class:`SchemeFactory` base with legacy-Internet defaults:
    FIFO queues, no router processing, no host shim, no state to reboot.

    Schemes extend this and override only the hooks they care about.
    """

    name = "legacy"

    #: ns-2-style DropTail packet limit used by the legacy Internet.
    queue_limit_pkts = 50

    def make_qdisc(self, link_kind: str, bandwidth_bps: float) -> Qdisc:
        # Packet-limited by design — NOT queue_limit()'s byte budget; see
        # the SchemeFactory docstring for the bytes-vs-packets split.
        return DropTailQueue(limit_bytes=None, limit_pkts=self.queue_limit_pkts)

    def queue_limit(self, link_kind: str, bandwidth_bps: float) -> int:
        # ~50 ms of buffering at link rate, floored at a handful of MTUs:
        # comparable to the paper's ns defaults of tens of packets.
        return max(15_000, int(bandwidth_bps / 8 * 0.05))

    def make_router_processor(self, router_name: str, trust_boundary: bool) -> Optional[RouterProcessor]:
        return None

    def make_host_shim(self, role: str) -> Optional[HostShim]:
        return None

    def wire(self, net: "Dumbbell") -> None:
        pass

    def reboot_router(self, router_name: str, now: float, rotate_secret: bool = True) -> bool:
        # The legacy Internet keeps no per-router state.
        return False

    def metric_items(self) -> Iterable[Tuple[str, Callable[[], float]]]:
        return ()


@dataclass
class Network:
    """A constructed network plus handles to everything in it.

    ``attacker_units`` lists attack senders at node granularity: plain
    per-sender :class:`Host` objects and/or :class:`AggregateHost`
    groups, in construction order (``attackers`` keeps only the expanded
    hosts, for backward compatibility).  ``spec`` is the
    :class:`~repro.sim.topospec.TopologySpec` this network was built
    from, when it came through :func:`instantiate`.
    """

    sim: Simulator
    users: List[Host] = field(default_factory=list)
    attackers: List[Host] = field(default_factory=list)
    destination: Optional[Host] = None
    colluder: Optional[Host] = None
    left: Optional[Router] = None
    right: Optional[Router] = None
    bottleneck: Optional[Link] = None
    reverse_bottleneck: Optional[Link] = None
    nodes: List[Node] = field(default_factory=list)
    links: List[Link] = field(default_factory=list)
    spec: Optional[TopologySpec] = None
    attacker_units: List[Node] = field(default_factory=list)
    aggregates: List[AggregateHost] = field(default_factory=list)

    def host_by_address(self, address: int) -> Optional[Host]:
        for node in self.nodes:
            if isinstance(node, Host) and node.address == address:
                return node
        return None

    def router_by_name(self, name: str) -> Router:
        """Resolve a router by name; raises ``KeyError`` so fault specs
        naming a nonexistent router fail fast."""
        for node in self.nodes:
            if isinstance(node, Router) and node.name == name:
                return node
        raise KeyError(f"no router named {name!r}")

    def links_by_name(self, name: str) -> List[Link]:
        """Resolve a fault-spec link name to concrete links.

        ``"bottleneck"`` and ``"reverse"`` are aliases for the dumbbell's
        two middle links; ``"A->B"`` names one direction exactly;
        ``"A<->B"`` names both directions of a duplex pair.  Raises
        ``KeyError`` when nothing matches.
        """
        if name == "bottleneck" and self.bottleneck is not None:
            return [self.bottleneck]
        if name == "reverse" and self.reverse_bottleneck is not None:
            return [self.reverse_bottleneck]
        if "<->" in name:
            a, b = (part.strip() for part in name.split("<->", 1))
            wanted = {(a, b), (b, a)}
            found = [l for l in self.links if (l.src.name, l.dst.name) in wanted]
        else:
            found = [l for l in self.links if l.name == name]
        if not found:
            raise KeyError(f"no link named {name!r}")
        return found


#: Backward-compatible alias: the Figure 7 network type grew into the
#: general Network; existing imports keep working.
Dumbbell = Network


# ---------------------------------------------------------------------------
# Spec instantiation
# ---------------------------------------------------------------------------

def _make_oneway(
    sim: Simulator,
    scheme: SchemeFactory,
    a: Node,
    b: Node,
    bandwidth_bps: float,
    delay: float,
    kind: str,
    boundary: bool,
    links: List[Link],
) -> Link:
    """One directed link ``a -> b``; an aggregate endpoint gets a trunk."""
    if isinstance(a, AggregateHost):
        link: Link = AggregateLink(
            sim, a, b, bandwidth_bps, delay,
            qdisc_factory=lambda: scheme.make_qdisc(kind, bandwidth_bps),
            base_address=a.address, count=a.count, by="src",
            member_prefix=a.member_prefix,
        )
    elif isinstance(b, AggregateHost):
        link = AggregateLink(
            sim, a, b, bandwidth_bps, delay,
            qdisc_factory=lambda: scheme.make_qdisc(kind, bandwidth_bps),
            base_address=b.address, count=b.count, by="dst",
            member_prefix=b.member_prefix,
        )
    else:
        link = Link(sim, a, b, bandwidth_bps, delay,
                    scheme.make_qdisc(kind, bandwidth_bps))
    link.boundary_ingress = boundary
    a.add_link(link)
    links.append(link)
    return link


def instantiate(
    spec: TopologySpec,
    sim: Simulator,
    scheme: SchemeFactory,
    aggregate: bool = False,
) -> Network:
    """Build a live :class:`Network` from a declarative spec.

    Construction order is deterministic and matters: routers and host
    groups are created in node-declaration order (host shims draw from
    the scheme's RNG, so shim creation order is part of the simulation's
    seed contract), then links in link-declaration order.  For the
    dumbbell spec this reproduces the historical ``build_dumbbell``
    construction exactly.

    With ``aggregate=True``, attacker groups with more than one member
    become a single :class:`~repro.sim.node.AggregateHost` whose access
    wire is a channelized :class:`~repro.sim.link.AggregateLink`; per-
    member shims are still created (in the same scheme-RNG order), so
    capability behaviour is identical to the expanded build.
    """
    net = Network(sim=sim, spec=spec)
    by_name: Dict[str, Node] = {}
    members: Dict[str, List[Host]] = {}
    bases = spec.base_addresses()

    for ns in spec.nodes:
        if ns.kind == "router":
            processor = (
                scheme.make_router_processor(ns.name, ns.trust_boundary)
                if ns.scheme_enabled else None
            )
            router = Router(sim, ns.name, processor)
            by_name[ns.name] = router
            net.nodes.append(router)
            if net.left is None:
                net.left = router
            net.right = router
            continue
        if ns.count == 0:
            members[ns.name] = []
            continue
        base = bases[ns.name]
        if aggregate and ns.count > 1 and ns.role == "attacker":
            agg = AggregateHost(sim, ns.name, base, ns.count,
                                member_prefix=ns.name if ns.is_indexed else None)
            agg.set_shims(
                [scheme.make_host_shim(ns.role) for _ in range(ns.count)]
            )
            by_name[ns.name] = agg
            net.nodes.append(agg)
            net.aggregates.append(agg)
            net.attacker_units.append(agg)
            continue
        made: List[Host] = []
        for i in range(ns.count):
            host = Host(sim, ns.member_name(i), base + i,
                        shim=scheme.make_host_shim(ns.role))
            net.nodes.append(host)
            made.append(host)
        members[ns.name] = made
        by_name[ns.name] = made[0]
        if ns.role == "user":
            net.users.extend(made)
        elif ns.role == "attacker":
            net.attackers.extend(made)
            net.attacker_units.extend(made)
        elif ns.role == "destination":
            net.destination = made[0]
        elif ns.role == "colluder":
            net.colluder = made[0]

    def endpoints(name: str) -> List[Node]:
        expanded = members.get(name)
        if expanded is not None:
            return list(expanded)
        return [by_name[name]]

    for ls in spec.links:
        src_nodes = endpoints(ls.src)
        dst_nodes = endpoints(ls.dst)
        if len(src_nodes) > 1 and len(dst_nodes) > 1:
            raise ValueError(
                f"link {ls.src}->{ls.dst}: group-to-group wires unsupported"
            )
        for a in src_nodes:
            for b in dst_nodes:
                fwd = _make_oneway(sim, scheme, a, b, ls.bandwidth_bps,
                                   ls.delay, ls.kind, ls.ingress_forward,
                                   net.links)
                back: Optional[Link] = None
                if ls.kind_back is not None:
                    back = _make_oneway(sim, scheme, b, a, ls.bandwidth_bps,
                                        ls.delay, ls.kind_back,
                                        ls.ingress_back, net.links)
                if ls.bottleneck and net.bottleneck is None:
                    net.bottleneck = fwd
                    net.reverse_bottleneck = back

    build_static_routes(net.nodes)
    scheme.wire(net)
    return net


def build_dumbbell(
    sim: Simulator,
    scheme: SchemeFactory,
    n_users: int = 10,
    n_attackers: int = 10,
    bottleneck_bps: float = 10e6,
    bottleneck_delay: float = 0.010,
    access_bps: float = 100e6,
    access_delay: float = 0.010,
    with_colluder: bool = True,
) -> Network:
    """Build the Figure 7 dumbbell for ``scheme``.

    Left router is the trust boundary where path identifiers are stamped
    (one ingress interface per host, so each sender gets a distinct tag,
    matching the paper's "AS edge" behaviour).
    """
    return instantiate(
        dumbbell_spec(
            n_users=n_users,
            n_attackers=n_attackers,
            bottleneck_bps=bottleneck_bps,
            bottleneck_delay=bottleneck_delay,
            access_bps=access_bps,
            access_delay=access_delay,
            with_colluder=with_colluder,
        ),
        sim,
        scheme,
    )


def build_two_tier(
    sim: Simulator,
    scheme: SchemeFactory,
    n_sites: int = 4,
    hosts_per_site: int = 4,
    bottleneck_bps: float = 10e6,
    edge_bps: float = 100e6,
    access_bps: float = 100e6,
    delay: float = 0.005,
) -> Dumbbell:
    """A two-level sender tree exercising path-identifier semantics.

    Hosts sit behind *site* routers (stub networks below the trust
    boundary); sites connect to one edge router — the trust boundary —
    which aggregates into the core and the bottleneck.  The edge tags
    requests per site uplink, so every host of a site carries the same
    path identifier: "senders that share the same path identifier share
    fate, localizing the impact of an attack" (Section 3.2).  The core
    routers do not re-tag.

    ``net.users`` lists hosts site by site (``hosts_per_site`` hosts per
    site); the destination sits behind the far core router.
    """
    net = instantiate(
        two_tier_spec(n_sites=n_sites, hosts_per_site=hosts_per_site,
                      bottleneck_bps=bottleneck_bps, edge_bps=edge_bps,
                      access_bps=access_bps, delay=delay),
        sim,
        scheme,
    )
    # The handles name the bottleneck's ends, not the first/last router.
    net.left, net.right = net.router_by_name("C1"), net.router_by_name("C2")
    return net


def build_chain(
    sim: Simulator,
    scheme: SchemeFactory,
    n_routers: int = 3,
    n_hosts_per_end: int = 1,
    link_bps: float = 10e6,
    delay: float = 0.005,
) -> Dumbbell:
    """A linear chain of routers with hosts at each end.

    Used by tests and by the incremental-deployment example (Section 8):
    processors can be attached to only a subset of the routers.
    """
    return instantiate(
        chain_spec(n_routers=n_routers, n_hosts_per_end=n_hosts_per_end,
                   link_bps=link_bps, delay=delay),
        sim,
        scheme,
    )


def build_parallel(
    sim: Simulator,
    scheme: SchemeFactory,
    n_hosts: int = 2,
    link_bps: float = 10e6,
    access_bps: float = 100e6,
    delay: float = 0.005,
) -> Dumbbell:
    """Two equal-cost paths between the edges: R1 -> {RA | RB} -> R2.

    The topology for route-change experiments (Section 3.8): BFS breaks
    the tie deterministically in favour of RA, so taking ``R1<->RA`` down
    and rebuilding routes moves every flow onto RB — whose routers hold
    different secrets and no cached flow state, exactly the mid-flow path
    shift that demotes packets and forces re-requests.

    ``net.bottleneck`` is the initially used ``R1->RA`` link.
    """
    return instantiate(
        parallel_spec(n_hosts=n_hosts, link_bps=link_bps,
                      access_bps=access_bps, delay=delay),
        sim,
        scheme,
    )
