"""Topology construction: specs to live networks.

:func:`instantiate` turns a declarative
:class:`~repro.sim.topospec.TopologySpec` into a wired
:class:`Network` — nodes, links, shims, static routes — for any scheme
implementing :class:`SchemeFactory`.  It is the one way to build a
network: the Figure 7 dumbbell is ``instantiate(dumbbell_spec(...), sim,
scheme)``, and every other shape comes from its own ``*_spec`` generator
in :mod:`repro.sim.topospec`.  With ``aggregate=True``, attacker
host groups collapse into :class:`~repro.sim.node.AggregateHost` nodes
(one node + one channelized access trunk per group), which is how
10^4–10^5-sender scenarios fit in one process.

Construction is scheme-parametric.  A *scheme* object supplies the queue
discipline for each link, the router processor, and the host shim; the
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
from .topospec import TopologySpec, chain_spec


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

    def wire(self, net: "Network") -> None:
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


@dataclass(frozen=True)
class SchemeKnobs:
    """Base of the per-scheme knob dataclasses.

    A scheme's knobs are the fields of its ``Knobs`` dataclass, declared
    next to the scheme that reads them: each field is the knob's one
    declaration and default, and ``__post_init__`` its one range check.
    ``ScenarioSpec.scheme_options`` and ``--scheme-opt`` set them by
    name.  ``seed`` and the destination policy are not knobs but
    keywords of the scheme's constructor.
    """

    def _require(self, knob: str, ok: bool, allowed: str) -> None:
        """Range check for ``__post_init__``: knob values arrive from
        ``--scheme-opt`` and spec files, so a bad one must fail when the
        spec is built, not inside a sweep worker."""
        if not ok:
            raise ValueError(
                f"{knob}={getattr(self, knob)!r} out of range, need {allowed}"
            )


@dataclass(frozen=True)
class InternetKnobs(SchemeKnobs):
    """The legacy Internet has no knobs."""


class LegacyDefaults:
    """Concrete :class:`SchemeFactory` base with legacy-Internet defaults:
    FIFO queues, no router processing, no host shim, no state to reboot.

    It is also the ``internet`` scheme itself: plain IP forwarding with
    ns-2-style 50-packet DropTail queues.  "With the Internet, legitimate
    traffic and attack traffic are treated alike" (Section 5.1).  Schemes
    extend this and override only the hooks they care about.

    Every scheme is built as ``Scheme(knobs=None, *, seed=42,
    destination_policy=None)``; ``knobs`` defaults to ``Scheme.Knobs()``.
    The legacy Internet keeps no seeded state and runs no destination
    policy, so it ignores both keywords.
    """

    name = "internet"
    Knobs = InternetKnobs

    #: ns-2-style DropTail packet limit used by the legacy Internet.
    queue_limit_pkts = 50

    def __init__(
        self,
        knobs: Optional[InternetKnobs] = None,
        *,
        seed: int = 42,
        destination_policy: Optional[Callable] = None,
    ) -> None:
        self.knobs = knobs or InternetKnobs()

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

    def wire(self, net: "Network") -> None:
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
    hosts, for backward compatibility).
    """

    sim: Simulator
    users: List[Host] = field(default_factory=list)
    attackers: List[Host] = field(default_factory=list)
    destination: Optional[Host] = None
    colluder: Optional[Host] = None
    bottleneck: Optional[Link] = None
    reverse_bottleneck: Optional[Link] = None
    nodes: List[Node] = field(default_factory=list)
    links: List[Link] = field(default_factory=list)
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
    seed contract), then links in link-declaration order.

    With ``aggregate=True``, attacker groups with more than one member
    become a single :class:`~repro.sim.node.AggregateHost` whose access
    wire is a channelized :class:`~repro.sim.link.AggregateLink`; per-
    member shims are still created (in the same scheme-RNG order), so
    capability behaviour is identical to the expanded build.
    """
    net = Network(sim=sim)
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



def build_chain(
    sim: Simulator,
    scheme: SchemeFactory,
    n_routers: int = 3,
    n_hosts_per_end: int = 1,
    link_bps: float = 10e6,
    delay: float = 0.005,
) -> Network:
    """``instantiate(chain_spec(...), sim, scheme)`` under its old name.

    Its only caller is ``benchmarks/e2e/micro.py``, which imports it from
    :mod:`repro.api` at module load; everything else builds through
    :func:`instantiate`.  The benchmark change of ROADMAP item 6(a) moves
    ``micro.py`` to ``instantiate(chain_spec(...))`` and deletes this.
    """
    return instantiate(
        chain_spec(n_routers=n_routers, n_hosts_per_end=n_hosts_per_end,
                   link_bps=link_bps, delay=delay),
        sim,
        scheme,
    )
