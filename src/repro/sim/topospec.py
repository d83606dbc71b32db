"""Declarative topology specifications.

A :class:`TopologySpec` describes a network as plain data: routers and
host *groups* (:class:`NodeSpec`) plus directed or duplex wires
(:class:`LinkSpec`).  Specs are frozen, hashable, and JSON round-trip
losslessly, so they embed in :class:`~repro.eval.runner.ScenarioSpec`
and participate in the result-cache key.

The module is pure data — it never imports the simulator.  Turning a
spec into a live network (nodes, links, shims, routes) is
:func:`repro.sim.topology.instantiate`.

Generators cover the shapes the evaluation needs:

* :func:`dumbbell_spec` — the paper's Figure 7 dumbbell (ten users and
  the attackers behind one 10 Mb/s, 10 ms bottleneck; 60 ms RTT);
* :func:`chain_spec`, :func:`parallel_spec`, :func:`two_tier_spec` —
  the small shapes of the unit tests and examples: a router chain,
  two equal-cost paths for route changes, sites behind a tagging edge;
* :func:`tree_spec` — a multi-bottleneck aggregation tree (leaf sites
  feeding branch routers feeding a root, capacity narrowing upward);
* :func:`fat_tree_spec` — a k-ary fat-tree datacenter fabric;
* :func:`as_graph_spec` — an AS-like transit/stub graph: a ring of
  transit routers with chords, stub (access) routers hanging off them,
  host groups inside the stubs.

Addressing is deterministic: host groups receive consecutive address
blocks in node-declaration order, starting at 1.  The dumbbell spec
therefore reproduces the historical layout (users ``1..n_users``,
attackers next, then destination, then colluder) that the filtering
policy's suspect set relies on.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

#: Host roles a NodeSpec may carry (mirrors SchemeFactory.make_host_shim).
HOST_ROLES = ("user", "attacker", "destination", "colluder")

#: Link kinds understood by SchemeFactory.make_qdisc.
LINK_KINDS = ("bottleneck", "core", "access_up", "access_down")


#: Annotation -> the types a field so annotated must hold.
_FIELD_TYPES = {
    "str": (str,),
    "bool": (bool,),
    "Optional[str]": (str, type(None)),
    "Optional[bool]": (bool, type(None)),
}


def _check_field_types(spec: object, where: str) -> None:
    """Every ``str``/``bool`` field of ``spec`` holds that type, so a spec
    read from JSON stays hashable and compares as it prints."""
    for f in fields(spec):
        allowed = _FIELD_TYPES.get(f.type)
        value = getattr(spec, f.name)
        if allowed is not None and not isinstance(value, allowed):
            raise ValueError(f"{where}: {f.name} must be {f.type}, got {value!r}")


def _is_number(value: object) -> bool:
    """A finite ``int`` or ``float`` (a ``bool`` is not a number here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _entries(data: Mapping, key: str, cls: type, topology: object) -> tuple:
    """``data[key]`` (default empty) as a tuple of ``cls`` built from a
    list of mappings; any malformed part is a ``ValueError``."""
    raw = data.get(key, ())
    if not isinstance(raw, (list, tuple)):
        raise ValueError(
            f"topology {topology!r}: {key} must be a list of mappings, "
            f"got {type(raw).__name__}"
        )
    built = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise ValueError(
                f"topology {topology!r}: {key}[{i}] must be a mapping, "
                f"got {type(entry).__name__}"
            )
        try:
            built.append(cls(**entry))
        except TypeError as exc:  # a missing, unknown or non-string key
            raise ValueError(f"topology {topology!r}: {key}[{i}]: {exc}") from None
    return tuple(built)


@dataclass(frozen=True)
class NodeSpec:
    """One router, or one homogeneous group of hosts.

    ``count > 1`` declares a host *group*: members are named
    ``{name}{i}`` and receive consecutive addresses.  ``indexed`` forces
    (or suppresses) the numeric suffix for single-member groups —
    ``None`` means "suffix iff count > 1".  ``scheme_enabled=False`` on
    a router leaves it without a scheme processor (partial/mixed
    deployment, Section 8).
    """

    name: str
    kind: str = "host"  # "router" | "host"
    role: str = "user"
    count: int = 1
    trust_boundary: bool = False
    scheme_enabled: bool = True
    indexed: Optional[bool] = None

    def __post_init__(self) -> None:
        _check_field_types(self, f"node {self.name!r}")
        if self.kind not in ("router", "host"):
            raise ValueError(f"node {self.name!r}: unknown kind {self.kind!r}")
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            raise ValueError(
                f"node {self.name!r}: count must be an int, got {self.count!r}"
            )
        if self.count < 0:
            raise ValueError(f"node {self.name!r}: count must be >= 0")
        if self.kind == "router" and self.count != 1:
            raise ValueError(f"router {self.name!r}: routers cannot be grouped")
        if self.kind == "host" and self.role not in HOST_ROLES:
            raise ValueError(
                f"host {self.name!r}: unknown role {self.role!r}; "
                f"choose from {HOST_ROLES}"
            )

    @property
    def is_indexed(self) -> bool:
        """Whether members carry a numeric suffix (``user0`` vs ``user``)."""
        return self.count > 1 if self.indexed is None else self.indexed

    def member_name(self, i: int) -> str:
        return f"{self.name}{i}" if self.is_indexed else self.name


@dataclass(frozen=True)
class LinkSpec:
    """A wire between two named nodes (or a host group and a router).

    ``kind_back=None`` makes the wire unidirectional (asymmetric-path
    topologies).  ``boundary``/``boundary_back`` override the default
    trust-boundary-ingress derivation (``kind == "access_up"``) for
    inter-domain links that tag without being host access links.
    A host-group endpoint expands into one wire per member.
    """

    src: str
    dst: str
    bandwidth_bps: float
    delay: float
    kind: str = "core"
    kind_back: Optional[str] = "core"
    boundary: Optional[bool] = None
    boundary_back: Optional[bool] = None
    bottleneck: bool = False

    def __post_init__(self) -> None:
        _check_field_types(self, f"link {self.src!r}->{self.dst!r}")
        if not _is_number(self.bandwidth_bps) or self.bandwidth_bps <= 0:
            raise ValueError(
                f"link {self.src}->{self.dst}: bandwidth_bps must be finite "
                f"and positive, got {self.bandwidth_bps!r}"
            )
        if not _is_number(self.delay) or self.delay < 0:
            raise ValueError(
                f"link {self.src}->{self.dst}: delay must be finite and "
                f"non-negative, got {self.delay!r}"
            )
        if self.kind not in LINK_KINDS:
            raise ValueError(f"link {self.src}->{self.dst}: unknown kind {self.kind!r}")
        if self.kind_back is not None and self.kind_back not in LINK_KINDS:
            raise ValueError(
                f"link {self.src}->{self.dst}: unknown kind_back {self.kind_back!r}"
            )

    @property
    def ingress_forward(self) -> bool:
        return self.kind == "access_up" if self.boundary is None else self.boundary

    @property
    def ingress_back(self) -> bool:
        if self.boundary_back is None:
            return self.kind_back == "access_up"
        return self.boundary_back


@dataclass(frozen=True)
class TopologySpec:
    """A whole network as data: hashable, comparable, JSON-serializable."""

    name: str
    nodes: Tuple[NodeSpec, ...] = field(default_factory=tuple)
    links: Tuple[LinkSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        nodes = tuple(
            n if isinstance(n, NodeSpec) else NodeSpec(**n) for n in self.nodes
        )
        links = tuple(
            l if isinstance(l, LinkSpec) else LinkSpec(**l) for l in self.links
        )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "links", links)
        self._validate()

    # -- validation ------------------------------------------------------
    def _validate(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"topology {self.name!r}: duplicate node names {dupes}")
        known = set(names)
        for link in self.links:
            for end in (link.src, link.dst):
                if end not in known:
                    raise ValueError(
                        f"topology {self.name!r}: link endpoint {end!r} "
                        "names no node"
                    )
        for role in ("destination", "colluder"):
            members = self.role_count(role)
            if role == "destination" and members != 1:
                raise ValueError(
                    f"topology {self.name!r}: exactly one destination host "
                    f"required, found {members}"
                )
            if role == "colluder" and members > 1:
                raise ValueError(
                    f"topology {self.name!r}: at most one colluder, found {members}"
                )

    # -- structure accessors ---------------------------------------------
    def node(self, name: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.name == name:
                return spec
        raise KeyError(f"no node named {name!r}")

    def routers(self) -> List[NodeSpec]:
        return [n for n in self.nodes if n.kind == "router"]

    def host_groups(self) -> List[NodeSpec]:
        return [n for n in self.nodes if n.kind == "host"]

    def n_hosts(self) -> int:
        return sum(n.count for n in self.host_groups())

    def n_routers(self) -> int:
        return len(self.routers())

    def base_addresses(self) -> Dict[str, int]:
        """Group name -> first member address (declaration order, from 1)."""
        bases: Dict[str, int] = {}
        next_addr = 1
        for spec in self.nodes:
            if spec.kind == "host":
                bases[spec.name] = next_addr
                next_addr += spec.count
        return bases

    def addresses_for(self, name: str) -> range:
        base = self.base_addresses()[name]
        return range(base, base + self.node(name).count)

    def role_count(self, role: str) -> int:
        """How many hosts carry ``role``."""
        return sum(n.count for n in self.host_groups() if n.role == role)

    def role_addresses(self, role: str) -> List[int]:
        """Every host address carrying ``role``, ascending."""
        out: List[int] = []
        bases = self.base_addresses()
        for spec in self.host_groups():
            if spec.role == role:
                out.extend(range(bases[spec.name], bases[spec.name] + spec.count))
        return sorted(out)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        data = asdict(self)
        data["nodes"] = list(data["nodes"])
        data["links"] = list(data["links"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TopologySpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"topology must be a mapping, got {type(data).__name__}")
        if "name" not in data:
            raise ValueError("topology needs a 'name'")
        name = data["name"]
        if not isinstance(name, str):
            raise ValueError(f"topology name must be a string, got {name!r}")
        return cls(
            name=name,
            nodes=_entries(data, "nodes", NodeSpec, name),
            links=_entries(data, "links", LinkSpec, name),
        )

    def canonical(self) -> dict:
        """Alias of :meth:`to_dict`; the cache-key form."""
        return self.to_dict()


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def dumbbell_spec(
    n_users: int = 10,
    n_attackers: int = 10,
    bottleneck_bps: float = 10e6,
    bottleneck_delay: float = 0.010,
    access_bps: float = 100e6,
    access_delay: float = 0.010,
    with_colluder: bool = True,
) -> TopologySpec:
    """The Figure 7 dumbbell as a spec.

    ``R1`` is the trust boundary that stamps path identifiers, one
    ingress interface per host, so each sender gets a distinct tag (the
    paper's "AS edge").  Access links add 10 ms each way, giving the
    paper's 60 ms RTT.  Node, link and address order are pinned by the
    golden-run suite.
    """
    nodes: List[NodeSpec] = [
        NodeSpec("R1", kind="router", trust_boundary=True),
        NodeSpec("R2", kind="router", trust_boundary=True),
        NodeSpec("user", role="user", count=n_users, indexed=True),
        NodeSpec("attacker", role="attacker", count=n_attackers, indexed=True),
        NodeSpec("destination", role="destination", indexed=False),
    ]
    links: List[LinkSpec] = [
        LinkSpec("R1", "R2", bottleneck_bps, bottleneck_delay,
                 kind="bottleneck", kind_back="core", bottleneck=True),
        LinkSpec("user", "R1", access_bps, access_delay,
                 kind="access_up", kind_back="access_down"),
        LinkSpec("attacker", "R1", access_bps, access_delay,
                 kind="access_up", kind_back="access_down"),
        LinkSpec("destination", "R2", access_bps, access_delay,
                 kind="access_up", kind_back="access_down"),
    ]
    if with_colluder:
        nodes.append(NodeSpec("colluder", role="colluder", indexed=False))
        links.append(LinkSpec("colluder", "R2", access_bps, access_delay,
                              kind="access_up", kind_back="access_down"))
    return TopologySpec(name="dumbbell", nodes=tuple(nodes), links=tuple(links))


def _end_hosts(
    n_src: int, left: str, right: str, access_bps: float, delay: float
) -> Tuple[List[NodeSpec], List[LinkSpec]]:
    """``src0..`` users behind ``left`` and one ``dst`` behind ``right``."""
    access = dict(kind="access_up", kind_back="access_down")
    return (
        [NodeSpec("src", role="user", count=n_src, indexed=True),
         NodeSpec("dst", role="destination", indexed=False)],
        [LinkSpec("src", left, access_bps, delay, **access),
         LinkSpec("dst", right, access_bps, delay, **access)],
    )


def chain_spec(
    n_routers: int = 3,
    n_hosts_per_end: int = 1,
    link_bps: float = 10e6,
    delay: float = 0.005,
) -> TopologySpec:
    """A linear chain ``R0 .. R{n-1}`` with ``src*`` hosts on ``R0`` and
    ``dst`` on the last router; only ``R0`` is a trust boundary.  Every
    forward router link is bottleneck-kind; access links are ten times
    faster."""
    nodes = [NodeSpec(f"R{i}", kind="router", trust_boundary=(i == 0))
             for i in range(n_routers)]
    links = [LinkSpec(f"R{i}", f"R{i + 1}", link_bps, delay,
                      kind="bottleneck", kind_back="core", bottleneck=(i == 0))
             for i in range(n_routers - 1)]
    hosts, access = _end_hosts(n_hosts_per_end, "R0", f"R{n_routers - 1}",
                               link_bps * 10, delay)
    return TopologySpec(name="chain", nodes=tuple(nodes + hosts),
                        links=tuple(links + access))


def parallel_spec(
    n_hosts: int = 2,
    link_bps: float = 10e6,
    access_bps: float = 100e6,
    delay: float = 0.005,
) -> TopologySpec:
    """Two equal-cost paths between the edges: ``R1 -> {RA | RB} -> R2``,
    ``R1`` the trust boundary, ``R1->RA`` flagged as the bottleneck.

    The topology for route-change experiments (Section 3.8): routing
    breaks the tie in favour of RA, so taking ``R1<->RA`` down and
    rebuilding routes moves every flow onto RB, whose routers hold
    different secrets and no cached flow state."""
    nodes = [NodeSpec("R1", kind="router", trust_boundary=True),
             NodeSpec("RA", kind="router"), NodeSpec("RB", kind="router"),
             NodeSpec("R2", kind="router")]
    links = [LinkSpec(a, b, link_bps, delay, kind="bottleneck",
                      kind_back="core", bottleneck=(a, b) == ("R1", "RA"))
             for a, b in (("R1", "RA"), ("RA", "R2"), ("R1", "RB"), ("RB", "R2"))]
    hosts, access = _end_hosts(n_hosts, "R1", "R2", access_bps, delay)
    return TopologySpec(name="parallel", nodes=tuple(nodes + hosts),
                        links=tuple(links + access))


def two_tier_spec(
    n_sites: int = 4,
    hosts_per_site: int = 4,
    bottleneck_bps: float = 10e6,
    edge_bps: float = 100e6,
    access_bps: float = 100e6,
    delay: float = 0.005,
) -> TopologySpec:
    """Hosts ``h{s}.{h}`` behind plain site switches ``S{s}``, sites behind
    the tagging ``EDGE``, then ``EDGE - C1 = C2 - destination`` with
    ``C1->C2`` the bottleneck.  Only the site uplinks enter the trust
    domain: host links sit below the boundary and are never tagged.

    Every host of a site therefore carries the same path identifier:
    "senders that share the same path identifier share fate, localizing
    the impact of an attack" (Section 3.2).  Users are listed site by
    site."""
    nodes = [NodeSpec("EDGE", kind="router", trust_boundary=True),
             NodeSpec("C1", kind="router"),
             NodeSpec("C2", kind="router", trust_boundary=True)]
    links = [LinkSpec("EDGE", "C1", edge_bps, delay),
             LinkSpec("C1", "C2", bottleneck_bps, delay,
                      kind="bottleneck", kind_back="core", bottleneck=True)]
    for s in range(n_sites):
        nodes.append(NodeSpec(f"S{s}", kind="router", scheme_enabled=False))
        links.append(LinkSpec(f"S{s}", "EDGE", edge_bps, delay, boundary=True))
        nodes.append(NodeSpec(f"h{s}.", role="user", count=hosts_per_site,
                              indexed=True))
        links.append(LinkSpec(f"h{s}.", f"S{s}", access_bps, delay))
    nodes.append(NodeSpec("destination", role="destination", indexed=False))
    links.append(LinkSpec("destination", "C2", access_bps, delay,
                          kind="access_up", kind_back="access_down"))
    return TopologySpec(name="two_tier", nodes=tuple(nodes), links=tuple(links))


def tree_spec(
    branches: int = 3,
    leaves_per_branch: int = 2,
    users_per_leaf: int = 2,
    attackers_per_leaf: int = 2,
    root_bps: float = 10e6,
    branch_bps: float = 20e6,
    leaf_bps: float = 50e6,
    access_bps: float = 100e6,
    delay: float = 0.005,
    with_colluder: bool = False,
) -> TopologySpec:
    """A multi-bottleneck aggregation tree.

    Leaf routers (trust boundaries — the AS edge where requests are
    tagged) aggregate into branch routers, branches into a root, and
    the root reaches the destination over the narrowest link.  Capacity
    shrinks toward the root, so congestion can form at *every* level —
    the regime where single-bottleneck results are known to flip.
    """
    nodes: List[NodeSpec] = [NodeSpec("root", kind="router")]
    links: List[LinkSpec] = []
    for b in range(branches):
        branch = f"B{b}"
        nodes.append(NodeSpec(branch, kind="router"))
        links.append(LinkSpec(branch, "root", branch_bps, delay))
        for l in range(leaves_per_branch):
            leaf = f"L{b}.{l}"
            nodes.append(NodeSpec(leaf, kind="router", trust_boundary=True))
            links.append(LinkSpec(leaf, branch, leaf_bps, delay))
            if users_per_leaf:
                group = f"u{b}.{l}."
                nodes.append(NodeSpec(group, role="user",
                                      count=users_per_leaf, indexed=True))
                links.append(LinkSpec(group, leaf, access_bps, delay,
                                      kind="access_up", kind_back="access_down"))
            if attackers_per_leaf:
                group = f"a{b}.{l}."
                nodes.append(NodeSpec(group, role="attacker",
                                      count=attackers_per_leaf, indexed=True))
                links.append(LinkSpec(group, leaf, access_bps, delay,
                                      kind="access_up", kind_back="access_down"))
    nodes.append(NodeSpec("D", kind="router", trust_boundary=True))
    links.append(LinkSpec("root", "D", root_bps, delay,
                          kind="bottleneck", kind_back="core", bottleneck=True))
    nodes.append(NodeSpec("destination", role="destination", indexed=False))
    links.append(LinkSpec("destination", "D", access_bps, delay,
                          kind="access_up", kind_back="access_down"))
    if with_colluder:
        nodes.append(NodeSpec("colluder", role="colluder", indexed=False))
        links.append(LinkSpec("colluder", "D", access_bps, delay,
                              kind="access_up", kind_back="access_down"))
    return TopologySpec(name="tree", nodes=tuple(nodes), links=tuple(links))


def fat_tree_spec(
    k: int = 4,
    users_per_edge: int = 1,
    attackers_per_edge: int = 1,
    link_bps: float = 100e6,
    dest_bps: float = 10e6,
    access_bps: float = 100e6,
    delay: float = 0.001,
) -> TopologySpec:
    """A k-ary fat-tree datacenter fabric (k even).

    ``(k/2)^2`` core switches, ``k`` pods of ``k/2`` aggregation and
    ``k/2`` edge switches.  The destination hangs alone off pod 0's
    first edge switch over a ``dest_bps`` access link (the hotspot);
    user and attacker groups populate every other edge switch.  Edge
    switches are the trust boundary.  With full bisection bandwidth in
    the fabric, the only queue that builds is the victim's access
    downlink — the datacenter incast regime.
    """
    if k < 2 or k % 2:
        raise ValueError("fat-tree k must be even and >= 2")
    half = k // 2
    nodes: List[NodeSpec] = []
    links: List[LinkSpec] = []
    for c in range(half * half):
        nodes.append(NodeSpec(f"core{c}", kind="router"))
    for p in range(k):
        for a in range(half):
            agg = f"agg{p}.{a}"
            nodes.append(NodeSpec(agg, kind="router"))
            # Aggregation switch a of each pod reaches cores a*half..a*half+half-1.
            for c in range(half):
                links.append(LinkSpec(agg, f"core{a * half + c}", link_bps, delay))
        for e in range(half):
            edge = f"edge{p}.{e}"
            nodes.append(NodeSpec(edge, kind="router", trust_boundary=True))
            for a in range(half):
                links.append(LinkSpec(edge, f"agg{p}.{a}", link_bps, delay))
    for p in range(k):
        for e in range(half):
            edge = f"edge{p}.{e}"
            if p == 0 and e == 0:
                nodes.append(NodeSpec("destination", role="destination",
                                      indexed=False))
                # Hotspot: the victim's downlink, so the marked
                # (forward) direction runs edge -> destination.
                links.append(LinkSpec(edge, "destination", dest_bps, delay,
                                      kind="bottleneck", kind_back="core",
                                      bottleneck=True))
                continue
            if users_per_edge:
                group = f"u{p}.{e}."
                nodes.append(NodeSpec(group, role="user",
                                      count=users_per_edge, indexed=True))
                links.append(LinkSpec(group, edge, access_bps, delay,
                                      kind="access_up", kind_back="access_down"))
            if attackers_per_edge:
                group = f"a{p}.{e}."
                nodes.append(NodeSpec(group, role="attacker",
                                      count=attackers_per_edge, indexed=True))
                links.append(LinkSpec(group, edge, access_bps, delay,
                                      kind="access_up", kind_back="access_down"))
    return TopologySpec(name="fat_tree", nodes=tuple(nodes), links=tuple(links))


def as_graph_spec(
    n_transit: int = 3,
    stubs_per_transit: int = 2,
    users_per_stub: int = 2,
    attackers_per_stub: int = 2,
    transit_bps: float = 20e6,
    stub_bps: float = 10e6,
    access_bps: float = 100e6,
    transit_delay: float = 0.010,
    stub_delay: float = 0.005,
    with_colluder: bool = False,
) -> TopologySpec:
    """An AS-like transit/stub graph.

    Transit ASes form a ring with a chord from each to the next-but-one
    (so routing has real path diversity); stub ASes hang off each
    transit.  Stub routers are trust boundaries — the "AS edge" where
    TVA tags requests, so every stub's senders share fate, exactly the
    hierarchical path-identifier story of Section 3.2.

    The destination lives in stub 0 of transit 0 (and the optional
    colluder beside it); user and attacker groups populate every other
    stub, placing attack ingress at many points of the graph.
    """
    if n_transit < 2:
        raise ValueError("need at least two transit ASes")
    nodes: List[NodeSpec] = []
    links: List[LinkSpec] = []
    for t in range(n_transit):
        nodes.append(NodeSpec(f"T{t}", kind="router"))
    for t in range(n_transit):
        links.append(LinkSpec(f"T{t}", f"T{(t + 1) % n_transit}",
                              transit_bps, transit_delay))
    if n_transit > 3:
        for t in range(n_transit):
            links.append(LinkSpec(f"T{t}", f"T{(t + 2) % n_transit}",
                                  transit_bps, transit_delay))
    for t in range(n_transit):
        for s in range(stubs_per_transit):
            stub = f"S{t}.{s}"
            nodes.append(NodeSpec(stub, kind="router", trust_boundary=True))
            bottleneck = t == 0 and s == 0
            if bottleneck:
                # Hotspot: the transit -> victim-stub downlink, so the
                # marked (forward) direction runs toward the victim.
                links.append(LinkSpec(f"T{t}", stub, stub_bps, stub_delay,
                                      kind="bottleneck", kind_back="core",
                                      bottleneck=True))
            else:
                links.append(LinkSpec(stub, f"T{t}", stub_bps, stub_delay))
            if bottleneck:
                # The victim stub: destination (and colluder) only.
                nodes.append(NodeSpec("destination", role="destination",
                                      indexed=False))
                links.append(LinkSpec("destination", stub, access_bps,
                                      stub_delay, kind="access_up",
                                      kind_back="access_down"))
                if with_colluder:
                    nodes.append(NodeSpec("colluder", role="colluder",
                                          indexed=False))
                    links.append(LinkSpec("colluder", stub, access_bps,
                                          stub_delay, kind="access_up",
                                          kind_back="access_down"))
                continue
            if users_per_stub:
                group = f"u{t}.{s}."
                nodes.append(NodeSpec(group, role="user",
                                      count=users_per_stub, indexed=True))
                links.append(LinkSpec(group, stub, access_bps, stub_delay,
                                      kind="access_up", kind_back="access_down"))
            if attackers_per_stub:
                group = f"a{t}.{s}."
                nodes.append(NodeSpec(group, role="attacker",
                                      count=attackers_per_stub, indexed=True))
                links.append(LinkSpec(group, stub, access_bps, stub_delay,
                                      kind="access_up", kind_back="access_down"))
    return TopologySpec(name="as_graph", nodes=tuple(nodes), links=tuple(links))


def asymmetric_spec(
    n_users: int = 5,
    n_attackers: int = 5,
    forward_bps: float = 10e6,
    reverse_bps: float = 10e6,
    forward_delay: float = 0.005,
    reverse_delay: float = 0.025,
    access_bps: float = 100e6,
    access_delay: float = 0.005,
) -> TopologySpec:
    """Asymmetric forward/reverse paths: R1 -> RF -> R2 carries data,
    R2 -> RR -> R1 carries the (slower) return path.  Capability grants
    and TCP acks ride a different — higher-latency — route than the
    requests they answer, stressing the return-info design."""
    nodes = (
        NodeSpec("R1", kind="router", trust_boundary=True),
        NodeSpec("RF", kind="router"),
        NodeSpec("RR", kind="router"),
        NodeSpec("R2", kind="router", trust_boundary=True),
        NodeSpec("user", role="user", count=n_users, indexed=True),
        NodeSpec("attacker", role="attacker", count=n_attackers, indexed=True),
        NodeSpec("destination", role="destination", indexed=False),
    )
    links = (
        # Forward direction only: R1 -> RF -> R2.
        LinkSpec("R1", "RF", forward_bps, forward_delay,
                 kind="bottleneck", kind_back=None, bottleneck=True),
        LinkSpec("RF", "R2", forward_bps, forward_delay,
                 kind="core", kind_back=None),
        # Reverse direction only: R2 -> RR -> R1.
        LinkSpec("R2", "RR", reverse_bps, reverse_delay,
                 kind="core", kind_back=None),
        LinkSpec("RR", "R1", reverse_bps, reverse_delay,
                 kind="core", kind_back=None),
        LinkSpec("user", "R1", access_bps, access_delay,
                 kind="access_up", kind_back="access_down"),
        LinkSpec("attacker", "R1", access_bps, access_delay,
                 kind="access_up", kind_back="access_down"),
        LinkSpec("destination", "R2", access_bps, access_delay,
                 kind="access_up", kind_back="access_down"),
    )
    return TopologySpec(name="asymmetric", nodes=nodes, links=links)


def partial_deployment_spec(
    n_users: int = 5,
    n_attackers: int = 5,
    n_routers: int = 3,
    link_bps: float = 10e6,
    access_bps: float = 100e6,
    delay: float = 0.005,
    disabled: Tuple[int, ...] = (1,),
) -> TopologySpec:
    """A router chain with the scheme deployed on a subset of hops.

    Routers whose index appears in ``disabled`` run no scheme processor
    (they forward like legacy Internet routers), modelling incremental
    deployment (Section 8): capabilities are checked only where the
    scheme is present."""
    if n_routers < 2:
        raise ValueError("need at least two routers")
    nodes: List[NodeSpec] = [
        NodeSpec(f"R{i}", kind="router", trust_boundary=(i == 0),
                 scheme_enabled=(i not in disabled))
        for i in range(n_routers)
    ]
    links: List[LinkSpec] = [
        LinkSpec(f"R{i}", f"R{i + 1}", link_bps, delay,
                 kind="bottleneck" if i == 0 else "core", kind_back="core",
                 bottleneck=(i == 0))
        for i in range(n_routers - 1)
    ]
    nodes.append(NodeSpec("user", role="user", count=n_users, indexed=True))
    links.append(LinkSpec("user", "R0", access_bps, delay,
                          kind="access_up", kind_back="access_down"))
    nodes.append(NodeSpec("attacker", role="attacker", count=n_attackers,
                          indexed=True))
    links.append(LinkSpec("attacker", "R0", access_bps, delay,
                          kind="access_up", kind_back="access_down"))
    nodes.append(NodeSpec("destination", role="destination", indexed=False))
    links.append(LinkSpec("destination", f"R{n_routers - 1}", access_bps, delay,
                          kind="access_up", kind_back="access_down"))
    return TopologySpec(name="partial", nodes=tuple(nodes), links=tuple(links))
