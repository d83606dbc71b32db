"""Tests for static routing and the topology builders."""

from collections import deque
from typing import Dict, List

import pytest

from repro.sim import (
    Host,
    Link,
    DropTailQueue,
    Packet,
    RoutingError,
    LegacyDefaults,
    Simulator,
    build_chain,
    build_dumbbell,
    build_static_routes,
)
from repro.sim import instantiate, topospec, tree_spec
from repro.sim.node import Node, Router
from repro.sim.routing import _block, _install, _installed


class TestStaticRoutes:
    def test_line_topology_routes(self):
        sim = Simulator()
        a = Host(sim, "a", 1)
        r1, r2 = Router(sim, "r1"), Router(sim, "r2")
        b = Host(sim, "b", 2)
        nodes = [a, r1, r2, b]
        for x, y in [(a, r1), (r1, r2), (r2, b)]:
            for src, dst in ((x, y), (y, x)):
                link = Link(sim, src, dst, 1e6, 0.001, DropTailQueue())
                src.add_link(link)
        build_static_routes(nodes)
        assert a.route_for(2).dst is r1
        assert r1.routing[2].dst is r2
        assert r2.routing[2].dst is b
        assert r2.routing[1].dst is r1

    def test_unreachable_host_raises(self):
        sim = Simulator()
        a = Host(sim, "a", 1)
        b = Host(sim, "b", 2)  # not connected
        with pytest.raises(RoutingError):
            build_static_routes([a, b])


class TestDumbbell:
    def test_figure7_shape(self):
        sim = Simulator()
        net = build_dumbbell(sim, LegacyDefaults(), n_users=10, n_attackers=5)
        assert len(net.users) == 10
        assert len(net.attackers) == 5
        assert net.destination is not None
        assert net.colluder is not None
        assert net.bottleneck.bandwidth_bps == 10e6

    def test_rtt_is_60ms(self):
        """10 ms access + 10 ms bottleneck + 10 ms access, each way."""
        sim = Simulator()
        net = build_dumbbell(sim, LegacyDefaults(), n_users=1, n_attackers=0)
        user, dest = net.users[0], net.destination
        got = []
        dest.bind("raw", 0, lambda pkt: dest.send(
            Packet(dest.address, pkt.src, size=40, proto="raw")))
        user.bind("raw", 0, lambda pkt: got.append(sim.now))
        user.send(Packet(user.address, dest.address, size=40, proto="raw"))
        sim.run()
        assert got[0] == pytest.approx(0.060, abs=0.002)

    def test_unique_addresses(self):
        sim = Simulator()
        net = build_dumbbell(sim, LegacyDefaults(), n_users=3, n_attackers=3)
        addrs = [h.address for h in net.users + net.attackers
                 + [net.destination, net.colluder]]
        assert len(addrs) == len(set(addrs))

    def test_without_colluder(self):
        sim = Simulator()
        net = build_dumbbell(sim, LegacyDefaults(), with_colluder=False)
        assert net.colluder is None

    def test_host_by_address(self):
        sim = Simulator()
        net = build_dumbbell(sim, LegacyDefaults(), n_users=2, n_attackers=0)
        user = net.users[1]
        assert net.host_by_address(user.address) is user
        assert net.host_by_address(9999) is None

    def test_cross_traffic_end_to_end(self):
        sim = Simulator()
        net = build_dumbbell(sim, LegacyDefaults(), n_users=2, n_attackers=1)
        got = []
        net.destination.bind("raw", 0, got.append)
        for host in net.users + net.attackers:
            host.send(Packet(host.address, net.destination.address, 100, "raw"))
        sim.run()
        assert len(got) == 3


class TestChain:
    def test_chain_connectivity(self):
        sim = Simulator()
        net = build_chain(sim, LegacyDefaults(), n_routers=4)
        got = []
        net.destination.bind("raw", 0, got.append)
        src = net.users[0]
        src.send(Packet(src.address, net.destination.address, 100, "raw"))
        sim.run()
        assert len(got) == 1

    def test_chain_router_count(self):
        sim = Simulator()
        net = build_chain(sim, LegacyDefaults(), n_routers=3)
        routers = [n for n in net.nodes if isinstance(n, Router)]
        assert len(routers) == 3


class TestEqualCostTieBreak:
    """Equal-cost routes must resolve by sorted link order, not by node
    construction/insertion order (which used to leak into the choice)."""

    @staticmethod
    def _diamond(sim, reverse_insertion):
        """src -- (RA | RB) -- dst diamond with two equal-cost paths."""
        src, dst = Host(sim, "src", 1), Host(sim, "dst", 2)
        ra, rb = Router(sim, "RA"), Router(sim, "RB")
        mids = [rb, ra] if reverse_insertion else [ra, rb]
        nodes = [src] + mids + [dst]
        for mid in mids:
            for a, b in ((src, mid), (mid, dst)):
                for x, y in ((a, b), (b, a)):
                    link = Link(sim, x, y, 1e6, 0.001, DropTailQueue())
                    x.add_link(link)
        build_static_routes(nodes)
        return src, dst

    def test_choice_is_insertion_order_independent(self):
        routes = []
        for reverse in (False, True):
            src, dst = self._diamond(Simulator(), reverse)
            routes.append((src.routing[2].dst.name, dst.routing[1].dst.name))
        assert routes[0] == routes[1]
        # sorted (src.name, dst.name, name) order prefers RA on both legs
        assert routes[0] == ("RA", "RA")


# ---------------------------------------------------------------------------
# Routes only where a choice is made
# ---------------------------------------------------------------------------

def reference_routes(nodes, strict=True):
    """The routing algorithm before single-uplink hosts default-routed:
    a full table on every node, O(hosts * nodes).  Kept verbatim as the
    oracle every router table must still match."""
    # Build reverse adjacency: for BFS from the destination we need, for each
    # node, the links that point *at* it.
    incoming: Dict[Node, List[Link]] = {node: [] for node in nodes}
    for node in nodes:
        for link in node.links_out:
            if link.up and link.dst in incoming:
                incoming[link.dst].append(link)
    for node in nodes:
        incoming[node].sort(key=lambda l: (l.src.name, l.dst.name, l.name))

    hosts = [node for node in nodes if isinstance(node, Host)]
    for host in hosts:
        lo, hi = _block(host)
        for node in nodes:
            if hi - lo == 1:
                node.routing.pop(lo, None)
            else:
                node.routing_ranges = [
                    entry for entry in node.routing_ranges if entry[0] != lo
                ]
        dist: Dict[Node, int] = {host: 0}
        frontier = deque([host])
        while frontier:
            cur = frontier.popleft()
            for link in incoming[cur]:
                prev = link.src
                if prev not in dist:
                    dist[prev] = dist[cur] + 1
                    _install(prev, lo, hi, link)
                    frontier.append(prev)
                elif dist[prev] == dist[cur] + 1 and not _installed(prev, lo, hi):
                    _install(prev, lo, hi, link)
        unreachable = [n.name for n in nodes if n is not host and n not in dist]
        if unreachable and strict:
            raise RoutingError(
                f"host {host.name} (addr {host.address}) unreachable from: {unreachable}"
            )


#: Every ``*_spec`` generator, at its default size.
GENERATORS = [getattr(topospec, name) for name in sorted(dir(topospec))
              if name.endswith("_spec")]


def _router_tables(nodes):
    return {node.name: (dict(node.routing), list(node.routing_ranges))
            for node in nodes if isinstance(node, Router)}


def _single_uplink_hosts(net):
    return [node for node in net.nodes
            if isinstance(node, Host) and len(node.links_out) == 1]


def _routes_both_ways(nodes, strict):
    """Router tables (or the RoutingError text) from the current
    algorithm, then from the reference, on the same live nodes."""
    out = []
    for build in (build_static_routes, reference_routes):
        try:
            build(nodes, strict=strict)
        except RoutingError as exc:
            out.append(str(exc))
        else:
            out.append(_router_tables(nodes))
    return out


class TestRoutesOnlyWhereAChoiceIsMade:
    @pytest.mark.parametrize("aggregate", [False, True], ids=["expanded", "aggregate"])
    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_router_tables_match_the_reference(self, generator, aggregate):
        net = instantiate(generator(), Simulator(), LegacyDefaults(),
                          aggregate=aggregate)
        built = _router_tables(net.nodes)
        reference_routes(net.nodes)
        assert built == _router_tables(net.nodes)
        for name in sorted(built):
            routing, ranges = built[name]
            assert routing or ranges, name

    @pytest.mark.parametrize("down", ["bottleneck", "uplink"])
    @pytest.mark.parametrize("aggregate", [False, True], ids=["expanded", "aggregate"])
    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_rebuild_after_set_down_matches_the_reference(self, generator,
                                                          aggregate, down):
        """A downed bottleneck, or one host's uplink (exactly one node
        cannot reach each other host): the relaxed rebuild matches, and
        a strict one gives the same tables or fails with the same text."""
        net = instantiate(generator(), Simulator(), LegacyDefaults(),
                          aggregate=aggregate)
        if down == "bottleneck":
            net.bottleneck.set_down()
        else:
            _single_uplink_hosts(net)[0].links_out[0].set_down()
        relaxed = _routes_both_ways(net.nodes, strict=False)
        assert relaxed[0] == relaxed[1]
        strict = _routes_both_ways(net.nodes, strict=True)
        assert strict[0] == strict[1]
        assert isinstance(strict[0], str) or down == "bottleneck"

    @pytest.mark.parametrize("aggregate", [False, True], ids=["expanded", "aggregate"])
    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_single_uplink_hosts_hold_no_entry(self, generator, aggregate):
        net = instantiate(generator(), Simulator(), LegacyDefaults(),
                          aggregate=aggregate)
        hosts = _single_uplink_hosts(net)
        assert hosts
        for host in hosts:
            assert host.routing == {} and host.routing_ranges == []
            assert host.route_for(net.destination.address) is host.links_out[0]

    def test_entries_are_linear_in_hosts(self):
        """An expanded 2 000-sender tree: routers hold one entry per host
        block, hosts hold none (the full-table build held ~hosts^2)."""
        spec = tree_spec(branches=2, leaves_per_branch=1, users_per_leaf=2,
                         attackers_per_leaf=1000)
        net = instantiate(spec, Simulator(), LegacyDefaults())
        routers = [n for n in net.nodes if isinstance(n, Router)]
        hosts = [n for n in net.nodes if isinstance(n, Host)]
        assert len(hosts) == spec.n_hosts() == 2005
        entries = sum(len(n.routing) + len(n.routing_ranges) for n in net.nodes)
        assert entries == len(routers) * len(hosts)
