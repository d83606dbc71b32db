"""Topology specs: generator shapes, instantiation, routing, round-trips."""

import json

import pytest

from repro.sim import (
    AggregateHost,
    AggregateLink,
    LinkSpec,
    NodeSpec,
    LegacyDefaults,
    Simulator,
    TopologySpec,
    as_graph_spec,
    asymmetric_spec,
    dumbbell_spec,
    fat_tree_spec,
    instantiate,
    partial_deployment_spec,
    tree_spec,
)
from repro.sim.node import Router


ALL_GENERATORS = (
    dumbbell_spec,
    tree_spec,
    fat_tree_spec,
    as_graph_spec,
    asymmetric_spec,
    partial_deployment_spec,
)


class TestSpecShapes:
    def test_dumbbell_counts(self):
        spec = dumbbell_spec(n_users=10, n_attackers=10)
        assert spec.n_routers() == 2
        assert spec.n_hosts() == 22  # 10 + 10 + destination + colluder
        assert len(spec.role_addresses("user")) == 10
        assert len(spec.role_addresses("attacker")) == 10
        assert len(spec.role_addresses("destination")) == 1
        assert len(spec.role_addresses("colluder")) == 1

    def test_dumbbell_addresses_match_build_order(self):
        # users 1..n, attackers next, then destination, then colluder —
        # the layout the filtering policy and goldens assume.
        spec = dumbbell_spec(n_users=3, n_attackers=2)
        assert list(spec.role_addresses("user")) == [1, 2, 3]
        assert list(spec.role_addresses("attacker")) == [4, 5]
        assert list(spec.role_addresses("destination")) == [6]
        assert list(spec.role_addresses("colluder")) == [7]

    def test_tree_counts(self):
        spec = tree_spec(branches=3, leaves_per_branch=2,
                         users_per_leaf=2, attackers_per_leaf=2)
        # root + 3 branches + 6 leaves + D
        assert spec.n_routers() == 11
        assert len(spec.role_addresses("user")) == 12
        assert len(spec.role_addresses("attacker")) == 12

    def test_fat_tree_counts(self):
        spec = fat_tree_spec(k=4, users_per_edge=1, attackers_per_edge=1)
        # 4 cores + 4 pods * (2 agg + 2 edge)
        assert spec.n_routers() == 20
        # destination's edge hosts nobody else: 7 of 8 edges have hosts
        assert len(spec.role_addresses("user")) == 7
        assert len(spec.role_addresses("attacker")) == 7

    def test_as_graph_counts(self):
        spec = as_graph_spec(n_transit=3, stubs_per_transit=2,
                             users_per_stub=2, attackers_per_stub=2)
        assert spec.n_routers() == 3 + 6
        # victim stub hosts only the destination: 5 populated stubs
        assert len(spec.role_addresses("user")) == 10
        assert len(spec.role_addresses("attacker")) == 10

    def test_partial_deployment_disables_processors(self):
        spec = partial_deployment_spec(n_routers=3, disabled=(1,))
        sim = Simulator()
        net = instantiate(spec, sim, _SchemeWithProcessors())
        procs = {n.name: n.processor for n in net.nodes
                 if isinstance(n, Router)}
        assert procs["R0"] is not None
        assert procs["R1"] is None
        assert procs["R2"] is not None


class _SchemeWithProcessors(LegacyDefaults):
    def make_router_processor(self, router_name, trust_boundary):
        from repro.sim.node import RouterProcessor

        return RouterProcessor()


class TestInstantiation:
    @pytest.mark.parametrize("generator", ALL_GENERATORS,
                             ids=lambda g: g.__name__)
    def test_builds_and_routes(self, generator):
        """Every generator instantiates, with full host reachability
        (build_static_routes raises on any unreachable pair)."""
        spec = generator()
        sim = Simulator()
        net = instantiate(spec, sim, LegacyDefaults())
        assert net.destination is not None
        assert net.bottleneck is not None
        routers = [n for n in net.nodes if isinstance(n, Router)]
        assert len(routers) == spec.n_routers()
        assert len(net.nodes) - len(routers) == spec.n_hosts()
        # every sender can route to the destination
        for host in net.users + net.attackers:
            assert host.route_for(net.destination.address) is not None

    def test_aggregate_collapses_attacker_groups(self):
        spec = tree_spec(branches=2, leaves_per_branch=1,
                         users_per_leaf=1, attackers_per_leaf=30)
        sim = Simulator()
        net = instantiate(spec, sim, LegacyDefaults(), aggregate=True)
        assert len(net.aggregates) == 2
        assert all(isinstance(a, AggregateHost) for a in net.aggregates)
        assert all(a.count == 30 for a in net.aggregates)
        # users stay expanded (they run real TCP transports)
        assert len(net.users) == 2
        trunks = [l for l in net.links if isinstance(l, AggregateLink)]
        assert len(trunks) == 4  # up + down per group

    def test_aggregate_routing_uses_range_entries(self):
        spec = dumbbell_spec(n_users=2, n_attackers=50)
        sim = Simulator()
        net = instantiate(spec, sim, LegacyDefaults(), aggregate=True)
        (agg,) = net.aggregates
        # one range entry covers all 50 addresses at the far router
        right = net.right
        for addr in (agg.address, agg.address + 49):
            assert right.route_for(addr) is not None
        assert all(addr not in right.routing
                   for addr in range(agg.address, agg.address + 50))

    def test_group_to_group_links_rejected(self):
        spec = TopologySpec(
            name="bad",
            nodes=(
                NodeSpec("a", role="user", count=2, indexed=True),
                NodeSpec("b", role="attacker", count=2, indexed=True),
                NodeSpec("d", role="destination", indexed=False),
            ),
            links=(
                LinkSpec("a", "b", 1e6, 0.001),
                LinkSpec("d", "a", 1e6, 0.001),
            ),
        )
        with pytest.raises(ValueError, match="group-to-group"):
            instantiate(spec, Simulator(), LegacyDefaults())


class TestRoundTrip:
    @pytest.mark.parametrize("generator", ALL_GENERATORS,
                             ids=lambda g: g.__name__)
    def test_json_round_trip(self, generator):
        spec = generator()
        data = json.loads(json.dumps(spec.to_dict()))
        again = TopologySpec.from_dict(data)
        assert again == spec
        assert again.canonical() == spec.canonical()

    @pytest.mark.parametrize("data,message", [
        ({}, "topology needs a 'name'"),
        ([], "topology must be a mapping, got list"),
    ], ids=["no-name", "list"])
    def test_malformed_dict_is_a_named_error(self, data, message):
        with pytest.raises(ValueError, match=message):
            TopologySpec.from_dict(data)

    @pytest.mark.parametrize("damage,message", [
        (lambda d: d["links"][0].update(bandwidth_bps=float("nan")),
         r"link R1->R2: bandwidth_bps must be finite and positive, got nan"),
        (lambda d: d["links"][0].update(bandwidth_bps="fast"),
         r"link R1->R2: bandwidth_bps must be finite and positive, got 'fast'"),
        (lambda d: d["links"][1].update(delay=float("inf")),
         r"link user->R1: delay must be finite and non-negative, got inf"),
        (lambda d: d["nodes"][2].update(count="x"),
         r"node 'user': count must be an int, got 'x'"),
        (lambda d: d["nodes"][2].update(count=True),
         r"node 'user': count must be an int, got True"),
        (lambda d: d.update(nodes=5),
         r"topology 'dumbbell': nodes must be a list of mappings, got int"),
        (lambda d: d["links"].__setitem__(1, "user->R1"),
         r"topology 'dumbbell': links\[1\] must be a mapping, got str"),
    ], ids=["nan-bandwidth", "str-bandwidth", "inf-delay", "str-count",
            "bool-count", "int-nodes", "str-link"])
    def test_malformed_value_is_a_named_error(self, damage, message):
        # Each used to build (NaN) or raise TypeError.
        data = dumbbell_spec(n_users=2, n_attackers=2).to_dict()
        damage(data)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TopologySpec.from_dict(data)

    def test_specs_are_hashable_and_stable(self):
        a = tree_spec()
        b = tree_spec()
        assert a == b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert tree_spec(branches=4) != a
