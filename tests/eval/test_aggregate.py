"""Aggregated senders must be simulation-equivalent to expanded ones.

An :class:`AggregateHost` + :class:`AggregateSender` pair models k
separate flood hosts; at small k we can afford to run both forms and
require byte-identical :class:`RunResult`s (everything except the spec
key, which intentionally differs because ``aggregate`` is part of it).
"""

import pytest

from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, run_spec
from repro.sim import dumbbell_spec, tree_spec


def _pair(topology, **kwargs):
    results = []
    for aggregate in (True, False):
        spec = ScenarioSpec(topology=topology, aggregate=aggregate, **kwargs)
        data = run_spec(spec).to_dict()
        data.pop("spec_key")
        results.append(data)
    return results


CONFIG = ExperimentConfig(duration=3.0, n_users=3)
#: 100 kb/s per sender keeps 200 senders from swamping every scheme, so
#: some cases complete transfers (tva legacy 42, siff legacy 5).
TREE_CONFIG = ExperimentConfig(duration=3.0, attack_rate_bps=1e5)


class TestAggregateEquivalence:
    @pytest.mark.parametrize(
        "scheme", ["tva", "siff", "pushback", "internet", "netfence"])
    def test_legacy_flood_identical(self, scheme):
        agg, exp = _pair(
            dumbbell_spec(n_users=3, n_attackers=4),
            scheme=scheme, attack="legacy", n_attackers=4, config=CONFIG,
        )
        assert agg == exp

    @pytest.mark.parametrize("attack,policy", [
        ("request", "filtering"),
        ("colluder", "server"),
        ("authorized", "oracle"),
    ])
    def test_tva_attack_modes_identical(self, attack, policy):
        """Shim-mode floods exercise the full capability handshake —
        probes, per-member shims, per-member ingress tags."""
        agg, exp = _pair(
            dumbbell_spec(n_users=3, n_attackers=4),
            scheme="tva", attack=attack, n_attackers=4,
            config=CONFIG, policy=policy,
        )
        assert agg == exp

    def test_metrics_identical(self):
        agg, exp = _pair(
            dumbbell_spec(n_users=3, n_attackers=4),
            scheme="tva", attack="colluder", n_attackers=4,
            config=CONFIG, metrics=True,
        )
        assert agg == exp

    def test_multi_group_tree_identical(self):
        topology = tree_spec(branches=2, leaves_per_branch=1,
                             users_per_leaf=1, attackers_per_leaf=3)
        agg, exp = _pair(
            topology, scheme="tva", attack="legacy", n_attackers=6,
            config=CONFIG,
        )
        assert agg == exp

    @pytest.mark.parametrize("attack", ["legacy", "colluder"])
    @pytest.mark.parametrize(
        "scheme", ["tva", "siff", "pushback", "internet", "netfence"])
    def test_hundred_sender_tree_identical(self, scheme, attack):
        """Two leaves of 100 senders each: the expanded side is 200
        single-uplink hosts, cheap to route since they keep no table."""
        topology = tree_spec(branches=2, leaves_per_branch=1, users_per_leaf=2,
                             attackers_per_leaf=100, with_colluder=True)
        agg, exp = _pair(
            topology, scheme=scheme, attack=attack, n_attackers=200,
            config=TREE_CONFIG,
        )
        assert agg == exp

    def test_staggered_groups_identical(self):
        """Group staggering splits start times across aggregate members;
        the global sender index must line up with the expanded loop."""
        agg, exp = _pair(
            dumbbell_spec(n_users=2, n_attackers=6),
            scheme="tva", attack="legacy", n_attackers=6,
            config=CONFIG, attack_start=0.5, attack_groups=3,
            group_stagger=0.4,
        )
        assert agg == exp

    def test_aggregate_without_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            ScenarioSpec(scheme="tva", attack="legacy", n_attackers=4,
                         aggregate=True)


class TestIngressTagOnDemand:
    """Only a request at a trust-boundary router reads the ingress tag,
    so only it pays for resolving the member wire."""

    def _boundary(self):
        from repro.core import TvaScheme
        from repro.sim import Simulator, instantiate
        from repro.sim.link import AggregateLink

        sim = Simulator()
        net = instantiate(dumbbell_spec(n_users=2, n_attackers=5), sim,
                          TvaScheme(), aggregate=True)
        (uplink,) = [link for link in net.links
                     if isinstance(link, AggregateLink) and link.by_src]
        assert uplink.boundary_ingress
        assert uplink.dst.processor.core.trust_boundary
        resolved = []
        ingress_of = uplink.ingress_of

        def spy(pkt):
            resolved.append(pkt)
            return ingress_of(pkt)

        uplink.ingress_of = spy
        return sim, net, uplink, resolved

    def test_legacy_packet_never_resolves_its_ingress(self):
        sim, net, uplink, resolved = self._boundary()
        pkt = sim.alloc_packet(uplink.base_address + 3,
                               net.destination.address, 1000)
        uplink.dst.receive(pkt, uplink)
        assert resolved == []
        assert uplink.dst.processor.core.requests_processed == 0

    def test_request_still_gets_the_per_member_tag(self):
        from repro.core import RequestHeader, interface_tag

        sim, net, uplink, resolved = self._boundary()
        router = uplink.dst
        shim = RequestHeader()
        pkt = sim.alloc_packet(uplink.base_address + 3,
                               net.destination.address, 60, shim=shim)
        router.receive(pkt, uplink)
        assert resolved == [pkt]
        # The tag of the expanded topology's own "attacker3->R1" wire.
        assert shim.path_ids == [
            interface_tag(router.name, f"attacker3->{router.name}")
        ]

    def test_foreign_source_is_rejected_before_a_channel_is_built(self):
        """The one-lookup hit path leaves the range check to the miss."""
        sim, net, uplink, _ = self._boundary()
        built = len(uplink._channels)
        stray = sim.alloc_packet(uplink.base_address + uplink.count,
                                 net.destination.address, 1000)
        with pytest.raises(ValueError, match="outside aggregate"):
            uplink.send(stray)
        assert len(uplink._channels) == built
