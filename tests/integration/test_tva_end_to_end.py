"""End-to-end TVA behaviour on real topologies.

These integration tests exercise the full stack — TCP over the host
capability layer over capability routers over fair-queued links — and
check the paper's qualitative claims at reduced scale so the suite stays
fast.  The full-scale curves live in benchmarks/.
"""

import random

import pytest

from repro.core import TvaKnobs, TvaScheme
from repro.core.params import SERVER_GRANT_BYTES
from repro.sim import Simulator, TransferLog, chain_spec, dumbbell_spec, instantiate
from repro.transport import (
    CbrFlood,
    PacketSink,
    RepeatingTransferClient,
    TcpListener,
)


def tva_scheme():
    return TvaScheme(TvaKnobs(request_fraction=0.01,
                              server_grant=(SERVER_GRANT_BYTES, 10)))


def run_dumbbell(
    n_users=5,
    n_attackers=0,
    attack_mode="legacy",
    attack_target="destination",
    duration=6.0,
    seed=1,
):
    sim = Simulator()
    scheme = tva_scheme()
    net = instantiate(dumbbell_spec(n_users=n_users, n_attackers=n_attackers),
                      sim, scheme)
    log = TransferLog()
    TcpListener(sim, net.destination, 80)
    PacketSink(net.destination, "cbr")
    PacketSink(net.colluder, "cbr")
    rng = random.Random(seed)
    for user in net.users:
        RepeatingTransferClient(sim, user, net.destination.address, 80,
                                nbytes=20_000, log=log,
                                start_at=rng.uniform(0, 0.3), stop_at=duration)
    target = (net.destination if attack_target == "destination" else net.colluder)
    for i, attacker in enumerate(net.attackers):
        CbrFlood(sim, attacker, target.address, rate_bps=1e6, pkt_size=1000,
                 mode=attack_mode, start_at=rng.uniform(0, 0.01), jitter=0.3,
                 rng=random.Random(seed * 100 + i))
    sim.run(until=duration)
    return scheme, net, log


class TestPeacetime:
    def test_transfers_complete_at_paper_speed(self):
        _, _, log = run_dumbbell()
        assert log.fraction_completed(4.0) == 1.0
        assert log.average_completion_time() == pytest.approx(0.31, abs=0.03)

    def test_capability_reused_across_connections(self):
        """One capability covers all connections between two hosts
        (Section 3.10): ~19 transfers but only one request."""
        scheme, net, log = run_dumbbell(n_users=1)
        user = net.users[0]
        assert user.shim.requests_sent == 1
        assert log.completed > 10

    def test_renewals_happen_inline(self):
        scheme, net, log = run_dumbbell(n_users=1, duration=8.0)
        # 256 KB budget, renewed at half: about one renewal per 6 transfers.
        assert scheme.router_cores["R1"].renewals > 0
        assert log.fraction_completed(6.0) == 1.0


class TestLegacyFloodImmunity:
    def test_20x_legacy_flood_has_no_effect(self):
        """Figure 8's TVA line: completion stays 100%, time stays ~0.31 s
        even when the flood is 2x the bottleneck."""
        _, _, log = run_dumbbell(n_attackers=20, attack_mode="legacy")
        assert log.fraction_completed(4.0) == 1.0
        assert log.average_completion_time() < 0.40


class TestRequestFloodImmunity:
    def test_request_flood_rate_limited_and_isolated(self):
        """Figure 9's TVA line: request floods are confined to the 1%
        request channel and fair-queued per path identifier."""
        scheme, net, log = run_dumbbell(n_attackers=20, attack_mode="request")
        assert log.fraction_completed(4.0) == 1.0
        assert log.average_completion_time() < 0.40
        # The flood was throttled: almost none of it reached the wire.
        bottleneck = net.bottleneck
        request_class = bottleneck.qdisc.children[0]
        assert request_class.drops > 1000


class TestColluderFloodFairness:
    def test_authorized_flood_shares_link_fairly(self):
        """Figure 10's TVA line: per-destination fair queuing gives the
        destination its share; transfers complete, slightly slower."""
        _, _, log = run_dumbbell(n_attackers=20, attack_mode="shim",
                                 attack_target="colluder", duration=8.0)
        assert log.fraction_completed(6.0) == 1.0
        assert log.average_completion_time() < 0.8


class TestBoundedState:
    def test_router_state_stays_bounded_under_many_flows(self):
        scheme, net, log = run_dumbbell(n_users=8, n_attackers=10,
                                        attack_mode="shim",
                                        attack_target="colluder")
        params = scheme.params
        for core in scheme.router_cores.values():
            assert len(core.state) <= params.state_bound_records(1e9)
            assert core.state.create_failures == 0


class TestIncrementalDeployment:
    def test_tva_chain_with_partial_deployment(self):
        """Section 8: capability routers deployed at some hops; legacy
        routers elsewhere still forward shim traffic untouched."""
        sim = Simulator()
        scheme = tva_scheme()
        net = instantiate(chain_spec(n_routers=3), sim, scheme)
        # Strip the middle router's processor: it becomes a legacy router.
        middle = [n for n in net.nodes if n.name == "R1"][0]
        middle.processor = None
        TcpListener(sim, net.destination, 80)
        log = TransferLog()
        RepeatingTransferClient(sim, net.users[0], net.destination.address,
                                80, nbytes=20_000, log=log, max_transfers=3)
        sim.run(until=5.0)
        assert log.fraction_completed() == 1.0


class TestDemotionPath:
    def test_demoted_packets_survive_when_legacy_class_is_idle(self):
        """Section 3.8: packets that fail the capability check are demoted
        to legacy priority, not dropped — they still arrive when there is
        no congestion, and the destination echoes the demotion."""
        sim = Simulator()
        scheme = tva_scheme()
        net = instantiate(chain_spec(n_routers=2), sim, scheme)
        from repro.core.header import RegularHeader
        from repro.sim import Packet

        got = []
        net.destination.bind("cbr", 0, got.append)
        src = net.users[0]
        pkt = Packet(src.address, net.destination.address, 100, "cbr",
                     shim=RegularHeader(flow_nonce=12345))
        src.send_raw(pkt)  # bogus nonce, no caps: will be demoted
        sim.run(until=1.0)
        assert len(got) == 1
        assert got[0].demoted
