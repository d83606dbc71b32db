"""Path-identifier fate sharing on the two-tier topology (Section 3.2).

"Senders that share the same path identifier share fate, localizing the
impact of an attack and providing an incentive for improved local
security."  A request flooder behind site S0 crowds the request queue of
S0's tag; its site-mates' handshakes suffer, while hosts behind the other
sites are untouched.
"""

import random

import pytest

from repro.core import RequestHeader, ServerPolicy, TvaKnobs, TvaScheme
from repro.core.policy import DestinationPolicy
from repro.sim import Simulator, TransferLog, instantiate, two_tier_spec
from repro.transport import CbrFlood, RepeatingTransferClient, TcpListener


class _NoRenewalSmallGrant(ServerPolicy):
    """Force hosts back to the request channel frequently so queueing of
    requests is observable in their transfer times."""

    def __init__(self):
        super().__init__(default_grant=(24 * 1024, 10))

    def authorize(self, src, now, renewal=False):
        if renewal:
            return None
        return super().authorize(src, now, renewal)


def run_two_tier(duration=12.0):
    sim = Simulator()
    scheme = TvaScheme(TvaKnobs(request_fraction=0.01),
                       destination_policy=_NoRenewalSmallGrant)
    net = instantiate(two_tier_spec(n_sites=3, hosts_per_site=3), sim, scheme)
    TcpListener(sim, net.destination, 80)
    logs = {}
    rng = random.Random(2)
    # users[0] is the flooder; users[1], users[2] are its site-mates
    # (site 0); users[3:] live behind other sites.
    for host in net.users[1:]:
        log = TransferLog()
        logs[host.name] = log
        RepeatingTransferClient(sim, host, net.destination.address, 80,
                                nbytes=20_000, log=log,
                                start_at=rng.uniform(0, 0.3),
                                stop_at=duration)
    flooder = net.users[0]
    CbrFlood(sim, flooder, net.destination.address, rate_bps=1e6,
             pkt_size=1000, mode="request", jitter=0.3,
             rng=random.Random(9))
    sim.run(until=duration)
    return scheme, net, logs


class TestFateSharing:
    @pytest.fixture(scope="class")
    def result(self):
        return run_two_tier()

    def test_other_sites_keep_making_progress(self, result):
        """Hosts behind other sites keep completing transfers throughout.
        (They are not perfectly "untouched": these hosts re-request
        constantly, and the 1% request channel is a shared resource — the
        paper's own point about short-flow regimes, Section 3.10.)"""
        _, net, logs = result
        for host in net.users[3:]:
            assert logs[host.name].completed >= 2, host.name

    def test_site_mates_share_the_flooders_fate(self, result):
        """The flooder's site-mates re-request through the same crowded
        path-identifier queue and make far less progress than hosts behind
        clean sites — attack impact is localized to the shared tag."""
        _, net, logs = result
        mates = [logs[h.name].completed for h in net.users[1:3]]
        others = [logs[h.name].completed for h in net.users[3:]]
        mates_avg = sum(mates) / len(mates)
        others_avg = sum(others) / len(others)
        assert others_avg >= 2 * mates_avg


class TestTwoTierTagging:
    def test_sites_get_one_tag_each(self):
        """All hosts of a site carry the same path identifier; different
        sites carry different ones."""
        sim = Simulator()
        scheme = TvaScheme()
        net = instantiate(two_tier_spec(n_sites=2, hosts_per_site=2), sim, scheme)
        seen = {}

        # Capture request headers as they reach the core bottleneck.
        orig = net.bottleneck.send

        def probe(pkt):
            if isinstance(pkt.shim, RequestHeader) and pkt.shim.path_ids:
                seen[pkt.src] = tuple(pkt.shim.path_ids)
            return orig(pkt)

        net.bottleneck.send = probe
        TcpListener(sim, net.destination, 80)
        for host in net.users:
            RepeatingTransferClient(sim, host, net.destination.address, 80,
                                    nbytes=2000, max_transfers=1)
        sim.run(until=2.0)
        assert len(seen) == 4
        h00, h01, h10, h11 = (net.users[i].address for i in range(4))
        assert seen[h00] == seen[h01]      # same site, same tag
        assert seen[h10] == seen[h11]
        assert seen[h00] != seen[h10]      # different sites differ

    def test_core_does_not_retag(self):
        """Exactly one tag accumulates on the way to the destination: the
        edge's; the cores leave the request alone."""
        sim = Simulator()
        scheme = TvaScheme()
        net = instantiate(two_tier_spec(n_sites=1, hosts_per_site=1), sim, scheme)
        captured = []
        orig = net.destination.receive

        def probe(pkt, link):
            if isinstance(pkt.shim, RequestHeader):
                captured.append(list(pkt.shim.path_ids))
            return orig(pkt, link)

        net.destination.receive = probe
        TcpListener(sim, net.destination, 80)
        RepeatingTransferClient(sim, net.users[0], net.destination.address,
                                80, nbytes=2000, max_transfers=1)
        sim.run(until=2.0)
        assert captured
        assert len(captured[0]) == 1

    def test_transfers_work_end_to_end(self):
        sim = Simulator()
        scheme = TvaScheme(TvaKnobs(server_grant=(256 * 1024, 10)))
        net = instantiate(two_tier_spec(), sim, scheme)
        TcpListener(sim, net.destination, 80)
        log = TransferLog()
        for host in net.users:
            RepeatingTransferClient(sim, host, net.destination.address, 80,
                                    nbytes=20_000, log=log, max_transfers=2)
        sim.run(until=5.0)
        assert log.fraction_completed() == 1.0
