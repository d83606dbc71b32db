"""Tests for the TVA host capability layer (Sections 3.7, 4.2).

These drive the shim directly with a stub host, checking the sender-side
state machine (request -> grant -> nonce-only -> renewal) and the
destination-side duties (grant piggybacking, demotion echo, control
packets)."""

import pytest

from repro.core import (
    AlwaysGrant,
    RegularHeader,
    RequestHeader,
    SecretManager,
    ServerPolicy,
    TvaHostShim,
    capability_from_precapability,
    mint_precapability,
)
from repro.core.host import CONTROL_PACKET_SIZE
from repro.sim import Packet, Simulator


class StubHost:
    """Just enough host for a shim: a clock, an address, a send log."""

    def __init__(self, sim, address):
        self.sim = sim
        self.address = address
        self.sent = []

    def send(self, pkt):
        if self.shim is not None:
            self.shim.on_send(pkt)
        self.sent.append(pkt)
        return True


@pytest.fixture
def rig():
    sim = Simulator()
    host = StubHost(sim, address=1)
    shim = TvaHostShim(policy=AlwaysGrant(default_grant=(32 * 1024, 10)))
    host.shim = shim
    shim.attach(host)
    return sim, host, shim


def deliver_grant(sim, shim, peer=2, n=32 * 1024, t=10, nrouters=2):
    """Simulate receiving a grant from ``peer``."""
    secrets = [SecretManager(f"r{i}".encode()) for i in range(nrouters)]
    caps = [
        capability_from_precapability(
            mint_precapability(s, 1, peer, sim.now), n, t
        )
        for s in secrets
    ]
    from repro.core.header import ReturnInfo

    info = ReturnInfo(n_bytes=n, t_seconds=t, capabilities=caps)
    pkt = Packet(src=peer, dst=1, size=40, proto="tcp",
                 shim=RegularHeader(flow_nonce=1, return_info=info))
    shim.on_receive(pkt)
    return caps


def outgoing(host, size=1000, dst=2, proto="tcp"):
    pkt = Packet(src=host.address, dst=dst, size=size, proto=proto)
    host.send(pkt)
    return pkt


class TestNonceStream:
    def test_nonces_are_the_seeded_stream_built_on_first_grant(self):
        import random

        from repro.core.host import _NONCE_MAX

        seed = 0xC0FFEE
        sim = Simulator()
        host = StubHost(sim, address=1)
        shim = TvaHostShim(policy=AlwaysGrant(), seed=seed)
        host.shim = shim
        shim.attach(host)
        outgoing(host)  # a request: sending draws nothing
        assert shim._rng is None  # no generator before the first grant
        reference = random.Random(seed)
        for _ in range(3):
            deliver_grant(sim, shim)
            assert shim._sender[2].nonce == reference.randint(0, _NONCE_MAX)


class TestSenderSide:
    def test_first_packet_is_a_request(self, rig):
        sim, host, shim = rig
        pkt = outgoing(host)
        assert isinstance(pkt.shim, RequestHeader)
        assert shim.requests_sent == 1

    def test_grant_install_and_regular_send(self, rig):
        sim, host, shim = rig
        deliver_grant(sim, shim)
        assert shim.grants_received == 1
        pkt = outgoing(host)
        assert isinstance(pkt.shim, RegularHeader)
        assert pkt.shim.capabilities  # first packet carries the list
        pkt2 = outgoing(host)
        # Immediately after, the router cache model says state is hot.
        assert pkt2.shim.capabilities is None

    def test_wire_size_added(self, rig):
        sim, host, shim = rig
        pkt = outgoing(host, size=1000)
        assert pkt.size > 1000

    def test_budget_exhaustion_falls_back_to_request(self, rig):
        sim, host, shim = rig
        deliver_grant(sim, shim, n=4096)
        outgoing(host, size=3000)
        pkt = outgoing(host, size=3000)  # would exceed 4 KB budget
        assert isinstance(pkt.shim, RequestHeader)

    def test_time_expiry_falls_back_to_request(self, rig):
        sim, host, shim = rig
        deliver_grant(sim, shim, t=10)
        sim.run(until=11.0)
        pkt = outgoing(host)
        assert isinstance(pkt.shim, RequestHeader)

    def test_renewal_flag_set_at_threshold(self, rig):
        sim, host, shim = rig
        deliver_grant(sim, shim, n=32 * 1024)
        sent = 0
        renewal_seen = False
        while sent < 30 * 1024:
            pkt = outgoing(host, size=1500)
            sent += pkt.size
            if isinstance(pkt.shim, RegularHeader) and pkt.shim.renewal:
                renewal_seen = True
                assert pkt.shim.capabilities  # renewals carry the caps list
                break
        assert renewal_seen

    def test_cache_eviction_model_reattaches_caps(self, rig):
        """Section 3.7: after an idle gap long enough for routers to evict,
        the sender sends capabilities again."""
        sim, host, shim = rig
        deliver_grant(sim, shim, n=32 * 1024, t=10)
        outgoing(host, size=1000)  # ttl model: ~1000*10/32768 = 0.3 s
        sim.run(until=sim.now + 2.0)
        pkt = outgoing(host, size=1000)
        assert isinstance(pkt.shim, RegularHeader)
        assert pkt.shim.capabilities is not None

    def test_transport_timeout_reattaches_caps(self, rig):
        sim, host, shim = rig
        deliver_grant(sim, shim)
        outgoing(host)
        outgoing(host)
        shim.on_transport_timeout(2)
        pkt = outgoing(host)
        assert pkt.shim.capabilities is not None

    def test_demotion_notice_reattaches_caps(self, rig):
        """A demotion long after the last caps-bearing packet means router
        cache loss: re-send the capability list with the next packet."""
        sim, host, shim = rig
        deliver_grant(sim, shim)
        outgoing(host)
        state = shim._sender_state(2)
        # Silence the cache model so only the demotion echo can trigger.
        sim.run(until=2.0)
        state.cache_expiry = sim.now + 100.0
        state.caps_sent_at = -100.0
        assert outgoing(host).shim.capabilities is None  # steady state
        from repro.core.header import ReturnInfo

        state.caps_sent_at = -100.0
        notice = Packet(src=2, dst=1, size=40, proto="tcp",
                        shim=RegularHeader(flow_nonce=0,
                                           return_info=ReturnInfo(demotion=True)))
        shim.on_receive(notice)
        pkt = outgoing(host)
        assert pkt.shim.capabilities is not None

    def test_repeated_demotions_after_sending_caps_mean_dead_caps(self, rig):
        """Demotions that keep arriving while we are already sending the
        full list mean the capabilities no longer validate (router
        restart, Section 3.8): after three strikes, fall back to a fresh
        request.  A single strike is tolerated as a transient."""
        sim, host, shim = rig
        deliver_grant(sim, shim)
        from repro.core.header import ReturnInfo

        def notice():
            shim.on_receive(Packet(
                src=2, dst=1, size=40, proto="tcp",
                shim=RegularHeader(flow_nonce=0,
                                   return_info=ReturnInfo(demotion=True))))

        pkt = outgoing(host)
        assert pkt.shim.capabilities is not None  # caps just sent
        notice()
        # One strike: still authorized, caps re-sent.
        assert isinstance(outgoing(host).shim, RegularHeader)
        notice()
        assert isinstance(outgoing(host).shim, RegularHeader)
        notice()
        # Third strike: the capabilities are dead; re-request.
        assert isinstance(outgoing(host).shim, RequestHeader)

    def test_nonce_changes_per_grant(self, rig):
        sim, host, shim = rig
        deliver_grant(sim, shim)
        first = outgoing(host).shim.flow_nonce
        deliver_grant(sim, shim)
        second = outgoing(host).shim.flow_nonce
        assert first != second


class TestDestinationSide:
    def test_request_answered_with_grant_on_next_packet(self, rig):
        sim, host, shim = rig
        secrets = SecretManager(b"r0")
        req = RequestHeader(precapabilities=[mint_precapability(secrets, 2, 1, 0.0)])
        shim.on_receive(Packet(src=2, dst=1, size=60, proto="tcp", shim=req))
        pkt = outgoing(host, dst=2)
        info = pkt.shim.return_info
        assert info is not None and info.has_grant
        assert len(info.capabilities) == 1

    def test_refused_request_gets_no_reply_state(self, rig):
        sim, host, shim = rig
        shim.policy = ServerPolicy()
        shim.policy.report_misbehavior(2, 0.0)
        secrets = SecretManager(b"r0")
        req = RequestHeader(precapabilities=[mint_precapability(secrets, 2, 1, 0.0)])
        shim.on_receive(Packet(src=2, dst=1, size=60, proto="tcp", shim=req))
        pkt = outgoing(host, dst=2)
        assert pkt.shim.return_info is None
        # And no control packet fires either (refusals are silent).
        sim.run(until=1.0)
        assert all(p.proto != "tva-ctl" for p in host.sent)

    def test_control_packet_fires_without_transport_reply(self, rig):
        sim, host, shim = rig
        secrets = SecretManager(b"r0")
        req = RequestHeader(precapabilities=[mint_precapability(secrets, 2, 1, 0.0)])
        shim.on_receive(Packet(src=2, dst=1, size=60, proto="cbr", shim=req))
        sim.run(until=0.1)
        controls = [p for p in host.sent if p.proto == "tva-ctl"]
        assert len(controls) == 1
        assert controls[0].shim.return_info.has_grant

    def test_control_suppressed_when_piggybacked(self, rig):
        sim, host, shim = rig
        secrets = SecretManager(b"r0")
        req = RequestHeader(precapabilities=[mint_precapability(secrets, 2, 1, 0.0)])
        shim.on_receive(Packet(src=2, dst=1, size=60, proto="tcp", shim=req))
        outgoing(host, dst=2)  # grant rides this transport packet
        sim.run(until=0.1)
        assert all(p.proto != "tva-ctl" for p in host.sent)

    def test_demoted_packet_triggers_echo(self, rig):
        sim, host, shim = rig
        demoted = Packet(src=2, dst=1, size=1000, proto="tcp",
                         shim=RegularHeader(flow_nonce=5))
        demoted.demoted = True
        shim.on_receive(demoted)
        pkt = outgoing(host, dst=2)
        assert pkt.shim.return_info is not None
        assert pkt.shim.return_info.demotion

    def test_control_packets_not_delivered_to_transport(self, rig):
        sim, host, shim = rig
        ctl = Packet(src=2, dst=1, size=CONTROL_PACKET_SIZE, proto="tva-ctl",
                     shim=RequestHeader())
        assert shim.on_receive(ctl) is False

    def test_renewal_precaps_answered(self, rig):
        sim, host, shim = rig
        secrets = SecretManager(b"r0")
        shim_in = RegularHeader(flow_nonce=5, renewal=True)
        shim_in.new_precapabilities.append(mint_precapability(secrets, 2, 1, 0.0))
        shim.on_receive(Packet(src=2, dst=1, size=1000, proto="tcp", shim=shim_in))
        pkt = outgoing(host, dst=2)
        assert pkt.shim.return_info is not None and pkt.shim.return_info.has_grant
