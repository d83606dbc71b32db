"""Tests for the NetFence baseline (closed-loop congestion policing)."""

import pytest

from repro.baselines import NetFenceKnobs, NetFenceScheme
from repro.baselines.netfence import (
    NETFENCE_HEADER_BYTES,
    NF_CTL_PROTO,
    NetFenceFeedback,
    NetFenceHeader,
    NetFenceRouterProcessor,
    NetFenceHostShim,
    ensure_header,
    _feedback_mac,
)
from repro.core.policy import ClientPolicy, ServerPolicy
from repro.sim import Packet, Simulator, chain_spec, dumbbell_spec, instantiate
from repro.sim.queues import TokenBucket
from repro.transport import TcpListener, TcpSender


class FakeRouter:
    """Just enough router for processor unit tests."""

    def __init__(self, sim):
        self.sim = sim


class FakeLink:
    def __init__(self, boundary_ingress):
        self.boundary_ingress = boundary_ingress


class FakeHost:
    """Just enough host for shim unit tests."""

    def __init__(self, sim, address=7):
        self.sim = sim
        self.address = address
        self.sent = []

    def send(self, pkt):
        self.sent.append(pkt)


def advance(sim, until):
    sim.at(until, lambda: None)
    sim.run()


class TestFeedbackValidation:
    def setup_method(self):
        self.sim = Simulator()
        self.router = FakeRouter(self.sim)
        self.scheme = NetFenceScheme(seed=3)
        self.proc = NetFenceRouterProcessor("R1", self.scheme, trust_boundary=True)
        self.ingress = FakeLink(boundary_ingress=True)
        self.transit = FakeLink(boundary_ingress=False)

    def pkt(self, src=1, dst=2, size=100, proto="raw", shim=None):
        return Packet(src=src, dst=dst, size=size, proto=proto, shim=shim,
                      created=self.sim.now)

    def stamp(self, src=1):
        """Run one packet through the boundary and return its stamp."""
        pkt = self.pkt(src=src)
        assert self.proc.process(pkt, self.router, self.ingress, None)
        return pkt.shim.feedback

    def test_boundary_stamps_valid_mono_feedback(self):
        fb = self.stamp()
        assert fb.mark == "mono"
        assert fb.stamper == "R1"
        assert self.proc.stamped == 1
        assert self.proc._validate(fb, 1, self.sim.now)

    def test_header_bytes_charged_once(self):
        pkt = self.pkt()
        self.proc.process(pkt, self.router, self.ingress, None)
        assert pkt.size == 100 + NETFENCE_HEADER_BYTES
        self.proc.process(pkt, self.router, self.ingress, None)
        assert pkt.size == 100 + NETFENCE_HEADER_BYTES

    def test_forged_mac_rejected(self):
        fb = self.stamp()
        fb.mac ^= 1
        assert not self.proc._validate(fb, 1, self.sim.now)

    def test_mark_downgrade_without_remac_rejected(self):
        """An attacker flipping cong back to mono invalidates the MAC."""
        fb = self.stamp()
        self.proc.mark_cong(self.pkt(), fb, "R1->R2", self.sim.now)
        assert fb.mark == "cong"
        fb.mark = "mono"  # keep the cong MAC, claim no congestion
        fb.bottleneck = ""
        assert not self.proc._validate(fb, 1, self.sim.now)

    def test_feedback_bound_to_sender(self):
        fb = self.stamp(src=1)
        assert not self.proc._validate(fb, 99, self.sim.now)

    def test_feedback_bound_to_stamper(self):
        other = NetFenceRouterProcessor("R2", self.scheme, trust_boundary=True)
        fb = self.stamp()
        assert not other._validate(fb, 1, self.sim.now)

    def test_stale_feedback_rejected(self):
        fb = self.stamp()
        expiry = self.scheme.knobs.feedback_expiry
        assert self.proc._validate(fb, 1, self.sim.now + expiry)
        assert not self.proc._validate(fb, 1, self.sim.now + expiry + 1.5)

    def test_presented_counters(self):
        fb = self.stamp()
        good = self.pkt(shim=NetFenceHeader(presented=fb.clone()))
        self.proc.process(good, self.router, self.ingress, None)
        assert self.proc.presented_valid == 1
        bad_fb = fb.clone()
        bad_fb.mac ^= 1
        bad = self.pkt(shim=NetFenceHeader(presented=bad_fb))
        self.proc.process(bad, self.router, self.ingress, None)
        assert self.proc.presented_invalid == 1


class TestCongestionMarking:
    def setup_method(self):
        self.sim = Simulator()
        self.router = FakeRouter(self.sim)
        self.scheme = NetFenceScheme(seed=3)
        self.proc = NetFenceRouterProcessor("R1", self.scheme, trust_boundary=True)
        self.ingress = FakeLink(boundary_ingress=True)

    def test_mark_cong_remacs_with_stampers_secret(self):
        pkt = Packet(src=1, dst=2, size=100, proto="raw", created=0.0)
        self.proc.process(pkt, self.router, self.ingress, None)
        fb = pkt.shim.feedback
        self.proc.mark_cong(pkt, fb, "R1->R2", self.sim.now)
        assert fb.mark == "cong"
        assert fb.bottleneck == "R1->R2"
        assert self.proc.cong_marks == 1
        # The upgraded stamp still validates at the access router.
        assert self.proc._validate(fb, 1, self.sim.now)

    def test_mark_cong_skips_rotated_out_stamps(self):
        # A timestamp from before t=0 has no resolvable secret; the stamp
        # is left alone and will go stale on its own.
        fb = NetFenceFeedback(mark="mono", ts=200, stamper="R1",
                              bottleneck="", mac=0)
        self.proc.mark_cong(Packet(src=1, dst=2, size=100, proto="raw"),
                            fb, "R1->R2", now=10.0)
        assert fb.mark == "mono"
        assert self.proc.cong_marks == 0


class TestRateLimiting:
    """The AIMD control loop at the access router."""

    def setup_method(self):
        self.sim = Simulator()
        self.router = FakeRouter(self.sim)
        self.scheme = NetFenceScheme(seed=3)
        self.proc = NetFenceRouterProcessor("R1", self.scheme, trust_boundary=True)
        self.ingress = FakeLink(boundary_ingress=True)

    def send(self, src=1, size=100, presented=None):
        shim = NetFenceHeader(presented=presented) if presented else None
        pkt = Packet(src=src, dst=2, size=size, proto="raw", shim=shim,
                     created=self.sim.now)
        ok = self.proc.process(pkt, self.router, self.ingress, None)
        return ok, pkt

    def test_robustness_limiter_appears_without_feedback(self):
        """Absence of fresh valid feedback is treated as congestion."""
        self.send()
        assert self.proc.limiters_active == 0  # inside the grace period
        advance(self.sim, 1.5)
        self.send()
        st = self.proc._senders[1]
        assert "" in st.limiters
        assert st.limiters[""].rate_bps == pytest.approx(
            self.scheme.knobs.init_rate_bps * (1 - self.scheme.knobs.beta)
        )

    def test_robustness_limiter_keeps_halving_to_the_floor(self):
        self.send()
        rate = None
        for i in range(2, 30):
            advance(self.sim, 1.1 * i)
            self.send()
            rate = self.proc._senders[1].limiters[""].rate_bps
        assert rate == pytest.approx(self.scheme.knobs.min_rate_bps)

    def test_fresh_feedback_releases_robustness_limiter(self):
        self.send()
        advance(self.sim, 1.5)
        self.send()
        assert "" in self.proc._senders[1].limiters
        # Echo loop closes: present freshly stamped mono feedback.
        _, pkt = self.send()
        advance(self.sim, 3.0)
        self.send(presented=pkt.shim.feedback.clone())
        assert "" not in self.proc._senders[1].limiters

    def test_cong_feedback_creates_keyed_limiter_and_halves(self):
        _, pkt = self.send()
        fb = pkt.shim.feedback
        self.proc.mark_cong(pkt, fb, "R1->R2", self.sim.now)
        advance(self.sim, 1.2)
        self.send(presented=fb.clone())
        st = self.proc._senders[1]
        assert set(st.limiters) == {"R1->R2"}
        assert st.limiters["R1->R2"].rate_bps == pytest.approx(
            self.scheme.knobs.init_rate_bps * (1 - self.scheme.knobs.beta)
        )

    def test_mono_intervals_grow_then_release_keyed_limiter(self):
        """Additive increase, and release only after release_intervals of
        mono-only evidence (shrew hysteresis)."""
        _, pkt = self.send()
        cong = pkt.shim.feedback
        self.proc.mark_cong(pkt, cong, "R1->R2", self.sim.now)
        advance(self.sim, 1.2)
        self.send(presented=cong.clone())
        _, stamp = self.send()  # fresh mono stamp for the next interval
        st = self.proc._senders[1]
        halved = st.limiters["R1->R2"].rate_bps
        k = self.scheme.knobs
        for i in range(1, k.release_intervals):
            advance(self.sim, 1.2 + 1.1 * i)
            # Evidence lands before the tick inside the same process()
            # call, so this one packet both presents mono and advances
            # the control loop.
            self.send(presented=stamp.shim.feedback.clone())
            assert "R1->R2" in st.limiters, f"released too early ({i})"
            assert st.limiters["R1->R2"].rate_bps == pytest.approx(
                min(k.max_rate_bps, halved + i * k.alpha_bps)
            )
            _, stamp = self.send()  # re-stamp mono
        advance(self.sim, 1.2 + 1.1 * k.release_intervals)
        self.send(presented=stamp.shim.feedback.clone())
        assert "R1->R2" not in st.limiters

    def test_policed_sender_drops_but_never_blocks_outright(self):
        scheme = NetFenceScheme(
            NetFenceKnobs(init_rate_bps=20e3, min_rate_bps=20e3), seed=3)
        proc = NetFenceRouterProcessor("R1", scheme, trust_boundary=True)
        pkt = Packet(src=1, dst=2, size=1500, proto="raw", created=0.0)
        proc.process(pkt, self.router, self.ingress, None)
        advance(self.sim, 1.5)
        dropped = delivered = 0
        for _ in range(20):
            p = Packet(src=1, dst=2, size=1500, proto="raw", created=self.sim.now)
            if proc.process(p, self.router, self.ingress, None):
                delivered += 1
            else:
                dropped += 1
        assert dropped > 0
        assert proc.policed_drops == dropped
        # At 20 kbps a 40-byte control packet still gets through within
        # a second, so the loop can always be re-established.
        advance(self.sim, 3.0)
        ctl = Packet(src=1, dst=2, size=40, proto="raw", created=self.sim.now)
        assert proc.process(ctl, self.router, self.ingress, None)

    def test_transit_direction_is_passive(self):
        transit = FakeLink(boundary_ingress=False)
        pkt = Packet(src=1, dst=2, size=1500, proto="raw", created=0.0)
        assert self.proc.process(pkt, self.router, transit, None)
        assert self.proc.stamped == 0
        assert pkt.shim is None

    def test_snooped_echo_counts_as_evidence(self):
        """A raw flooder that never presents feedback is still policed by
        the echo its receiver sends back through the access router."""
        _, pkt = self.send(src=1)
        fb = pkt.shim.feedback
        self.proc.mark_cong(pkt, fb, "R1->R2", self.sim.now)
        echo = Packet(src=2, dst=1, size=60, proto=NF_CTL_PROTO,
                      shim=NetFenceHeader(echo=fb.clone()), created=self.sim.now)
        transit = FakeLink(boundary_ingress=False)
        self.proc.process(echo, self.router, transit, None)
        assert self.proc.echoes_snooped == 1
        advance(self.sim, 1.2)
        self.send(src=1)
        assert "R1->R2" in self.proc._senders[1].limiters


class TestReboot:
    def test_reboot_clears_state_and_rotates_secret(self):
        sim = Simulator()
        scheme = NetFenceScheme(seed=3)
        instantiate(dumbbell_spec(n_users=1, n_attackers=1), sim, scheme)
        proc = scheme.cores["R1"]
        router = FakeRouter(sim)
        ingress = FakeLink(boundary_ingress=True)
        pkt = Packet(src=1, dst=2, size=100, proto="raw", created=0.0)
        proc.process(pkt, router, ingress, None)
        fb = pkt.shim.feedback
        assert proc._validate(fb, 1, sim.now)
        assert scheme.reboot_router("R1", now=1.0) is True
        assert proc.restarts == 1
        assert proc.limiters_active == 0
        assert not proc.local_senders
        # The rotated secret invalidates every outstanding stamp.
        assert not proc._validate(fb, 1, sim.now)
        assert scheme.reboot_router("nowhere", now=1.0) is False

    def test_reboot_without_rotation_keeps_macs_valid(self):
        sim = Simulator()
        scheme = NetFenceScheme(seed=3)
        instantiate(dumbbell_spec(n_users=1, n_attackers=1), sim, scheme)
        proc = scheme.cores["R1"]
        pkt = Packet(src=1, dst=2, size=100, proto="raw", created=0.0)
        proc.process(pkt, FakeRouter(sim), FakeLink(True), None)
        fb = pkt.shim.feedback
        assert scheme.reboot_router("R1", now=1.0, rotate_secret=False) is True
        assert proc._validate(fb, 1, sim.now)


class TestHostShim:
    def setup_method(self):
        self.sim = Simulator()
        self.shim = NetFenceHostShim(policy=ServerPolicy())
        self.shim.host = FakeHost(self.sim, address=7)

    def stamped_pkt(self, src=2, proto="raw"):
        fb = NetFenceFeedback(mark="mono", ts=0, stamper="R1",
                              bottleneck="", mac=123)
        return Packet(src=src, dst=7, size=100, proto=proto,
                      shim=NetFenceHeader(feedback=fb), created=self.sim.now)

    def test_receive_unwraps_inner_shim(self):
        inner = object()
        pkt = self.stamped_pkt()
        pkt.shim.inner = inner
        assert self.shim.on_receive(pkt) is True
        assert pkt.shim is inner

    def test_receive_schedules_one_echo(self):
        self.shim.on_receive(self.stamped_pkt())
        self.shim.on_receive(self.stamped_pkt())  # within ECHO_INTERVAL
        self.sim.run()
        assert self.shim.echoes_sent == 1
        [echo] = self.shim.host.sent
        assert echo.proto == NF_CTL_PROTO
        assert echo.dst == 2
        assert echo.shim.echo.mark == "mono"

    def test_echo_cadence_respects_interval(self):
        self.shim.on_receive(self.stamped_pkt())
        advance(self.sim, NetFenceHostShim.ECHO_INTERVAL + 0.01)
        self.shim.on_receive(self.stamped_pkt())
        self.sim.run()
        assert self.shim.echoes_sent == 2

    def test_unauthorized_peer_gets_no_echo(self):
        """A client-policy host only echoes to peers it contacted first —
        the Figure 9/11 feedback starvation mechanism."""
        shim = NetFenceHostShim(policy=ClientPolicy())
        shim.host = FakeHost(self.sim, address=7)
        pkt = self.stamped_pkt()
        shim.on_receive(pkt)
        self.sim.run()
        assert shim.echoes_sent == 0

    def test_ctl_packets_are_consumed_and_never_echoed(self):
        pkt = self.stamped_pkt(proto=NF_CTL_PROTO)
        assert self.shim.on_receive(pkt) is False
        self.sim.run()
        assert self.shim.echoes_sent == 0

    def test_send_presents_freshest_echo(self):
        echo_fb = NetFenceFeedback(mark="cong", ts=1, stamper="R1",
                                   bottleneck="L", mac=5)
        ctl = Packet(src=2, dst=7, size=60, proto=NF_CTL_PROTO,
                     shim=NetFenceHeader(echo=echo_fb), created=0.0)
        self.shim.on_receive(ctl)
        out = Packet(src=7, dst=2, size=100, proto="raw", created=0.0)
        self.shim.on_send(out)
        assert out.shim.presented.mark == "cong"
        assert out.shim.presented is not echo_fb  # presented a clone

    def test_always_authorized(self):
        assert self.shim.authorized(2)


class TestWiring:
    def test_wire_installs_mark_hooks_on_router_egress(self):
        sim = Simulator()
        scheme = NetFenceScheme(seed=3)
        net = instantiate(dumbbell_spec(n_users=2, n_attackers=2), sim, scheme)
        bottleneck = net.bottleneck
        q = bottleneck.qdisc
        assert q.mark_hook is not None
        assert q.mark_threshold_bytes == max(
            3000, int(q.limit_bytes * scheme.knobs.mark_threshold_fraction)
        )
        # Host-egress links are not marked (hosts are not routers).
        from repro.sim.node import Router

        host_links = [l for l in net.links
                      if not isinstance(l.src, Router)
                      and getattr(l, "qdisc", None) is not None]
        assert host_links
        assert all(l.qdisc.mark_hook is None for l in host_links)

    def test_queue_buildup_flips_stamp_to_cong(self):
        sim = Simulator()
        scheme = NetFenceScheme(seed=3)
        net = instantiate(dumbbell_spec(n_users=1, n_attackers=1), sim, scheme)
        q = net.bottleneck.qdisc
        proc = scheme.cores["R1"]
        router = FakeRouter(sim)
        ingress = FakeLink(boundary_ingress=True)
        # Fill the bottleneck past the mark threshold with stamped packets.
        marked = 0
        for _ in range(200):
            pkt = Packet(src=1, dst=2, size=1500, proto="raw", created=sim.now)
            if not proc.process(pkt, router, ingress, None):
                continue
            if q.enqueue(pkt) and pkt.shim.feedback.mark == "cong":
                marked += 1
        assert marked > 0
        assert proc.cong_marks == marked


class TestEndToEnd:
    def test_transfer_completes_over_netfence_chain(self):
        sim = Simulator()
        scheme = NetFenceScheme()
        net = instantiate(chain_spec(n_routers=2), sim, scheme)
        TcpListener(sim, net.destination, 80)
        done = []
        TcpSender(sim, net.users[0], net.destination.address, 80, 20_000,
                  on_complete=done.append).start()
        sim.run(until=8.0)
        assert done
        boundary = [p for p in scheme.cores.values() if p.stamped > 0]
        assert boundary
        # The closed loop actually closed: echoes flowed and validated.
        assert any(s.echoes_sent > 0 for s in scheme.shims)
        assert sum(p.presented_valid for p in scheme.cores.values()) > 0

    def test_metric_items_cover_every_core(self):
        sim = Simulator()
        scheme = NetFenceScheme()
        instantiate(dumbbell_spec(n_users=1, n_attackers=1), sim, scheme)
        names = [n for n, _ in scheme.metric_items()]
        assert len(names) == len(set(names))
        for core in scheme.cores:
            assert f"router.{core}.policed_drops" in names


class TestKnobValidation:
    def test_beta_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            NetFenceKnobs(beta=1.0)

    def test_min_rate_must_not_exceed_init_rate(self):
        with pytest.raises(ValueError):
            NetFenceKnobs(init_rate_bps=1e3, min_rate_bps=2e3)
