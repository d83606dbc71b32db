"""The Section 7 security analysis, as executable attacks.

Each test mounts one of the threats the paper analyzes and checks the
claimed defense property on the real pipeline.
"""

import pytest

from repro.core import (
    Capability,
    RegularHeader,
    RequestHeader,
    SecretManager,
    TvaRouterCore,
    capability_from_precapability,
    mint_precapability,
    validate_capability,
)
from repro.core.flowstate import FlowStateTable
from repro.core.router import LEGACY, REGULAR
from repro.core.header import RegularHeader as _RH


def make_router(name="R1", seed=None):
    return TvaRouterCore(
        name,
        SecretManager(seed or f"{name}-secret".encode()),
        FlowStateTable(1000),
        trust_boundary=True,
    )


def obtain_capability(router, src, dst, n=32 * 1024, t=10, now=100.0):
    shim = RequestHeader()
    router.process_request(src, dst, shim, now, "if0")
    return capability_from_precapability(shim.precapabilities[-1], n, t)


def send_regular(router, src, dst, caps, nonce=42, n=32 * 1024, t=10,
                 size=1000, now=100.1, renewal=False):
    shim = RegularHeader(flow_nonce=nonce, n_bytes=n, t_seconds=t,
                         capabilities=list(caps), renewal=renewal)
    shim.cap_ptr = 0
    verdict, _ = router.process(src, dst, size, shim, now)
    return verdict


class TestForgery:
    """"An attacker might try to obtain capabilities by breaking the
    hashing scheme." — 56-bit keyed hashes make blind forgery hopeless."""

    def test_random_capabilities_never_validate(self):
        router = make_router()
        secrets = router.secrets
        hits = 0
        for i in range(500):
            cap = Capability(timestamp=100 % 256, hash56=i * 2654435761 % (1 << 56))
            hits += validate_capability(secrets, 1, 2, cap, 32 * 1024, 10, 100.0)
        assert hits == 0

    def test_router_demotes_forged_traffic(self):
        router = make_router()
        forged = Capability(100 % 256, 12345)
        assert send_regular(router, 1, 2, [forged]) == LEGACY


class TestTheft:
    """"A capability is bound to a specific source, destination, and
    router" — stealing one does not let a third party use it."""

    def test_stolen_capability_fails_for_other_source(self):
        router = make_router()
        cap = obtain_capability(router, src=1, dst=2)
        assert send_regular(router, 1, 2, [cap]) == REGULAR
        # The eavesdropper at address 66 replays the stolen capability.
        assert send_regular(router, 66, 2, [cap], nonce=7) == LEGACY

    def test_stolen_capability_fails_for_other_destination(self):
        router = make_router()
        cap = obtain_capability(router, src=1, dst=2)
        assert send_regular(router, 1, 99, [cap], nonce=7) == LEGACY

    def test_capability_for_one_router_fails_at_another(self):
        """Different path => different routers => different secrets."""
        r1, r2 = make_router("R1"), make_router("R2")
        cap = obtain_capability(r1, 1, 2)
        assert send_regular(r2, 1, 2, [cap]) == LEGACY


class TestNonceHijack:
    """Sending with someone else's flow nonce from a co-located position:
    the flow is (src, dst), so the hijacker shares the victim's budget
    rather than gaining anything — and a wrong nonce is demoted."""

    def test_wrong_nonce_is_demoted(self):
        router = make_router()
        cap = obtain_capability(router, 1, 2)
        assert send_regular(router, 1, 2, [cap], nonce=42) == REGULAR
        shim = RegularHeader(flow_nonce=43)
        verdict, _ = router.process(1, 2, 1000, shim, 100.2)
        assert verdict == LEGACY

    def test_guessing_the_nonce_shares_the_budget(self):
        router = make_router()
        cap = obtain_capability(router, 1, 2, n=4096)
        assert send_regular(router, 1, 2, [cap], nonce=42, n=4096) == REGULAR
        # The co-located attacker who somehow knows the nonce can spend
        # the victim's budget...
        shim = RegularHeader(flow_nonce=42)
        verdict, _ = router.process(1, 2, 3000, shim, 100.2)
        assert verdict == REGULAR
        # ...but the budget is still N: the next packet is demoted.
        shim = RegularHeader(flow_nonce=42)
        verdict, _ = router.process(1, 2, 3000, shim, 100.3)
        assert verdict == LEGACY


class TestReplay:
    def test_replay_after_two_secret_rotations_fails(self):
        router = make_router()
        cap = obtain_capability(router, 1, 2, t=10, now=100.0)
        assert send_regular(router, 1, 2, [cap], now=100.1) == REGULAR
        router.state.remove((1, 2))
        # 256 s later the 8-bit timestamp aliases, but the secret rotated.
        assert send_regular(router, 1, 2, [cap], nonce=9, now=356.1) == LEGACY

    def test_expired_capability_fails_even_with_state_gone(self):
        router = make_router()
        cap = obtain_capability(router, 1, 2, t=10, now=100.0)
        router.state.remove((1, 2))
        assert send_regular(router, 1, 2, [cap], now=111.0) == LEGACY


class TestBudgetInflation:
    """The destination binds N and T into the capability hash; a sender
    cannot claim a bigger budget than it was granted."""

    def test_inflated_n_rejected(self):
        router = make_router()
        cap = obtain_capability(router, 1, 2, n=4096, t=10)
        assert send_regular(router, 1, 2, [cap], n=1023 * 1024, t=10) == LEGACY

    def test_inflated_t_rejected(self):
        router = make_router()
        cap = obtain_capability(router, 1, 2, n=4096, t=2)
        assert send_regular(router, 1, 2, [cap], n=4096, t=63) == LEGACY


class TestStateExhaustion:
    """Attacks that target router resources directly: "the computation and
    state requirements for our capability are bounded by design"."""

    def test_many_flows_cannot_exceed_table_capacity(self):
        secrets = SecretManager(b"seed")
        router = TvaRouterCore("R", secrets, FlowStateTable(64),
                               trust_boundary=True)
        for src in range(500):
            cap = obtain_capability(router, src, 2)
            send_regular(router, src, 2, [cap], nonce=src)
        assert len(router.state) <= 64

    def test_slow_flows_are_reclaimed_for_new_ones(self):
        secrets = SecretManager(b"seed")
        router = TvaRouterCore("R", secrets, FlowStateTable(4),
                               trust_boundary=True)
        now = 100.0
        # Four slow flows fill the table...
        for src in range(4):
            cap = obtain_capability(router, src, 2, now=now)
            assert send_regular(router, src, 2, [cap], nonce=src,
                                size=100, now=now + 0.1) == REGULAR
        # ...their tiny ttls (100 B * T/N) lapse within a second, and a
        # fifth fast flow claims a record.
        cap = obtain_capability(router, 99, 2, now=now)
        assert send_regular(router, 99, 2, [cap], nonce=99,
                            now=now + 2.0) == REGULAR


class TestRequestChannelAbuse:
    """Requests cannot consume more than the configured link fraction and
    are fair-queued per path identifier — checked at the queue level."""

    def test_request_class_cannot_exceed_its_fraction(self):
        from repro.core import TvaKnobs, TvaScheme
        from repro.sim import Packet

        scheme = TvaScheme(TvaKnobs(request_fraction=0.05))
        qdisc = scheme.make_qdisc("bottleneck", 10e6)
        # Stuff the request class, then drain at line rate for 1 simulated
        # second and count request bytes released.
        sent_request_bytes = 0
        for i in range(400):
            pkt = Packet(1, 2, 250, "cbr", shim=RequestHeader(path_ids=[i % 3]))
            qdisc.enqueue(pkt)
        now, released = 0.0, 0
        while now < 1.0:
            pkt = qdisc.dequeue(now)
            if pkt is None:
                nxt = qdisc.next_ready(now)
                if nxt is None:
                    break
                now = max(nxt, now + 1e-4)
                continue
            if isinstance(pkt.shim, RequestHeader):
                released += pkt.size
            # Model instantaneous transmission (worst case for the limit).
        # 5% of 10 Mb/s for 1 s = 62.5 kB, plus the initial burst bucket.
        assert released <= 62_500 + 10_000


class TestDefenseInDepth:
    """Section 7: a compromised router (or attacker injecting mid-path) "is
    just another attacker — it does not gain more leverage than an attacker
    at the compromised location.  DoS attacks on a destination will still
    be limited as long as there are other capability routers between the
    attacker and the destination"."""

    def test_midpath_flood_is_demoted_downstream(self):
        """Traffic injected past the first capability router (so never
        stamped or validated there) is still demoted by the next one."""
        import random

        from repro.core import TvaKnobs, TvaScheme
        from repro.sim import Packet, Simulator, TransferLog, chain_spec, instantiate
        from repro.transport import RepeatingTransferClient, TcpListener

        sim = Simulator()
        scheme = TvaScheme(TvaKnobs(request_fraction=0.05,
                                    server_grant=(256 * 1024, 10)))
        net = instantiate(chain_spec(n_routers=3, link_bps=10e6), sim, scheme)
        TcpListener(sim, net.destination, 80)
        log = TransferLog()
        RepeatingTransferClient(sim, net.users[0], net.destination.address,
                                80, nbytes=20_000, log=log, stop_at=6.0)

        # The "compromised" middle router injects a 30 Mb/s flood of
        # regular-looking packets towards the destination.
        middle = [n for n in net.nodes if n.name == "R1"][0]
        rng = random.Random(4)

        def inject():
            pkt = Packet(77, net.destination.address, 1000, "cbr",
                         shim=RegularHeader(flow_nonce=rng.getrandbits(48)))
            middle.receive(pkt, None)
            sim.after(1000 * 8.0 / 30e6, inject)

        sim.at(0.5, inject)
        sim.run(until=6.0)

        # R2 (between the attacker and the destination) demoted the flood;
        # the user's transfers are untouched.
        r2 = scheme.router_cores["R2"]
        assert r2.demotions > 1000
        assert log.fraction_completed(4.0) == 1.0
        assert log.average_completion_time() < 0.45

    def test_eavesdropper_cannot_reuse_caps_on_other_path(self):
        """Capabilities stolen by an eavesdropper are path-bound: another
        router's secret never validates them (see also TestTheft)."""
        r_path_a = make_router("A")
        r_path_b = make_router("B")
        cap = obtain_capability(r_path_a, 1, 2)
        assert send_regular(r_path_b, 1, 2, [cap]) == LEGACY


# ---------------------------------------------------------------------------
# NetFence (the closed-loop policing baseline) under the same threat model.
# ---------------------------------------------------------------------------


class _NfRouter:
    def __init__(self, sim):
        self.sim = sim


class _NfLink:
    def __init__(self, boundary_ingress):
        self.boundary_ingress = boundary_ingress


def _nf_setup(**knobs):
    from repro.baselines import NetFenceKnobs, NetFenceScheme
    from repro.baselines.netfence import NetFenceRouterProcessor
    from repro.sim import Simulator

    sim = Simulator()
    scheme = NetFenceScheme(NetFenceKnobs(**knobs), seed=11)
    proc = NetFenceRouterProcessor("R1", scheme, trust_boundary=True)
    return sim, scheme, proc, _NfRouter(sim), _NfLink(True)


def _nf_advance(sim, until):
    sim.at(until, lambda: None)
    sim.run()


class TestNetFenceFeedbackForgery:
    """NetFence's analogue of capability forgery: fabricating or
    laundering congestion-policing feedback.  The 56-bit keyed MAC and
    the freshness window make every variant fail."""

    def test_random_feedback_macs_never_validate(self):
        from repro.baselines.netfence import NetFenceFeedback

        _, _, proc, _, _ = _nf_setup()
        hits = 0
        for i in range(500):
            fb = NetFenceFeedback(mark="mono", ts=0, stamper="R1",
                                  bottleneck="", mac=i * 2654435761 % (1 << 56))
            hits += proc._validate(fb, 1, 0.0)
        assert hits == 0
        assert proc._senders == {}

    def test_garbage_feedback_is_not_fresh_evidence(self):
        """Presenting junk must not substitute for closing the loop: the
        robustness limiter still appears as if nothing was presented."""
        from repro.baselines.netfence import NetFenceFeedback, NetFenceHeader
        from repro.sim import Packet

        sim, scheme, proc, router, ingress = _nf_setup()
        for t in (0.0, 1.5):
            _nf_advance(sim, t)
            fb = NetFenceFeedback(mark="mono", ts=int(t), stamper="R1",
                                  bottleneck="", mac=12345)
            pkt = Packet(src=1, dst=2, size=100, proto="cbr",
                         shim=NetFenceHeader(presented=fb), created=t)
            proc.process(pkt, router, ingress, None)
        assert proc.presented_invalid == 2
        assert "" in proc._senders[1].limiters

    def test_hoarded_mono_feedback_goes_stale(self):
        """An attacker cannot bank good-behaviour feedback before an
        attack: a mono stamp older than the expiry no longer validates."""
        from repro.sim import Packet

        sim, scheme, proc, router, ingress = _nf_setup()
        pkt = Packet(src=1, dst=2, size=100, proto="cbr", created=0.0)
        proc.process(pkt, router, ingress, None)
        hoard = pkt.shim.feedback.clone()
        assert proc._validate(hoard, 1, scheme.knobs.feedback_expiry)
        assert not proc._validate(hoard, 1, scheme.knobs.feedback_expiry + 1.5)


class TestNetFenceFlood:
    """The capability-flood analogue: a flooder that simply refuses to
    run the feedback loop.  The robustness rule throttles it to the
    minimum rate — breaking the protocol earns nothing."""

    def test_mute_flooder_converges_to_the_floor(self):
        from repro.sim import Packet

        sim, scheme, proc, router, ingress = _nf_setup()
        delivered_late = 0
        t = 0.0
        while t < 12.0:
            _nf_advance(sim, t)
            pkt = Packet(src=1, dst=2, size=1500, proto="cbr", created=t)
            if proc.process(pkt, router, ingress, None) and t >= 10.0:
                delivered_late += pkt.size
            t += 0.01
        lim = proc._senders[1].limiters[""]
        assert lim.rate_bps == scheme.knobs.min_rate_bps
        assert proc.policed_drops > 0
        # Goodput in the last two seconds is near the floor, nowhere
        # near the ~3 MB offered.
        assert delivered_late * 8 / 2.0 < 4 * scheme.knobs.min_rate_bps

    def test_behaving_sender_is_never_limited(self):
        from repro.sim import Packet

        sim, scheme, proc, router, ingress = _nf_setup()
        stamp = None
        t = 0.0
        drops_before = proc.policed_drops
        while t < 6.0:
            _nf_advance(sim, t)
            pkt = Packet(src=1, dst=2, size=1500, proto="cbr", created=t)
            if stamp is not None:
                from repro.baselines.netfence import NetFenceHeader

                pkt.shim = NetFenceHeader(presented=stamp.clone())
            proc.process(pkt, router, ingress, None)
            if pkt.shim is not None and pkt.shim.feedback is not None:
                stamp = pkt.shim.feedback
            t += 0.25
        assert proc._senders[1].limiters == {}
        assert proc.policed_drops == drops_before


class TestNetFenceShrew:
    """A shrew-style pulser alternates congestion bursts with quiet
    periods, hoping each limiter is torn down before the next pulse.
    The release hysteresis (``release_intervals`` of mono-only evidence)
    keeps the limiter alive across the quiet phase."""

    def test_pulsing_attacker_stays_limited(self):
        from repro.baselines.netfence import NetFenceHeader
        from repro.sim import Packet

        sim, scheme, proc, router, ingress = _nf_setup()
        period = scheme.knobs.release_intervals  # quiet just short of release

        def send(t, presented=None):
            _nf_advance(sim, t)
            shim = NetFenceHeader(presented=presented) if presented else None
            pkt = Packet(src=1, dst=2, size=200, proto="cbr", shim=shim,
                         created=t)
            proc.process(pkt, router, ingress, None)
            return pkt

        stamp = send(0.0).shim.feedback
        limited_checks = 0
        for j in range(1, 4 * period + 1):
            t = 1.1 * j
            fb = stamp.clone()
            if j % period == 0:
                # Pulse: the bottleneck marks the sender's feedback cong.
                proc.mark_cong(Packet(src=1, dst=2, size=200, proto="cbr"),
                               fb, "R1->R2", sim.now)
            pkt = send(t, presented=fb)
            stamp = pkt.shim.feedback or stamp
            if j > period:
                assert "R1->R2" in proc._senders[1].limiters, (
                    f"limiter released mid-pulse-cycle at interval {j}"
                )
                limited_checks += 1
        assert limited_checks > 0
        # The AIMD fixed point under pulsing stays below the initial
        # (unlimited) rate: pulsing is strictly worse than behaving.
        lim = proc._senders[1].limiters["R1->R2"]
        assert lim.rate_bps < scheme.knobs.init_rate_bps
