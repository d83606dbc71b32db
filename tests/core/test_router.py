"""Tests for the TVA capability router pipeline (Figure 6)."""

import pytest

from repro.core import (
    RegularHeader,
    RequestHeader,
    SecretManager,
    TvaRouterCore,
    capability_from_precapability,
    mint_precapability,
)
from repro.core.flowstate import FlowStateTable
from repro.core.router import LEGACY, REGULAR, REQUEST


@pytest.fixture
def router():
    return TvaRouterCore(
        "R1",
        SecretManager(b"r1"),
        FlowStateTable(1000),
        trust_boundary=True,
    )


def grant_via(router, src=1, dst=2, n=32 * 1024, t=10, now=100.0):
    """Run the real request path and convert to a capability, as the
    destination would."""
    shim = RequestHeader()
    router.process_request(src, dst, shim, now, ingress_id="if0")
    pre = shim.precapabilities[-1]
    return capability_from_precapability(pre, n, t)


def regular_shim(cap, nonce=42, n=32 * 1024, t=10, renewal=False):
    shim = RegularHeader(
        flow_nonce=nonce, n_bytes=n, t_seconds=t,
        capabilities=[cap], renewal=renewal,
    )
    shim.cap_ptr = 0
    return shim


class TestRequestPath:
    def test_request_gets_tag_and_precapability(self, router):
        shim = RequestHeader()
        verdict, added = router.process(1, 2, 64, shim, 100.0, "if0")
        assert verdict == REQUEST
        assert len(shim.path_ids) == 1
        assert len(shim.precapabilities) == 1
        assert added == 10

    def test_non_boundary_router_does_not_tag(self):
        core = TvaRouterCore("R2", SecretManager(b"r2"), FlowStateTable(10),
                             trust_boundary=False)
        shim = RequestHeader()
        verdict, added = core.process(1, 2, 64, shim, 100.0, "if0")
        assert verdict == REQUEST
        assert shim.path_ids == []
        assert added == 8

    def test_each_hop_appends(self, router):
        shim = RequestHeader()
        router.process(1, 2, 64, shim, 100.0, "if0")
        other = TvaRouterCore("R2", SecretManager(b"r2"), FlowStateTable(10))
        other.process(1, 2, 74, shim, 100.0, None)
        assert len(shim.precapabilities) == 2


class TestRegularPath:
    def test_first_packet_validates_and_creates_state(self, router):
        cap = grant_via(router)
        verdict, _ = router.process(1, 2, 1000, regular_shim(cap), 100.1)
        assert verdict == REGULAR
        assert router.regular_validated == 1
        assert len(router.state) == 1

    def test_cached_nonce_only_packet(self, router):
        cap = grant_via(router)
        router.process(1, 2, 1000, regular_shim(cap), 100.1)
        shim = RegularHeader(flow_nonce=42)
        verdict, _ = router.process(1, 2, 1000, shim, 100.2)
        assert verdict == REGULAR
        assert router.regular_cached == 1

    def test_wrong_nonce_without_caps_is_demoted(self, router):
        cap = grant_via(router)
        router.process(1, 2, 1000, regular_shim(cap), 100.1)
        shim = RegularHeader(flow_nonce=99)
        verdict, _ = router.process(1, 2, 1000, shim, 100.2)
        assert verdict == LEGACY
        assert shim.demoted

    def test_no_state_no_caps_is_demoted(self, router):
        shim = RegularHeader(flow_nonce=42)
        verdict, _ = router.process(1, 2, 1000, shim, 100.0)
        assert verdict == LEGACY
        assert router.demotions == 1

    def test_forged_capability_is_demoted(self, router):
        cap = grant_via(router)
        from repro.core import Capability
        forged = Capability(cap.timestamp, cap.hash56 ^ 1)
        verdict, _ = router.process(1, 2, 1000, regular_shim(forged), 100.1)
        assert verdict == LEGACY

    def test_byte_budget_enforced_across_packets(self, router):
        cap = grant_via(router, n=2048)
        router.process(1, 2, 1000, regular_shim(cap, n=2048), 100.1)
        shim2 = RegularHeader(flow_nonce=42)
        verdict, _ = router.process(1, 2, 1000, shim2, 100.2)
        assert verdict == REGULAR
        shim3 = RegularHeader(flow_nonce=42)
        verdict, _ = router.process(1, 2, 1000, shim3, 100.3)
        assert verdict == LEGACY  # 3000 > 2048

    def test_expired_capability_is_demoted(self, router):
        cap = grant_via(router, t=10, now=100.0)
        verdict, _ = router.process(1, 2, 1000, regular_shim(cap), 115.0)
        assert verdict == LEGACY

    def test_renewed_capability_replaces_entry(self, router):
        cap = grant_via(router, n=2048)
        router.process(1, 2, 1000, regular_shim(cap, nonce=42, n=2048), 100.1)
        router.process(1, 2, 1000, RegularHeader(flow_nonce=42), 100.2)
        # Budget now exhausted; a renewed capability under a new nonce
        # restores service.
        cap2 = grant_via(router, n=32 * 1024, now=101.0)
        verdict, _ = router.process(
            1, 2, 1000, regular_shim(cap2, nonce=43), 101.1
        )
        assert verdict == REGULAR
        entry = router.state.lookup((1, 2), 101.1)
        assert entry.nonce == 43
        assert entry.byte_count == 1000


class TestRenewal:
    def test_renewal_mints_fresh_precapability(self, router):
        cap = grant_via(router)
        shim = regular_shim(cap, renewal=True)
        verdict, added = router.process(1, 2, 1000, shim, 100.1)
        assert verdict == REGULAR
        assert len(shim.new_precapabilities) == 1
        assert added == 8
        assert router.renewals == 1

    def test_renewal_with_cached_entry(self, router):
        cap = grant_via(router)
        router.process(1, 2, 1000, regular_shim(cap), 100.1)
        shim = RegularHeader(flow_nonce=42, renewal=True)
        verdict, _ = router.process(1, 2, 1000, shim, 100.2)
        assert verdict == REGULAR
        assert len(shim.new_precapabilities) == 1

    def test_invalid_renewal_gets_no_precapability(self, router):
        shim = RegularHeader(flow_nonce=1, renewal=True)
        verdict, _ = router.process(1, 2, 1000, shim, 100.0)
        assert verdict == LEGACY
        assert shim.new_precapabilities == []


class TestCapPointer:
    def test_pointer_advances_at_every_router_with_caps(self):
        """Even a router that serves the packet from cache must advance the
        capability pointer, or the next router would validate the wrong
        list entry (the desynchronization bug class)."""
        r1 = TvaRouterCore("R1", SecretManager(b"r1"), FlowStateTable(10), True)
        r2 = TvaRouterCore("R2", SecretManager(b"r2"), FlowStateTable(10), False)
        req = RequestHeader()
        r1.process(1, 2, 64, req, 100.0, "if0")
        r2.process(1, 2, 74, req, 100.0, None)
        caps = [
            capability_from_precapability(pre, 32 * 1024, 10)
            for pre in req.precapabilities
        ]
        # First packet with caps: both routers create state.
        shim = RegularHeader(flow_nonce=42, n_bytes=32 * 1024, t_seconds=10,
                             capabilities=list(caps))
        shim.cap_ptr = 0
        assert r1.process(1, 2, 1000, shim, 100.1)[0] == REGULAR
        assert r2.process(1, 2, 1000, shim, 100.1)[0] == REGULAR
        # Evict only R2's state; a caps-bearing packet must still validate
        # at R2 even though R1 answered from cache (and consumed nothing).
        r2.state.remove((1, 2))
        shim2 = RegularHeader(flow_nonce=42, n_bytes=32 * 1024, t_seconds=10,
                              capabilities=list(caps))
        shim2.cap_ptr = 0
        assert r1.process(1, 2, 1000, shim2, 100.2)[0] == REGULAR
        assert r2.process(1, 2, 1000, shim2, 100.2)[0] == REGULAR


class TestLegacy:
    def test_legacy_packets_pass_through_unprocessed(self, router):
        verdict, added = router.process(1, 2, 1000, None, 100.0)
        assert verdict == LEGACY
        assert added == 0
        assert router.demotions == 0


class TestValidationCache:
    """The bounded (src, dst, cap, grant, epoch)->verdict memo."""

    def test_repeat_validation_hits_cache(self, router):
        cap = grant_via(router)
        for i in range(3):
            shim = regular_shim(cap)
            verdict, _ = router.process_regular(1, 2, 100, shim, 101.0)
            assert verdict == REGULAR
            router.state.remove((1, 2))  # force full validation next time
        assert router.valcache_misses == 1
        assert router.valcache_hits == 2

    def test_negative_verdicts_are_cached_too(self, router):
        cap = grant_via(router)
        forged = type(cap)(cap.timestamp, cap.hash56 ^ 1)
        for _ in range(2):
            verdict, _ = router.process_regular(
                1, 2, 100, regular_shim(forged), 101.0)
            assert verdict == LEGACY
        assert router.valcache_misses == 1
        assert router.valcache_hits == 1

    def test_expiry_rechecked_despite_cached_verdict(self, router):
        """Expiry depends on `now`, so it must not be memoized: a cached
        True verdict still demotes once the capability's T runs out."""
        cap = grant_via(router, t=10, now=100.0)
        verdict, _ = router.process_regular(1, 2, 100, regular_shim(cap), 101.0)
        assert verdict == REGULAR
        router.state.remove((1, 2))
        verdict, _ = router.process_regular(1, 2, 100, regular_shim(cap), 115.0)
        assert verdict == LEGACY

    def test_eviction_is_fifo_and_bounded(self, router):
        size = router._VALCACHE_SIZE
        caps = []
        for i in range(size + 10):
            src = 100 + i
            cap = grant_via(router, src=src)
            caps.append((src, cap))
            router.process_regular(src, 2, 100, regular_shim(cap), 101.0)
            router.state.remove((src, 2))
        assert len(router._valcache) == size
        # The 10 oldest entries were evicted: revalidating the very first
        # source misses; revalidating the newest hits.
        hits_before = router.valcache_hits
        misses_before = router.valcache_misses
        src, cap = caps[0]
        router.process_regular(src, 2, 100, regular_shim(cap), 101.0)
        router.state.remove((src, 2))
        assert router.valcache_misses == misses_before + 1
        src, cap = caps[-1]
        router.process_regular(src, 2, 100, regular_shim(cap), 101.0)
        assert router.valcache_hits == hits_before + 1

    def test_eviction_order_is_deterministic(self):
        """Two routers fed the identical sequence evict identically —
        cache content is a function of traffic, not process history."""
        def drive():
            core = TvaRouterCore(
                "R1", SecretManager(b"r1"), FlowStateTable(1000),
                trust_boundary=True)
            for i in range(core._VALCACHE_SIZE + 50):
                src = 10 + i
                cap = grant_via(core, src=src)
                core.process_regular(src, 2, 100, regular_shim(cap), 101.0)
                core.state.remove((src, 2))
            return list(core._valcache)

        assert drive() == drive()

    def test_clear_validation_cache_forces_misses(self, router):
        cap = grant_via(router)
        router.process_regular(1, 2, 100, regular_shim(cap), 101.0)
        router.state.remove((1, 2))
        router.clear_validation_cache()
        router.process_regular(1, 2, 100, regular_shim(cap), 101.0)
        assert router.valcache_misses == 2
        assert router.valcache_hits == 0

    def test_restart_clears_the_cache(self, router):
        cap = grant_via(router)
        router.process_regular(1, 2, 100, regular_shim(cap), 101.0)
        assert len(router._valcache) == 1
        router.restart(now=102.0)
        assert len(router._valcache) == 0

    def test_counters_exported_via_metrics(self, router):
        exported = dict(router.metric_items())
        assert exported["valcache_hits"]() == router.valcache_hits
        assert exported["valcache_misses"]() == router.valcache_misses
