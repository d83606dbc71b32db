"""Tests for the TVA scheme factory (Figure 2's queue management)."""

import pytest

from repro.core import RegularHeader, RequestHeader, TvaScheme
from repro.core.scheme import _destination_key, _request_key, _source_key
from repro.sim import Packet
from repro.sim.queues import DRRFairQueue, DropTailQueue, PriorityScheduler


def request_pkt(path_ids=(7,)):
    return Packet(1, 2, 100, "tcp", shim=RequestHeader(path_ids=list(path_ids)))


def regular_pkt(nonce=1, src=1, dst=2):
    return Packet(src, dst, 100, "tcp", shim=RegularHeader(flow_nonce=nonce))


def legacy_pkt():
    return Packet(1, 2, 100, "tcp")


class TestQdiscAssembly:
    def test_three_classes_in_priority_order(self):
        qdisc = TvaScheme().make_qdisc("bottleneck", 10e6)
        assert isinstance(qdisc, PriorityScheduler)
        children = qdisc.children
        assert isinstance(children[0], DRRFairQueue)  # requests
        assert isinstance(children[1], DRRFairQueue)  # regular
        assert isinstance(children[2], DropTailQueue)  # legacy

    def test_classification(self):
        qdisc = TvaScheme().make_qdisc("bottleneck", 10e6)
        qdisc.enqueue(request_pkt())
        qdisc.enqueue(regular_pkt())
        qdisc.enqueue(legacy_pkt())
        req_q, reg_q, leg_q = qdisc.children
        assert req_q.backlog_pkts == 1
        assert reg_q.backlog_pkts == 1
        assert leg_q.backlog_pkts == 1

    def test_demoted_regular_goes_to_legacy_class(self):
        qdisc = TvaScheme().make_qdisc("bottleneck", 10e6)
        pkt = regular_pkt()
        pkt.demoted = True
        qdisc.enqueue(pkt)
        assert qdisc.children[2].backlog_pkts == 1

    def test_demoted_request_goes_to_legacy_class(self):
        qdisc = TvaScheme().make_qdisc("bottleneck", 10e6)
        pkt = request_pkt()
        pkt.demoted = True
        qdisc.enqueue(pkt)
        assert qdisc.children[2].backlog_pkts == 1

    def test_regular_has_strict_priority_over_legacy(self):
        qdisc = TvaScheme().make_qdisc("bottleneck", 10e6)
        lp = legacy_pkt()
        rp = regular_pkt()
        qdisc.enqueue(lp)
        qdisc.enqueue(rp)
        assert qdisc.dequeue(0.0) is rp

    def test_request_bucket_rate_scales_with_fraction(self):
        small = TvaScheme(request_fraction=0.01).make_qdisc("bottleneck", 10e6)
        big = TvaScheme(request_fraction=0.05).make_qdisc("bottleneck", 10e6)
        _, small_bucket = small.classes[0]
        _, big_bucket = big.classes[0]
        assert big_bucket.rate_Bps == pytest.approx(small_bucket.rate_Bps * 5)


class TestKeys:
    def test_request_key_is_most_recent_tag(self):
        assert _request_key(request_pkt(path_ids=[3, 9])) == 9
        assert _request_key(request_pkt(path_ids=[])) is None

    def test_regular_keys(self):
        pkt = regular_pkt(src=5, dst=6)
        assert _destination_key(pkt) == 6
        assert _source_key(pkt) == 5


class TestOptions:
    def test_rejects_bad_queue_key(self):
        with pytest.raises(ValueError):
            TvaScheme(regular_queue_key="port")

    def test_source_key_option_wires_through(self):
        qdisc = TvaScheme(regular_queue_key="source").make_qdisc("bottleneck", 10e6)
        reg_q = qdisc.children[1]
        reg_q.enqueue(regular_pkt(src=5, dst=6))
        reg_q.enqueue(regular_pkt(src=5, dst=7))
        assert reg_q.active_queues == 1  # both keyed on src=5

    def test_fifo_request_option(self):
        qdisc = TvaScheme(request_fair_queue=False).make_qdisc("bottleneck", 10e6)
        req_q = qdisc.children[0]
        req_q.enqueue(request_pkt(path_ids=[1]))
        req_q.enqueue(request_pkt(path_ids=[2]))
        assert req_q.active_queues == 1  # everything in one queue

    def test_factory_records_cores_and_shims(self):
        from repro.sim import Simulator, build_dumbbell

        scheme = TvaScheme()
        build_dumbbell(Simulator(), scheme, n_users=1, n_attackers=1)
        assert set(scheme.router_cores) == {"R1", "R2"}
        assert {"user", "attacker", "destination", "colluder"} <= set(scheme.shims)

    def test_distinct_router_secrets(self):
        scheme = TvaScheme()
        a = scheme.make_router_processor("R1", True).core
        b = scheme.make_router_processor("R2", True).core
        assert a.secrets.secret_for_epoch(0) != b.secrets.secret_for_epoch(0)
