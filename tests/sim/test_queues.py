"""Unit and property tests for the queue disciplines."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import (
    DRRFairQueue,
    DropTailQueue,
    Packet,
    PriorityScheduler,
    TokenBucket,
)


def mkpkt(size=100, src=1, dst=2, proto="raw"):
    return Packet(src=src, dst=dst, size=size, proto=proto)


# ---------------------------------------------------------------------------
# DropTail
# ---------------------------------------------------------------------------

class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(limit_bytes=10_000)
        pkts = [mkpkt(size=100 + i) for i in range(5)]
        for p in pkts:
            assert q.enqueue(p)
        out = [q.dequeue(0.0) for _ in range(5)]
        assert out == pkts

    def test_byte_limit_drops_excess(self):
        q = DropTailQueue(limit_bytes=250)
        assert q.enqueue(mkpkt(size=100))
        assert q.enqueue(mkpkt(size=100))
        assert not q.enqueue(mkpkt(size=100))
        assert q.drops == 1
        assert q.drop_reasons == {"tail": 1}
        assert q.backlog_bytes == 200

    def test_packet_limit_ignores_sizes(self):
        q = DropTailQueue(limit_bytes=None, limit_pkts=2)
        assert q.enqueue(mkpkt(size=1500))
        assert q.enqueue(mkpkt(size=40))
        assert not q.enqueue(mkpkt(size=40))
        assert q.drops == 1

    def test_dequeue_empty_returns_none(self):
        q = DropTailQueue()
        assert q.dequeue(0.0) is None

    def test_requires_some_limit(self):
        with pytest.raises(ValueError):
            DropTailQueue(limit_bytes=None, limit_pkts=None)
        with pytest.raises(ValueError):
            DropTailQueue(limit_bytes=0)
        with pytest.raises(ValueError):
            DropTailQueue(limit_bytes=None, limit_pkts=0)

    def test_drop_hook_sees_dropped_packet(self):
        q = DropTailQueue(limit_bytes=100)
        dropped = []
        q.drop_hook = dropped.append
        q.enqueue(mkpkt(size=100))
        victim = mkpkt(size=50)
        q.enqueue(victim)
        assert dropped == [victim]

    def test_backlog_accounting_roundtrip(self):
        q = DropTailQueue(limit_bytes=10_000)
        for _ in range(4):
            q.enqueue(mkpkt(size=100))
        while q.dequeue(0.0):
            pass
        assert q.backlog_bytes == 0
        assert q.backlog_pkts == 0


# ---------------------------------------------------------------------------
# DRR fair queue
# ---------------------------------------------------------------------------

class TestDRR:
    def test_interleaves_two_flows_fairly(self):
        q = DRRFairQueue(key_fn=lambda p: p.src, quantum=100)
        for _ in range(10):
            q.enqueue(mkpkt(size=100, src=1))
            q.enqueue(mkpkt(size=100, src=2))
        sources = [q.dequeue(0.0).src for _ in range(20)]
        # Fairness: any prefix should contain roughly equal counts.
        for n in (4, 10, 20):
            prefix = sources[:n]
            assert abs(prefix.count(1) - prefix.count(2)) <= 1

    def test_byte_fairness_with_unequal_packet_sizes(self):
        # Flow 1 sends 1000-byte packets, flow 2 sends 250-byte packets.
        # Byte-based DRR should serve ~4 small packets per large one.
        q = DRRFairQueue(key_fn=lambda p: p.src, quantum=500)
        for _ in range(20):
            q.enqueue(mkpkt(size=1000, src=1))
        for _ in range(80):
            q.enqueue(mkpkt(size=250, src=2))
        bytes_out = {1: 0, 2: 0}
        for _ in range(40):
            pkt = q.dequeue(0.0)
            bytes_out[pkt.src] += pkt.size
        ratio = bytes_out[1] / bytes_out[2]
        assert 0.7 < ratio < 1.4

    def test_per_queue_byte_limit(self):
        q = DRRFairQueue(key_fn=lambda p: p.src, limit_bytes_per_queue=300)
        assert q.enqueue(mkpkt(size=200, src=1))
        assert not q.enqueue(mkpkt(size=200, src=1))
        # Another key has its own budget.
        assert q.enqueue(mkpkt(size=200, src=2))

    def test_max_queues_bounds_state(self):
        q = DRRFairQueue(key_fn=lambda p: p.src, max_queues=3)
        for src in range(3):
            assert q.enqueue(mkpkt(src=src))
        assert not q.enqueue(mkpkt(src=99))
        assert q.drops == 1

    def test_queue_state_retired_when_drained(self):
        q = DRRFairQueue(key_fn=lambda p: p.src, max_queues=2)
        q.enqueue(mkpkt(src=1))
        q.enqueue(mkpkt(src=2))
        while q.dequeue(0.0):
            pass
        assert q.active_queues == 0
        # Keys freed: new sources fit again.
        assert q.enqueue(mkpkt(src=3))
        assert q.enqueue(mkpkt(src=4))

    def test_dequeue_empty_returns_none(self):
        q = DRRFairQueue(key_fn=lambda p: p.src)
        assert q.dequeue(0.0) is None

    def test_single_flow_fifo(self):
        q = DRRFairQueue(key_fn=lambda p: p.src)
        pkts = [mkpkt(src=1) for _ in range(5)]
        for p in pkts:
            q.enqueue(p)
        assert [q.dequeue(0.0) for _ in range(5)] == pkts

    def test_oversized_first_packet_leaves_no_state(self):
        """Regression: a first packet larger than the per-queue byte limit
        used to register its key before the limit check, leaking an empty
        queue slot that only dequeue could retire."""
        q = DRRFairQueue(key_fn=lambda p: p.src, limit_bytes_per_queue=300)
        assert not q.enqueue(mkpkt(size=400, src=1))
        assert q.active_queues == 0
        assert q.drops == 1
        # The key holds no stale state: a conforming packet still fits.
        assert q.enqueue(mkpkt(size=100, src=1))

    def test_oversized_flood_cannot_exhaust_queue_slots(self):
        """A flood of oversized packets with distinct keys must not pin
        ``max_queues`` slots — that would be state exhaustion inside the
        DoS defense itself."""
        q = DRRFairQueue(
            key_fn=lambda p: p.src, limit_bytes_per_queue=300, max_queues=4
        )
        for src in range(100):
            assert not q.enqueue(mkpkt(size=400, src=src))
        assert q.active_queues == 0
        assert q.drops == 100
        # All slots remain available to conforming flows.
        for src in range(200, 204):
            assert q.enqueue(mkpkt(size=100, src=src))

    def test_drop_reasons_distinguish_overflow_from_no_slot(self):
        q = DRRFairQueue(
            key_fn=lambda p: p.src, limit_bytes_per_queue=300, max_queues=2
        )
        q.enqueue(mkpkt(size=200, src=1))
        q.enqueue(mkpkt(size=200, src=2))
        assert not q.enqueue(mkpkt(size=200, src=1))  # over its byte budget
        assert not q.enqueue(mkpkt(size=100, src=3))  # no free queue slot
        assert not q.enqueue(mkpkt(size=400, src=1))  # oversized for any queue
        assert q.drop_reasons == {"overflow": 2, "no_slot": 1}
        assert q.drops == 3
        exported = {name: read() for name, read in q.metric_items()}
        assert exported["drops"] == 3
        assert exported["drops.no_slot"] == 1
        assert exported["drops.overflow"] == 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(40, 1500)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation_property(self, arrivals):
        """Everything enqueued is either dropped or eventually dequeued,
        and byte accounting never goes negative."""
        q = DRRFairQueue(
            key_fn=lambda p: p.src, limit_bytes_per_queue=4000, max_queues=3
        )
        accepted = 0
        for src, size in arrivals:
            if q.enqueue(mkpkt(src=src, size=size)):
                accepted += 1
        assert q.drops == len(arrivals) - accepted
        out = 0
        while q.dequeue(0.0) is not None:
            out += 1
        assert out == accepted
        assert q.backlog_bytes == 0
        assert q.backlog_pkts == 0

    @staticmethod
    def _reference_service_order(ops, quantum, limit, max_queues):
        """List model of DRR's round list + cursor: flows are
        ``[key, deficit, topped, [(uid, size), ...]]`` in round order."""
        order, idx, served = [], 0, []
        for uid, op in enumerate(ops):
            if op is not None:
                key, size = op
                flow = next((f for f in order if f[0] == key), None)
                if flow is None:
                    if len(order) >= max_queues or size > limit:
                        continue
                    flow = [key, 0, False, []]
                    order.append(flow)  # new keys join at the tail
                elif sum(s for _, s in flow[3]) + size > limit:
                    continue
                flow[3].append((uid, size))
                continue
            while order:
                idx = idx if idx < len(order) else 0
                flow = order[idx]
                if not flow[2]:
                    flow[1], flow[2] = flow[1] + quantum, True
                if flow[1] < flow[3][0][1]:
                    flow[2], idx = False, idx + 1
                    continue
                uid_out, size = flow[3].pop(0)
                flow[1] -= size
                if not flow[3]:
                    del order[idx]  # cursor now rests on the successor
                served.append(uid_out)
                break
        return served

    # A and B are mid-round (cursor at index 1) when new key C arrives:
    # the round list serves C right after B's turn ends; a rotating deque
    # would put A ahead of C.
    @example(ops=[(0, 1000), (0, 1000), (1, 1000), (1, 1000), None, None,
                  (2, 1000), None, None, None])
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(st.integers(0, 5), st.integers(40, 1500)),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_service_order_matches_round_list_model(self, ops):
        """Arrivals of new keys interleaved with dequeues at any cursor
        position are served in exactly the round-list order."""
        q = DRRFairQueue(
            key_fn=lambda p: p.src, limit_bytes_per_queue=4000, max_queues=4,
            quantum=1500,
        )
        served = []
        for uid, op in enumerate(ops):  # dst carries the packet's uid
            if op is None:
                pkt = q.dequeue(0.0)
                if pkt is not None:
                    served.append(pkt.dst)
            else:
                q.enqueue(mkpkt(src=op[0], size=op[1], dst=uid))
        assert served == self._reference_service_order(
            ops, quantum=1500, limit=4000, max_queues=4
        )
        active = q.active_queues
        assert active == len({p.src for p in q.drain()})  # one record per key


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_starts_full(self):
        tb = TokenBucket(rate_bps=8000, burst_bytes=500)
        assert tb.available(0.0) == 500

    def test_consume_and_refill(self):
        tb = TokenBucket(rate_bps=8000, burst_bytes=500)  # 1000 B/s
        assert tb.try_consume(500, 0.0)
        assert not tb.try_consume(1, 0.0)
        assert tb.try_consume(100, 0.1)  # 100 bytes refilled after 100 ms

    def test_burst_caps_accumulation(self):
        tb = TokenBucket(rate_bps=8000, burst_bytes=500)
        tb.try_consume(500, 0.0)
        assert tb.available(1000.0) == 500

    def test_time_until(self):
        tb = TokenBucket(rate_bps=8000, burst_bytes=500)  # 1000 B/s
        tb.try_consume(500, 0.0)
        assert tb.time_until(250, 0.0) == pytest.approx(0.25)
        assert tb.time_until(100, 10.0) == 10.0  # already refilled

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=0)

    def test_rejects_a_bucket_that_can_never_hold_a_packet(self):
        # The same check set_rate() applies: with no burst allowance a
        # scheduler would park its head packet forever.
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate_bps=8000, burst_bytes=0)

    def test_rate_is_enforced_over_time(self):
        tb = TokenBucket(rate_bps=80_000, burst_bytes=1000)  # 10 kB/s
        sent = 0
        t = 0.0
        while t < 10.0:
            if tb.try_consume(100, t):
                sent += 100
            t += 0.001
        # burst (1000) + 10 s * 10 kB/s = 101 kB
        assert sent <= 101_000
        assert sent >= 95_000


# ---------------------------------------------------------------------------
# Priority scheduler
# ---------------------------------------------------------------------------

class TestPriorityScheduler:
    def make(self, request_rate_bps=None):
        hi = DropTailQueue(limit_bytes=10_000)
        lo = DropTailQueue(limit_bytes=10_000)
        bucket = TokenBucket(request_rate_bps, burst_bytes=200) if request_rate_bps else None
        sched = PriorityScheduler(
            lambda p: 0 if p.proto == "hi" else 1, [(hi, bucket), (lo, None)]
        )
        return sched, hi, lo

    def test_strict_priority(self):
        sched, _, _ = self.make()
        lo_pkt = mkpkt(proto="lo")
        hi_pkt = mkpkt(proto="hi")
        sched.enqueue(lo_pkt)
        sched.enqueue(hi_pkt)
        assert sched.dequeue(0.0) is hi_pkt
        assert sched.dequeue(0.0) is lo_pkt

    def test_classification_falls_through(self):
        sched, hi, lo = self.make()
        sched.enqueue(mkpkt(proto="hi"))
        sched.enqueue(mkpkt(proto="anything"))
        assert hi.backlog_pkts == 1
        assert lo.backlog_pkts == 1

    def test_rate_limited_class_defers_to_lower_class(self):
        sched, _, _ = self.make(request_rate_bps=8000)  # 1000 B/s, burst 200
        # Exhaust the bucket.
        assert sched.enqueue(mkpkt(proto="hi", size=200))
        assert sched.dequeue(0.0).proto == "hi"
        # Now the hi class has no tokens; lo traffic must flow instead.
        sched.enqueue(mkpkt(proto="hi", size=200))
        sched.enqueue(mkpkt(proto="lo", size=100))
        pkt = sched.dequeue(0.0)
        assert pkt.proto == "lo"
        # After enough refill time the deferred hi packet goes out.
        pkt = sched.dequeue(1.0)
        assert pkt is not None and pkt.proto == "hi"

    def test_next_ready_reports_token_wait(self):
        sched, _, _ = self.make(request_rate_bps=8000)
        sched.enqueue(mkpkt(proto="hi", size=200))
        assert sched.dequeue(0.0) is not None
        sched.enqueue(mkpkt(proto="hi", size=200))
        # Before any dequeue attempt the head is not yet parked, so the
        # scheduler conservatively reports "now"...
        assert sched.next_ready(0.0) == 0.0
        # ...the attempt parks the head against the empty bucket, and the
        # estimate becomes the true token wait.
        assert sched.dequeue(0.0) is None
        ready = sched.next_ready(0.0)
        assert ready is not None and ready > 0.0

    def test_next_ready_none_when_empty(self):
        sched, _, _ = self.make()
        assert sched.next_ready(0.0) is None

    def test_drops_propagate_from_children(self):
        hi = DropTailQueue(limit_bytes=100)
        sched = PriorityScheduler(lambda p: 0, [(hi, None)])
        assert sched.enqueue(mkpkt(size=100))
        assert not sched.enqueue(mkpkt(size=100))
        assert sched.drops == 1

    def test_backlog_tracks_children(self):
        sched, _, _ = self.make()
        sched.enqueue(mkpkt(proto="hi"))
        sched.enqueue(mkpkt(proto="lo"))
        assert sched.backlog_pkts == 2
        sched.dequeue(0.0)
        sched.dequeue(0.0)
        assert sched.backlog_pkts == 0
