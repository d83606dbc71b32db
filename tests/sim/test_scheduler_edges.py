"""Edge cases of the priority scheduler and qdisc composition."""

import pytest

from repro.sim import (
    DropTailQueue,
    Packet,
    PriorityScheduler,
    TokenBucket,
)


def mkpkt(proto="x", size=100):
    return Packet(1, 2, size, proto)


def only_a(pkt):
    """Classifier claiming proto "a" for class 0 and nothing else."""
    return 0 if pkt.proto == "a" else None


def single(qdisc, bucket=None):
    """A one-class scheduler every packet joins."""
    return PriorityScheduler(lambda p: 0, [(qdisc, bucket)])


def test_unclaimed_packet_is_dropped_and_counted():
    sched = PriorityScheduler(only_a, [(DropTailQueue(), None)])
    dropped = []
    sched.drop_hook = dropped.append
    pkt = mkpkt(proto="b")
    assert not sched.enqueue(pkt)
    assert sched.drops == 1
    assert dropped == [pkt]


def test_deferred_packet_preserved_across_many_failed_polls():
    bucket = TokenBucket(rate_bps=8000, burst_bytes=500)  # 1000 B/s
    q = DropTailQueue()
    sched = single(q, bucket)
    first, big = mkpkt(size=500), mkpkt(size=500)
    sched.enqueue(first)
    assert sched.dequeue(0.0) is first  # drains the bucket
    sched.enqueue(big)
    # Dozens of premature polls never lose or duplicate the head packet.
    for i in range(30):
        assert sched.dequeue(i * 0.001) is None
    assert sched.backlog_pkts == 1
    out = sched.dequeue(1.0)  # refilled 1000 B by now
    assert out is big
    assert sched.backlog_pkts == 0


def test_rate_limited_class_keeps_fifo_order():
    bucket = TokenBucket(rate_bps=80_000, burst_bytes=150)
    q = DropTailQueue()
    sched = single(q, bucket)
    first, second = mkpkt(size=100), mkpkt(size=100)
    sched.enqueue(first)
    sched.enqueue(second)
    assert sched.dequeue(0.0) is first
    # Bucket drained below 100; the next head parks, then releases in order.
    got = sched.dequeue(0.0)
    if got is None:
        got = sched.dequeue(1.0)
    assert got is second


def test_next_ready_prefers_soonest_class():
    fast_bucket = TokenBucket(rate_bps=80_000, burst_bytes=10)
    slow_bucket = TokenBucket(rate_bps=8_000, burst_bytes=10)
    fast_q, slow_q = DropTailQueue(), DropTailQueue()
    sched = PriorityScheduler(
        lambda p: ["slow", "fast"].index(p.proto),
        [(slow_q, slow_bucket), (fast_q, fast_bucket)],
    )
    sched.enqueue(mkpkt(proto="slow", size=100))
    sched.enqueue(mkpkt(proto="fast", size=100))
    assert sched.dequeue(0.0) is None  # parks both heads
    ready = sched.next_ready(0.0)
    # The fast class becomes ready ~10x sooner; next_ready reports it.
    assert ready == pytest.approx(fast_bucket.time_until(100, 0.0), rel=0.01)


def test_parked_head_counts_in_parent_backlog():
    """A deferred head has left its child queue but not the scheduler:
    parent backlog must equal the children's sum plus the parked packet."""
    bucket = TokenBucket(rate_bps=8000, burst_bytes=500)
    q = DropTailQueue()
    sched = single(q, bucket)
    sched.enqueue(mkpkt(size=500))
    assert sched.dequeue(0.0) is not None  # drains the bucket
    sched.enqueue(mkpkt(size=500))
    sched.enqueue(mkpkt(size=500))
    assert sched.dequeue(0.0) is None  # parks the head
    assert q.backlog_pkts == 1  # one still queued in the child...
    assert sched.backlog_pkts == 2  # ...plus the parked head
    assert sched.backlog_bytes == 1000
    assert sched.dequeue(1.0) is not None  # 1000 B refilled: head released
    assert sched.backlog_pkts == 1


def test_next_ready_matches_bucket_wait_for_parked_head():
    """Once a head is parked, next_ready must report the bucket's exact
    token wait for that packet — links sleep on this instead of polling."""
    bucket = TokenBucket(rate_bps=8000, burst_bytes=400)  # 1000 B/s
    sched = single(DropTailQueue(), bucket)
    sched.enqueue(mkpkt(size=400))
    assert sched.dequeue(0.0) is not None
    pkt = mkpkt(size=300)
    sched.enqueue(pkt)
    assert sched.dequeue(0.0) is None  # parked
    assert sched.next_ready(0.0) == pytest.approx(
        bucket.time_until(pkt.size, 0.0)
    )


def test_child_and_unclassified_drop_reasons():
    hi = DropTailQueue(limit_bytes=100)
    sched = PriorityScheduler(only_a, [(hi, None)])
    assert sched.enqueue(mkpkt(proto="a", size=100))
    assert not sched.enqueue(mkpkt(proto="a", size=100))  # child rejects
    assert not sched.enqueue(mkpkt(proto="b"))  # no class claims it
    assert sched.drop_reasons == {"child": 1, "unclassified": 1}
    # Parent totals stay consistent with child sums plus unclassified.
    assert sched.drops == hi.drops + 1


def test_empty_scheduler_dequeue_and_ready():
    sched = single(DropTailQueue())
    assert sched.dequeue(0.0) is None
    assert sched.next_ready(0.0) is None


def test_classifier_runs_exactly_once_per_enqueue():
    calls = []

    def classify(pkt):
        calls.append(pkt)
        return {"a": 0, "b": 1}.get(pkt.proto)

    sched = PriorityScheduler(
        classify, [(DropTailQueue(), None), (DropTailQueue(limit_bytes=100), None)]
    )
    accepted, refused, unclaimed = mkpkt("a"), mkpkt("b", size=200), mkpkt("c")
    assert sched.enqueue(accepted)
    assert not sched.enqueue(refused)  # the child's tail drop
    assert not sched.enqueue(unclaimed)  # None: no class
    assert calls == [accepted, refused, unclaimed]
    assert sched.drop_reasons == {"child": 1, "unclassified": 1}


def test_empty_child_is_never_asked_to_dequeue():
    class Spy(DropTailQueue):
        dequeues_seen = 0

        def dequeue(self, now):
            self.dequeues_seen += 1
            return super().dequeue(now)

    idle, busy = Spy(), Spy()
    sched = PriorityScheduler(lambda p: 1, [(idle, None), (busy, None)])
    pkt = mkpkt()
    sched.enqueue(pkt)
    assert sched.dequeue(0.0) is pkt
    assert sched.dequeue(0.0) is None
    assert (idle.dequeues_seen, busy.dequeues_seen) == (0, 1)
