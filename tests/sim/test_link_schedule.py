"""Randomized link schedule checks against closed forms.

A :class:`~repro.sim.Link` is a store-and-forward wire: one packet at a
time, each occupying it for ``size * 8 / bandwidth`` seconds and arriving
``delay`` later.  That model has closed forms, so these tests need no
second implementation to compare with.  Randomized arrival patterns go
through every qdisc family — FIFO, SFQ, DRR, and a TVA-shaped
rate-limited priority composition — with a mid-run ``set_down`` /
``set_up``, and assert:

* FIFO: each delivered packet leaves at ``max(arrival, previous end) +
  size * 8 / bandwidth`` and is delivered ``delay`` later, with exact
  float equality;
* every kind: transmissions never overlap on the wire, the wire is never
  idle while a sendable backlog exists, nothing starts while the link is
  down, and every packet sent is delivered, dropped by the qdisc, lost
  to the fault, or still queued.

Bandwidth and delay are deliberately non-commensurate (9.7 Mb/s,
1.3 ms) so boundary arithmetic differences of even one ulp show up.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    DRRFairQueue,
    DropTailQueue,
    Link,
    Packet,
    PriorityScheduler,
    Simulator,
    TokenBucket,
)
from repro.sim.queues import StochasticFairQueue

BANDWIDTH = 9.7e6
DELAY = 1.3e-3

QDISC_KINDS = ("fifo", "sfq", "drr", "priority")

#: The priority composition's rate-limited class: flow 0, 97 kb/s, 2 kB.
LIMITED_FLOW = 0
LIMIT_BPS = 97_000.0
LIMIT_BURST = 2_000

#: Inter-arrival gaps (seconds).  0.0 exercises same-instant arrivals;
#: the small values land arrivals mid-serialization (a 1500 B packet
#: takes ~1.24 ms on the wire), the large one drains the queue between
#: runs of arrivals.
GAPS = (0.0, 1e-4, 7e-4, 1.3e-3, 3.1e-3, 0.02)


def _make_qdisc(kind: str):
    if kind == "fifo":
        return DropTailQueue(limit_bytes=8_000)
    if kind == "sfq":
        return StochasticFairQueue(
            key_fn=lambda p: p.src, n_buckets=4, limit_bytes_per_queue=4_000
        )
    if kind == "drr":
        # max_queues=3 with four flows also exercises no_slot drops.
        return DRRFairQueue(
            key_fn=lambda p: p.src, limit_bytes_per_queue=4_000, max_queues=3
        )
    # TVA-shaped: a rate-limited request class above fair-queued regular
    # traffic above a best-effort legacy class.
    return PriorityScheduler(
        lambda p: 0 if p.src == LIMITED_FLOW else 1 if p.src == 1 else 2,
        [
            (
                DropTailQueue(limit_bytes=4_000),
                TokenBucket(LIMIT_BPS, burst_bytes=LIMIT_BURST),
            ),
            (
                DRRFairQueue(key_fn=lambda p: p.src,
                             limit_bytes_per_queue=4_000),
                None,
            ),
            (DropTailQueue(limit_bytes=6_000), None),
        ],
    )


class _Stub:
    """Minimal node endpoint: records deliveries."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.got = []

    def receive(self, pkt: Packet, link: Link) -> None:
        self.got.append((link.sim.now, pkt.uid))


class _Run:
    """One scenario driven to completion, with everything the link did
    recorded from outside it: arrivals, transmission starts (every
    successful ``dequeue`` or ``admit_idle``), deliveries, and the packet accounting at a
    mid-run cut and at the end."""

    def __init__(self, kind, arrivals, fault, cut):
        sim = Simulator()
        sink = _Stub("sink")
        qdisc = _make_qdisc(kind)
        link = Link(sim, _Stub("src"), sink, BANDWIDTH, DELAY, qdisc)
        self.arrival = {}  # uid -> (time, flow, size)
        self.starts = []   # (time, uid), in transmission order
        self.deliveries = sink.got
        self.down = None   # (down_at, up_at)

        starts = self.starts

        class Recorded(type(qdisc)):
            """The qdisc's own class, recording each transmission start."""

            __slots__ = ()

            def dequeue(self, now):
                pkt = super().dequeue(now)
                if pkt is not None:
                    starts.append((now, pkt.uid))
                return pkt

            def admit_idle(self, pkt, now):
                # The idle link's cut-through starts a packet without dequeue.
                head = super().admit_idle(pkt, now)
                if head is not None:
                    starts.append((now, head.uid))
                return head

        # Queues are slotted: the recording lives on a throwaway subclass.
        qdisc.__class__ = Recorded

        def send(flow, size, uid):
            self.arrival[uid] = (sim.now, flow, size)
            link.send(Packet(src=flow, dst=99, size=size, uid=uid))

        for uid, (t, flow, size) in enumerate(arrivals, start=1):
            sim.at(t, send, flow, size, uid)
        if fault is not None:
            down_at, up_gap = fault
            self.down = (down_at, down_at + up_gap)
            sim.at(down_at, link.set_down)
            sim.at(down_at + up_gap, link.set_up)

        def accounted():
            return (link.tx_packets, qdisc.drops, link.fault_drops,
                    qdisc.backlog_pkts)

        sim.run(until=cut)
        self.sent_at_cut = len(self.arrival)
        self.accounted_at_cut = accounted()
        self.delivered_at_cut = len(self.deliveries)
        sim.run()
        self.accounted = accounted()
        self.tx_bytes = link.tx_bytes

    def size(self, uid):
        return self.arrival[uid][2]

    def end(self, i):
        """When the i-th transmission leaves the wire."""
        start, uid = self.starts[i]
        return start + self.size(uid) * 8.0 / BANDWIDTH


@st.composite
def _scenario(draw):
    kind = draw(st.sampled_from(QDISC_KINDS))
    n = draw(st.integers(min_value=3, max_value=35))
    arrivals = []
    t = 0.0
    for _ in range(n):
        t += draw(st.sampled_from(GAPS))
        size = draw(st.integers(min_value=40, max_value=1500))
        flow = draw(st.integers(min_value=0, max_value=3))
        arrivals.append((t, flow, size))
    fault = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from((1.1e-3, 2.9e-3, 6.5e-3, 1.7e-2)),
                st.sampled_from((5e-4, 4.3e-3, 2.2e-2)),
            ),
        )
    )
    cut = draw(st.sampled_from((2e-3, 9e-3, 3e-2)))
    return kind, arrivals, fault, cut


@given(_scenario())
@settings(max_examples=150, deadline=None)
def test_schedule_matches_closed_forms(scenario):
    kind, arrivals, fault, cut = scenario
    run = _Run(kind, arrivals, fault, cut)

    # Conservation, mid-run and at the end: sent == on the wire or
    # delivered + qdisc drops + fault drops + still queued.
    assert run.sent_at_cut == sum(run.accounted_at_cut)
    assert run.delivered_at_cut <= run.accounted_at_cut[0]
    assert len(arrivals) == sum(run.accounted)
    tx_packets, _, _, queued = run.accounted
    assert queued == 0
    assert tx_packets == len(run.starts) == len(run.deliveries)
    assert run.tx_bytes == sum(run.size(uid) for _, uid in run.starts)

    # Each transmitted packet is delivered exactly serialization +
    # propagation after it started, in transmission order.
    assert run.deliveries == [
        (run.end(i) + DELAY, uid) for i, (_, uid) in enumerate(run.starts)
    ]

    # The bucket of the rate-limited class, modelled independently: full
    # at t = 0, refilled at LIMIT_BPS, charged at each flow-0 start.
    tokens, tokens_at = float(LIMIT_BURST), 0.0

    def tokens_by(t):
        return min(LIMIT_BURST, tokens + (t - tokens_at) * LIMIT_BPS / 8.0)

    for i, (start, uid) in enumerate(run.starts):
        arrived, flow, size = run.arrival[uid]
        prev_end = run.end(i - 1) if i else 0.0
        # One packet on the wire at a time.
        assert start >= prev_end
        if kind == "fifo":
            # Arrival order, each leaving (run.end) at max(arrival,
            # previous end) + size * 8 / bandwidth.
            assert start == max(arrived, prev_end)
            assert i == 0 or uid > run.starts[i - 1][1]
        # A down link starts nothing (an arrival processed at the very
        # instant of the cut may still start there).
        if run.down is not None:
            assert not run.down[0] < start < run.down[1]
        limited = kind == "priority" and flow == LIMITED_FLOW
        if limited:
            assert tokens_by(start) >= size - 1e-3
        # Work conservation: a packet starts the moment the wire frees
        # up or, on a free wire, the moment it arrives ...
        if start not in (prev_end, arrived):
            # ... except a rate-limited one, which starts when its
            # tokens accrue: 2 us earlier (the poll floor is 1 us) it
            # could not yet have been afforded.
            assert limited and start > arrived
            assert tokens_by(start - 2e-6) < size
        if limited:
            tokens, tokens_at = tokens_by(start) - size, start
