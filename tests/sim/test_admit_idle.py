"""``Qdisc.admit_idle`` against the pair it stands for.

A link hands a packet that finds its discipline empty and its wire free
to ``admit_idle(pkt, now)``.  Its contract: return exactly what
``enqueue(pkt)`` followed at once by ``dequeue(now)`` returns, and leave
exactly the state that pair leaves — tallies, drop reasons, hooks fired,
DRR cursor, token level, parked heads.  Here every discipline family
first runs a random history that ends empty (so counters, the bucket and
the cursor are wherever that history left them), is deep-copied, and then
takes one packet through ``admit_idle`` on one copy and through the pair
on the other.  Both copies must agree at every level.

The same comparison pins the other shortcut a flood channel takes: TVA's
and SIFF's schedulers build each class when its first packet arrives,
and must behave exactly as twins whose classes were all built at once.
"""

import copy
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.netfence import MarkingFifo
from repro.baselines.siff import SiffData, SiffExplorer, SiffScheme
from repro.core import TvaScheme
from repro.core.header import RegularHeader, RequestHeader, figure2_class
from repro.sim import (
    DRRFairQueue,
    DropTailQueue,
    Packet,
    PriorityScheduler,
    Qdisc,
    TokenBucket,
)
from repro.sim.queues import StochasticFairQueue, _Flow


class Recorder:
    """A drop/mark hook that remembers which packets it saw."""

    def __init__(self):
        self.seen = []

    def __call__(self, pkt):
        self.seen.append(pkt.uid)


def _hooked(qdisc):
    qdisc.drop_hook = Recorder()
    return qdisc


def _marking():
    fifo = _hooked(MarkingFifo(limit_bytes=4_000, mark_threshold_bytes=1_000))
    fifo.mark_hook = Recorder()
    return fifo


def _tva():
    # 1 Mb/s: the request class gets 6.25 kB/s behind a 3 kB burst, so a
    # short history of requests starves it.
    sched = _hooked(TvaScheme(request_fraction=0.05).make_qdisc("bottleneck", 1e6))
    for child in sched.children:
        _hooked(child)
    return sched


def _generic_priority():
    """Figure 2's classes behind a classifier that refuses proto "u"."""
    return _hooked(PriorityScheduler(
        lambda p: None if p.proto == "u" else figure2_class(p),
        [
            (_hooked(DropTailQueue(limit_bytes=3_000)),
             TokenBucket(rate_bps=40_000, burst_bytes=2_000)),
            (_hooked(DRRFairQueue(key_fn=lambda p: p.dst,
                                  limit_bytes_per_queue=3_000,
                                  max_queues=2, quantum=500)), None),
            (_hooked(DropTailQueue(limit_bytes=None, limit_pkts=2)), None),
        ],
    ))


FAMILIES = {
    "droptail_bytes": lambda: _hooked(DropTailQueue(limit_bytes=3_000)),
    "droptail_pkts": lambda: _hooked(DropTailQueue(limit_bytes=None,
                                                   limit_pkts=2)),
    "marking_fifo": _marking,
    "drr": lambda: _hooked(DRRFairQueue(key_fn=lambda p: p.dst,
                                        limit_bytes_per_queue=3_000,
                                        max_queues=2, quantum=500)),
    "drr_no_slots": lambda: _hooked(DRRFairQueue(key_fn=lambda p: p.dst,
                                                 max_queues=0)),
    "sfq": lambda: _hooked(StochasticFairQueue(key_fn=lambda p: p.dst,
                                               n_buckets=2,
                                               limit_bytes_per_queue=3_000,
                                               quantum=700)),
    "tva": _tva,
    "priority": _generic_priority,
    # A rate-limited child may keep what it admitted: the parent must
    # count it queued, not dropped.
    "nested_priority": lambda: _hooked(PriorityScheduler(
        lambda p: 0, [(_generic_priority(), None)])),
}

KINDS = ("legacy", "request", "regular", "demoted", "unclassified")
#: 20 000 B overflows every per-key and byte limit above, 4 500 B only
#: the smaller ones; 1 000 B sits exactly on the marking threshold.
SIZES = (40, 500, 1_000, 1_508, 4_500, 20_000)


def _packet(uid, kind, size, dst):
    pkt = Packet(src=1, dst=dst, size=size,
                 proto="u" if kind == "unclassified" else "raw", uid=uid)
    if kind == "request":
        pkt.shim = RequestHeader(path_ids=[dst % 3 + 1])
    elif kind in ("regular", "demoted"):
        pkt.shim = RegularHeader(flow_nonce=dst)
        pkt.demoted = kind == "demoted"
    return pkt


packets = st.tuples(st.sampled_from(KINDS), st.sampled_from(SIZES),
                    st.integers(2, 5))
steps = st.one_of(
    st.tuples(st.just("enqueue"), packets),
    st.tuples(st.just("dequeue"), st.sampled_from((0.0, 0.01, 0.2))),
    st.tuples(st.just("drain"), st.none()),
)


def _run_history(qdisc, history):
    """Apply ``history``, then dequeue until empty; returns the clock."""
    now, uid = 0.0, 1000
    for op, arg in history:
        if op == "enqueue":
            uid += 1
            qdisc.enqueue(_packet(uid, *arg))
        elif op == "dequeue":
            now += arg
            qdisc.dequeue(now)
        else:
            qdisc.drain()
    while qdisc.backlog_pkts:
        # A starved class releases its parked head once tokens accrue.
        now += 0.01
        qdisc.dequeue(now)
    return now


#: Containers a discipline builds on first use, and what each reads as
#: before that: a FIFO not yet built is an empty one, a drop tally not yet
#: built is all zeros.
UNBUILT = {
    "_queue": lambda obj: deque(),
    "_drop_reasons": lambda obj: obj.drop_reasons,
}


def fields(obj):
    """Every attribute of ``obj``: the slots along its MRO (unbuilt
    containers as their empty form) and any instance ``__dict__``."""
    values = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            value = getattr(obj, name)
            if value is None and name in UNBUILT:
                value = UNBUILT[name](obj)
            values[name] = value
    return values


def state(obj):
    """Comparable form of a discipline's whole state: packets by uid,
    containers element-wise, objects by their fields, functions by name."""
    if isinstance(obj, Packet):
        return ("pkt", obj.uid, obj.demoted)
    if isinstance(obj, (list, tuple, deque)):
        return [state(item) for item in obj]
    if isinstance(obj, dict):
        # repro: allow-unordered-iter — builds a dict; == ignores order
        return {key: state(value) for key, value in obj.items()}
    if isinstance(obj, (Qdisc, TokenBucket, Recorder, _Flow)):
        return (type(obj).__name__, state(fields(obj)))
    if callable(obj):
        return ("fn", getattr(obj, "__qualname__", type(obj).__name__))
    return obj


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=50, deadline=None)
@given(history=st.lists(steps, max_size=25),
       arrival=packets,
       wait=st.sampled_from((0.0, 0.003, 0.05)))
def test_admit_idle_is_enqueue_then_dequeue(family, history, arrival, wait):
    qdisc = FAMILIES[family]()
    now = _run_history(qdisc, history) + wait
    assert qdisc.backlog_pkts == 0
    shortcut, pair = qdisc, copy.deepcopy(qdisc)
    got = shortcut.admit_idle(_packet(1, *arrival), now)
    want = pair.dequeue(now) if pair.enqueue(_packet(1, *arrival)) else None
    assert state(got) == state(want)
    assert state(shortcut) == state(pair)


@pytest.mark.parametrize(
    "family", sorted(set(FAMILIES) - {"drr_no_slots"}))  # that one holds nothing
def test_state_sees_what_is_queued(family):
    """Guards the comparison above: ``state`` must read down to the queued
    packets, or every pair would compare equal."""
    empty = FAMILIES[family]()
    one, other = copy.deepcopy(empty), copy.deepcopy(empty)
    assert one.enqueue(_packet(1, "legacy", 40, 2))
    assert other.enqueue(_packet(2, "legacy", 40, 2))
    assert state(one) != state(empty)
    # Same tallies; only the held packet differs.
    assert state(one) != state(other)


@pytest.mark.parametrize("family", ["tva", "priority", "nested_priority"])
def test_starved_request_is_parked(family):
    """The case the pair handles in two calls: the request class's bucket
    is dry, so the admitted request is parked, not sent — and, one level
    up, counted queued rather than refused."""
    sched = FAMILIES[family]()
    for uid in range(2):
        sched.enqueue(_packet(uid, "request", 1_508, 2))
        sched.dequeue(0.0)
    assert sched.backlog_pkts == 1  # the second request waits for tokens
    now = _run_history(sched, [])
    assert sched.admit_idle(_packet(9, "request", 1_508, 2), now) is None
    assert (sched.backlog_pkts, sched.drops) == (1, 0)


def test_redefining_enqueue_restores_the_default():
    """A subclass that changes ``enqueue`` must not inherit a shortcut
    that skips it."""
    class Lossy(DropTailQueue):
        def enqueue(self, pkt):
            return False

    assert Lossy.admit_idle is Qdisc.admit_idle
    assert StochasticFairQueue.admit_idle is DRRFairQueue.admit_idle
    assert Lossy().admit_idle(_packet(1, "legacy", 40, 2), 0.0) is None


#: The schedulers whose classes are built by their first packet.
FIRST_USE = {
    "tva": lambda: TvaScheme(request_fraction=0.05).make_qdisc("bottleneck", 1e6),
    "siff": lambda: SiffScheme().make_qdisc("bottleneck", 1e6),
}


def _siff_packet(uid, kind, size, dst):
    pkt = Packet(src=1, dst=dst, size=size, uid=uid)
    if kind == "request":
        pkt.shim = SiffExplorer()
    elif kind == "regular":
        pkt.shim = SiffData()
    return pkt


arrivals = st.tuples(st.just("arrive"), st.sampled_from(("request", "regular", "legacy")),
                     st.sampled_from((40, 1_000, 1_508)), st.integers(2, 5))
first_use_steps = st.tuples(
    st.sampled_from((0.0, 0.004, 0.05, 0.3)),
    st.one_of(arrivals, st.just(("dequeue",)), st.just(("drain",))),
)


def _as_built(sched):
    """``state`` of ``sched`` with every class built: an unbuilt class
    reads as the fresh one its first packet would build."""
    forced = copy.deepcopy(sched)
    forced.children
    return state(forced)


@pytest.mark.parametrize("scheme", sorted(FIRST_USE))
@settings(max_examples=150, deadline=None)
@given(start=st.sampled_from((0.0, 0.01, 5.0)),
       history=st.lists(first_use_steps, max_size=30),
       copy_at=st.integers(0, 8))
def test_class_built_on_first_use_matches_one_built_at_start(
        scheme, start, history, copy_at):
    """A scheduler building classes on first use, and a deep copy of it
    taken part-way (unbuilt classes and all), against a twin whose
    classes were all built at t = 0: same packets out, same state, same
    ``next_ready`` and ``drain`` — a late request bucket starts full.
    ``start`` puts the first arrival at once or long after t = 0."""
    make = _siff_packet if scheme == "siff" else _packet
    eager = FIRST_USE[scheme]()
    eager.children
    lazy = FIRST_USE[scheme]()
    assert not any(lazy.built)
    twins = [eager, lazy]
    now = start
    for step, (wait, op) in enumerate(history):
        if step == copy_at:
            twins.append(copy.deepcopy(lazy))
            assert twins[-1].built == lazy.built
        now += wait
        if op[0] == "arrive":
            # As a link does: an empty scheduler takes admit_idle.
            got = [sched.admit_idle(make(step, *op[1:]), now)
                   if not sched.backlog_pkts else sched.enqueue(make(step, *op[1:]))
                   for sched in twins]
        elif op[0] == "dequeue":
            got = [sched.dequeue(now) for sched in twins]
        else:
            got = [sched.drain() for sched in twins]
        assert all(state(g) == state(got[0]) for g in got)
        assert len({sched.next_ready(now) for sched in twins}) == 1
        want = state(eager)
        assert all(_as_built(sched) == want for sched in twins[1:])
    drained = [state(sched.drain()) for sched in twins]
    assert all(d == drained[0] for d in drained)
