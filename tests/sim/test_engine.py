"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator


def test_runs_events_in_time_order():
    sim = Simulator()
    seen = []
    sim.at(2.0, seen.append, "b")
    sim.at(1.0, seen.append, "a")
    sim.at(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_equal_timestamps_fire_in_fifo_order():
    sim = Simulator()
    seen = []
    for tag in range(10):
        sim.at(1.0, seen.append, tag)
    sim.run()
    assert seen == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.at(0.5, lambda: times.append(sim.now))
    sim.at(1.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [0.5, 1.25]


def test_after_schedules_relative_to_now():
    sim = Simulator()
    times = []

    def chain():
        times.append(sim.now)
        if len(times) < 3:
            sim.after(0.1, chain)

    sim.after(0.1, chain)
    sim.run()
    assert times == pytest.approx([0.1, 0.2, 0.3])


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.at(1.0, seen.append, 1)
    sim.at(5.0, seen.append, 5)
    processed = sim.run(until=2.0)
    assert processed == 1
    assert seen == [1]
    assert sim.now == 2.0
    sim.run()
    assert seen == [1, 5]


def test_run_until_with_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    event = sim.at(1.0, seen.append, "x")
    sim.cancel(event)
    sim.run()
    assert seen == []


def test_cancel_none_and_double_cancel_are_noops():
    sim = Simulator()
    sim.cancel(None)
    event = sim.at(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.run() == 0


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-0.1, lambda: None)


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.at(1.0, seen.append, 1)
    sim.at(2.0, sim.stop)
    sim.at(3.0, seen.append, 3)
    sim.run()
    assert seen == [1]
    # The remaining event is still pending and can run later.
    sim.run()
    assert seen == [1, 3]


def test_max_events_bounds_processing():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.at(float(i + 1), seen.append, i)
    processed = sim.run(max_events=2)
    assert processed == 2
    assert seen == [0, 1]


def test_pending_counts_only_live_events():
    sim = Simulator()
    keep = sim.at(1.0, lambda: None)
    drop = sim.at(2.0, lambda: None)
    sim.cancel(drop)
    assert sim.pending == 1
    assert keep is not None


def test_events_processed_accumulates():
    sim = Simulator()
    for i in range(3):
        sim.at(float(i), lambda: None)
    sim.run()
    sim.at(10.0, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_event_scheduled_at_current_time_during_run_fires():
    sim = Simulator()
    seen = []

    def first():
        sim.at(sim.now, seen.append, "second")
        seen.append("first")

    sim.at(1.0, first)
    sim.run()
    assert seen == ["first", "second"]


def test_run_is_not_reentrant():
    sim = Simulator()

    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.at(1.0, recurse)
    sim.run()


def test_callback_exception_keeps_counts():
    sim = Simulator()
    sim.after(1.0, lambda: None)

    def boom():
        raise ValueError("boom")

    sim.after(2.0, boom)
    sim.after(3.0, lambda: None)
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert sim.events_processed == 1
    assert sim.now == 2.0
    assert sim.pending == 1
    # The engine is reusable after the error.
    assert sim.run() == 1


class TestPendingCounter:
    """`Simulator.pending` is a live counter, not a heap scan."""

    def test_counts_scheduled_events(self):
        sim = Simulator()
        events = [sim.at(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending == 5
        sim.cancel(events[0])
        assert sim.pending == 4

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.at(1.0, lambda: None)
        other = sim.at(2.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending == 1
        sim.cancel(None)  # tolerated, no effect
        assert sim.pending == 1
        sim.cancel(other)
        assert sim.pending == 0

    def test_drains_to_zero_after_run(self):
        sim = Simulator()
        for i in range(4):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.pending == 0

    def test_cancelling_fired_event_does_not_underflow(self):
        # TCP timers are cancelled after they may already have fired;
        # that must not decrement the live count below reality.
        sim = Simulator()
        fired = sim.at(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        sim.cancel(fired)
        assert fired.cancelled  # legacy semantics: flag still set
        later = sim.at(2.0, lambda: None)
        assert sim.pending == 1
        sim.cancel(later)
        assert sim.pending == 0

    def test_run_until_keeps_future_events_pending(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.at(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.pending == 1


class TestHeapCompaction:
    """Cancelled entries must not accumulate in the event heap (the TCP
    timer re-arm pattern schedules and cancels far more events than it
    fires)."""

    def test_cancel_churn_keeps_heap_bounded(self):
        sim = Simulator()

        def noop():
            pass

        # Re-arm churn: schedule, then immediately cancel and replace.
        pending = sim.at(1000.0, noop)
        for i in range(10_000):
            sim.cancel(pending)
            pending = sim.at(1000.0 + i * 1e-3, noop)
        # Without compaction the heap would hold ~10_001 entries.
        assert len(sim._heap) < 200
        assert sim.pending == 1

    def test_compaction_happens_during_run(self):
        """Cancellations from inside callbacks (the realistic path) also
        trigger compaction."""
        sim = Simulator()
        fired = []
        timers = [sim.at(2000.0 + i, fired.append, i) for i in range(512)]

        def cancel_all():
            for ev in timers:
                sim.cancel(ev)

        sim.at(1.0, cancel_all)
        sim.run(until=10.0)
        assert fired == []
        assert len(sim._heap) < 64
        assert sim.pending == 0

    def test_compaction_preserves_order_and_results(self):
        sim = Simulator()
        seen = []
        keep = []
        for i in range(400):
            ev = sim.at(1.0 + i * 0.01, seen.append, i)
            if i % 4:
                sim.cancel(ev)
            else:
                keep.append(i)
        sim.run()
        assert seen == keep

    def test_churn_op_counts_are_exact(self):
        """Timer re-arm churn plus fire-and-forget deliveries: how many
        events fire, are scheduled and force a compaction is an exact
        function of the schedule."""
        from repro.perf import OpCountProbe

        sim = Simulator()

        def tick():
            pass

        with OpCountProbe() as probe:
            pending = None
            for i in range(20_000):
                if pending is not None and i % 4:
                    sim.cancel(pending)  # most re-armed timers never fire
                pending = sim.at(1.0 + i * 1e-3, tick)
                if i % 10 == 0:
                    sim.call_after(i * 1e-3, tick)
            sim.run()
        counts = probe.counts
        assert (counts.events_fired, counts.events_scheduled,
                counts.heap_compactions) == (7_000, 22_000, 10)

    def test_small_heaps_never_compact(self):
        from repro.perf import PERF

        sim = Simulator()
        before = PERF.heap_compactions
        for i in range(20):
            sim.cancel(sim.at(1.0 + i, lambda: None))
        assert PERF.heap_compactions == before


class TestCallAfter:
    """The uncancellable fire-and-forget fast path."""

    def test_fires_with_args_in_order(self):
        sim = Simulator()
        seen = []
        sim.call_after(2.0, seen.append, "b")
        sim.call_after(1.0, seen.append, "a")
        sim.at(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_interleaves_fifo_with_at_entries(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, seen.append, 0)
        sim.call_after(1.0, seen.append, 1)
        sim.at(1.0, seen.append, 2)
        sim.call_at(1.0, seen.append, 3)
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_after(-0.1, lambda: None)

    def test_counts_as_pending_and_processed(self):
        sim = Simulator()
        sim.call_after(1.0, lambda: None)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 1
