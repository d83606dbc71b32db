"""Unit tests for the deterministic op-count instrumentation."""

from repro.perf import FIELDS, PERF, OpCountProbe, OpCounts, PerfCounters


class TestPerfCounters:
    def test_singleton_has_every_field(self):
        for name in FIELDS:
            assert isinstance(getattr(PERF, name), int)

    def test_snapshot_and_reset(self):
        counters = PerfCounters()
        counters.hashes += 3
        counters.enqueues += 1
        snap = counters.snapshot()
        assert snap["hashes"] == 3
        assert snap["enqueues"] == 1
        counters.reset()
        assert all(v == 0 for v in counters.snapshot().values())

    def test_fields_match_opcounts(self):
        assert tuple(OpCounts().to_dict()) == FIELDS


class TestOpCounts:
    def test_subtraction_is_fieldwise(self):
        a = OpCounts(hashes=5, enqueues=10)
        b = OpCounts(hashes=2, enqueues=4)
        delta = a - b
        assert delta.hashes == 3
        assert delta.enqueues == 6
        assert delta.dequeues == 0


class TestOpCountProbe:
    def test_probe_measures_delta_not_absolute(self):
        PERF.hashes += 7  # pre-existing noise the probe must ignore
        with OpCountProbe() as probe:
            PERF.hashes += 2
            PERF.dequeues += 1
        assert probe.counts.hashes == 2
        assert probe.counts.dequeues == 1

    def test_probe_captures_real_work(self):
        from repro.core import keyed_hash56

        with OpCountProbe() as probe:
            keyed_hash56(b"key", 1, 2, 3)
            keyed_hash56(b"key", 4, 5, 6)
        assert probe.counts.hashes == 2


class TestProbedMethods:
    """The per-packet counts are taken by wrappers the probe installs on
    the owning classes; an unprobed run executes the originals."""

    @staticmethod
    def _traffic():
        """One allocation (no reuse), one event, one enqueue, one dequeue,
        then one reuse."""
        from repro.sim import DropTailQueue, Simulator

        sim = Simulator()
        queue = DropTailQueue()
        pkt = sim.alloc_packet(1, 2, 100)
        sim.call_after(1.0, lambda: None)
        assert queue.enqueue(pkt)
        assert queue.dequeue(0.0) is pkt
        sim.release_packet(pkt)
        assert sim.alloc_packet(1, 2, 100) is pkt

    _ONCE = dict(enqueues=1, dequeues=1, events_scheduled=1, pool_reuses=1)

    def _per_packet(self, counts):
        return {name: getattr(counts, name) for name in self._ONCE}

    def test_counts_do_not_move_outside_a_probe(self):
        before = PERF.snapshot()
        self._traffic()
        assert PERF.snapshot() == before
        with OpCountProbe() as probe:
            self._traffic()
        assert self._per_packet(probe.counts) == self._ONCE

    def test_nested_probes_count_once(self):
        with OpCountProbe() as outer:
            with OpCountProbe() as inner:
                self._traffic()
            # The inner exit must not strip the outer probe's wrappers.
            self._traffic()
        assert self._per_packet(inner.counts) == self._ONCE
        assert self._per_packet(outer.counts) == {
            name: 2 for name in self._ONCE
        }

    def test_exception_in_body_uninstalls(self):
        from repro.sim import DropTailQueue, Simulator

        originals = (DropTailQueue.enqueue, Simulator.call_after)
        try:
            with OpCountProbe():
                assert DropTailQueue.enqueue is not originals[0]
                raise RuntimeError("body failed")
        except RuntimeError:
            pass
        assert (DropTailQueue.enqueue, Simulator.call_after) == originals
        before = PERF.snapshot()
        self._traffic()
        assert PERF.snapshot() == before

    def test_subclass_reaching_enqueue_through_super_counts_once(self):
        from repro.baselines.netfence import MarkingFifo
        from repro.sim import Packet

        fifo = MarkingFifo(limit_bytes=150, mark_threshold_bytes=50)
        with OpCountProbe() as probe:
            assert fifo.enqueue(Packet(1, 2, 100))
            assert not fifo.enqueue(Packet(1, 2, 100))  # tail drop: no count
        assert probe.counts.enqueues == 1

    def test_hierarchy_counts_once_per_level_and_drain_by_length(self):
        from repro.sim import DropTailQueue, Packet, PriorityScheduler

        sched = PriorityScheduler(lambda p: 0, [(DropTailQueue(), None)])
        with OpCountProbe() as probe:
            for _ in range(3):
                assert sched.enqueue(Packet(1, 2, 100))
            assert sched.dequeue(0.0) is not None
            assert len(sched.drain()) == 2
        # Parent and child each count: 3 + 3 in, (1 + 2) + (1 + 2) out.
        assert probe.counts.enqueues == 6
        assert probe.counts.dequeues == 6

    def test_wrappers_repeat_the_wrapped_signatures(self):
        """The rules spell out each signature (``*args, **kwargs`` costs
        more than the call it counts); a drifted default or parameter
        would change behaviour under a probe only."""
        import inspect

        from repro.perf.opcounts import PROBED

        def shape(function):
            # getfullargspec reads the function itself, not __wrapped__.
            spec = inspect.getfullargspec(function)
            return (len(spec.args), spec.varargs is not None,
                    spec.varkw is not None, spec.defaults, spec.kwonlyargs)

        originals = [cls.__dict__[name] for cls, name, _ in PROBED]
        with OpCountProbe():
            for (cls, name, _), original in zip(PROBED, originals):
                wrapper = cls.__dict__[name]
                assert wrapper is not original
                assert shape(wrapper) == shape(original), (cls.__name__, name)
