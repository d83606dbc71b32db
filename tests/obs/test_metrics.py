"""Tests for the metric primitives and the simulated-time sampler."""

import pytest

from repro.obs import MetricRegistry, Sampler, tally_items
from repro.sim import Simulator


class _Tally:
    """A component counting the one way the data path does: plain ints."""

    def __init__(self):
        self.drops = 0
        self.drop_bytes = 0


class TestRegistry:
    def test_tally_items_read_live_attributes(self):
        owner = _Tally()
        items = tally_items(owner, ("drops", "drop_bytes"))
        assert [name for name, _ in items] == ["drops", "drop_bytes"]
        owner.drops += 2
        owner.drop_bytes += 3000
        assert {name: read() for name, read in items} == {
            "drops": 2, "drop_bytes": 3000,
        }

    def test_gauge_reads_live_state(self):
        reg = MetricRegistry()
        box = {"v": 10}
        reg.gauge("box", lambda: box["v"])
        assert reg.sample()["box"] == 10
        box["v"] = 11
        assert reg.sample()["box"] == 11

    def test_duplicate_name_raises(self):
        reg = MetricRegistry()
        reg.gauge("a", lambda: 0)
        with pytest.raises(ValueError):
            reg.gauge("a", lambda: 0)

    def test_empty_name_raises(self):
        with pytest.raises(ValueError):
            MetricRegistry().gauge("", lambda: 0)

    def test_non_callable_source_raises(self):
        with pytest.raises(TypeError):
            MetricRegistry().gauge("x", 42)

    def test_sample_is_sorted_regardless_of_registration_order(self):
        reg = MetricRegistry()
        for name in ("z.last", "a.first", "m.middle"):
            reg.gauge(name, lambda: 0)
        assert list(reg.sample()) == ["a.first", "m.middle", "z.last"]
        assert reg.names() == ["a.first", "m.middle", "z.last"]

    def test_gauges_prefixes_a_components_items(self):
        reg = MetricRegistry()
        owner = _Tally()
        reg.gauges("link.b.qdisc", tally_items(owner, ("drops", "drop_bytes")))
        owner.drops += 1
        assert reg.sample() == {
            "link.b.qdisc.drop_bytes": 0, "link.b.qdisc.drops": 1,
        }
        assert "link.b.qdisc.drops" in reg
        assert len(reg) == 2


class TestSampler:
    def test_rows_land_on_interval_boundaries(self):
        sim = Simulator()
        reg = MetricRegistry()
        owner = _Tally()
        reg.gauge("ticks", lambda: owner.drops)
        sampler = Sampler(sim, reg, interval=0.5)
        # Bump the tally at 0.6 s; samples at 0.5 and 1.0 straddle it.
        sim.at(0.6, lambda: setattr(owner, "drops", 7))
        sim.run(until=2.0)
        times = [t for t, _ in sampler.rows]
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0])
        values = [row["ticks"] for _, row in sampler.rows]
        assert values == [0, 7, 7, 7]

    def test_series_pivots_rows(self):
        sim = Simulator()
        reg = MetricRegistry()
        reg.gauge("a", lambda: 0)
        sampler = Sampler(sim, reg, interval=1.0)
        sim.run(until=3.0)
        series = sampler.series()
        assert set(series) == {"a"}
        assert series["a"] == ((1.0, 0), (2.0, 0), (3.0, 0))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Sampler(Simulator(), MetricRegistry(), interval=0.0)
