"""Tests for the result types: aggregation math and JSON round-trips."""

import json
from pathlib import Path

import pytest

from repro.eval.results import (
    PointResult,
    RunResult,
    SweepResult,
    summarize_metrics,
    t95,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def _run(seed=1, frac=1.0, avg=0.3, series=((0.1, 0.3), (0.5, 0.3))):
    return RunResult(
        scheme="tva", attack="legacy", n_attackers=10, seed=seed,
        fraction_completed=frac, avg_transfer_time=avg,
        transfers_attempted=40, transfers_completed=int(40 * frac),
        time_series=tuple(tuple(p) for p in series), spec_key="k" * 64,
    )


class TestRunResult:
    def test_round_trip_preserves_tuples(self):
        run = _run()
        clone = RunResult.from_dict(run.to_dict())
        assert clone == run
        assert isinstance(clone.time_series, tuple)
        assert isinstance(clone.time_series[0], tuple)

    def test_json_round_trip(self):
        import json

        run = _run()
        assert RunResult.from_dict(json.loads(json.dumps(run.to_dict()))) == run


class TestSummarizeMetrics:
    """The one summary the text output, the report's Metrics table and
    the dynamics comparison all read, pinned on the two metrics goldens."""

    def _golden(self, name):
        data = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        return RunResult.from_dict(data).metrics

    def test_tva_golden(self):
        assert summarize_metrics(self._golden("fig8_tva_k10_metrics")) == {
            "util_peak": [("request", 0.000864),
                          ("regular", 0.5532159999999999),
                          ("legacy", 0.6112)],
            "flowstate_peak": 20,
            "demotions": 0,
        }

    def test_netfence_golden_has_no_router_tallies(self):
        # NetFence routers export neither flow state nor demotions: absent
        # (None), not zero, so the dynamics JSON can say null.
        assert summarize_metrics(
            self._golden("fig8_netfence_k10_metrics")) == {
            "util_peak": [("request", 0.0), ("regular", 0.0),
                          ("legacy", 1.000864)],
            "flowstate_peak": None,
            "demotions": None,
        }

    def test_only_router_scoped_names_count(self):
        metrics = {
            "finals": {"scheme.router.R1.demotions": 2,
                       "scheme.router.R2.demotions": 3,
                       "hosts.demotions": 100,
                       "scheme.router.R1.demotions_seen": 100},
            "series": {"scheme.router.R1.flowstate.entries": ((0.5, 4), (1.0, 9)),
                       "scheme.router.R2.flowstate.entries": ((0.5, 7),),
                       "other.flowstate.entries": ((0.5, 99),)},
        }
        summary = summarize_metrics(metrics)
        assert summary["demotions"] == 5
        assert summary["flowstate_peak"] == 9
        assert summary["util_peak"][2] == ("legacy", 0.0)


class TestStudentT:
    def test_exact_table_values(self):
        assert t95(1) == pytest.approx(12.706)
        assert t95(9) == pytest.approx(2.262)

    def test_interpolated_and_limit(self):
        assert 2.042 <= t95(12) <= 2.228
        assert t95(1000) == pytest.approx(1.960)
        assert t95(0) == 0.0


class TestPointResult:
    def test_single_run_has_zero_spread(self):
        point = PointResult.from_runs([_run()])
        assert point.n_seeds == 1
        assert point.fraction_mean == 1.0
        assert point.fraction_stdev == 0.0
        assert point.fraction_ci95 == 0.0

    def test_multi_seed_statistics(self):
        runs = [_run(seed=s, frac=f, avg=a)
                for s, f, a in ((1, 1.0, 0.3), (2, 0.8, 0.4), (3, 0.9, 0.5))]
        point = PointResult.from_runs(runs)
        assert point.fraction_mean == pytest.approx(0.9)
        assert point.fraction_stdev == pytest.approx(0.1)
        # t(2 dof) = 4.303: ci = 4.303 * 0.1 / sqrt(3)
        assert point.fraction_ci95 == pytest.approx(4.303 * 0.1 / 3 ** 0.5)
        assert point.time_mean == pytest.approx(0.4)

    def test_none_times_are_skipped(self):
        runs = [_run(seed=1, avg=0.5), _run(seed=2, avg=None)]
        point = PointResult.from_runs(runs)
        assert point.time_mean == pytest.approx(0.5)

    def test_all_none_times(self):
        point = PointResult.from_runs([_run(avg=None)])
        assert point.time_mean is None
        assert "-" in point.row()

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            PointResult.from_runs([])

    def test_row_shows_ci_only_with_replication(self):
        single = PointResult.from_runs([_run()])
        multi = PointResult.from_runs([_run(seed=1), _run(seed=2)])
        assert "n=" not in single.row()
        assert "n=2" in multi.row()

    def test_round_trip(self):
        point = PointResult.from_runs([_run(seed=1), _run(seed=2, frac=0.5)])
        assert PointResult.from_dict(point.to_dict()) == point


class TestSweepResult:
    def _sweep(self):
        points = [PointResult.from_runs([_run(seed=1), _run(seed=2)])]
        return SweepResult(title="Figure 8", points=points,
                           meta={"jobs": 4, "seeds": 2})

    def test_json_round_trip(self):
        sweep = self._sweep()
        clone = SweepResult.from_json(sweep.to_json())
        assert clone.title == sweep.title
        assert clone.points == sweep.points
        assert clone.meta == sweep.meta

    def test_table_contains_title_and_rows(self):
        table = self._sweep().table()
        assert table.startswith("Figure 8")
        assert "tva" in table
        assert "CI" in table  # replicated points advertise the interval
