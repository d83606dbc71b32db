"""Smoke tests of the public figure API at tiny scale.

A Figure 8/9/10 curve is ``build_flood_specs`` + ``SweepRunner``; Figure
11 has its own time-series record, the view of its ``FIGURES`` entry.
The benchmarks exercise these at experiment scale; here we pin the API
shape (types, fields, row counts) with seconds-long runs.
"""

from repro.api import (
    FIGURES,
    ExperimentConfig,
    RunResult,
    SweepRunner,
    build_flood_specs,
)
from repro.eval import Fig11Result

TINY = ExperimentConfig(duration=4.0)


def run_figure(attack, schemes, sweep):
    return SweepRunner(jobs=1).run(
        build_flood_specs(attack, schemes, sweep, TINY))


class TestFigureRunners:
    def test_fig8_runner_rows(self):
        results = run_figure("legacy", ("tva",), (1, 2))
        assert len(results) == 2
        assert all(isinstance(r, RunResult) for r in results)
        assert all(r.attack == "legacy" for r in results)
        assert {r.n_attackers for r in results} == {1, 2}

    def test_fig9_runner_rows(self):
        results = run_figure("request", ("internet",), (1,))
        assert len(results) == 1
        assert results[0].attack == "request"
        assert results[0].transfers_attempted > 0

    def test_fig10_runner_rows(self):
        results = run_figure("colluder", ("internet",), (1,))
        assert results[0].attack == "colluder"
        assert 0.0 <= results[0].fraction_completed <= 1.0

    def test_fig11_runner_result(self):
        result = FIGURES["fig11"].run(n_attackers=5, attack_start=2.0,
                                      duration=8.0)
        assert isinstance(result, Fig11Result)
        assert result.scheme == "tva"
        assert result.attack_start == 2.0
        assert result.series  # transfers completed

    def test_table_formatting(self):
        specs = build_flood_specs("legacy", ("tva",), (1,), TINY)
        table = SweepRunner(jobs=1).run_points(specs, title="t").table()
        assert table.startswith("t\n")
        assert "tva" in table
