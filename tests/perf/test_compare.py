"""Tests for ``repro bench --compare`` and the scaling view.

The comparison logic is exercised on hand-built reports (no simulation),
and the CLI flag on a stubbed one-workload suite, so the suite stays
fast: the full quick bench already runs in ``test_bench_cli.py``.
"""

import json

import pytest

import repro.perf.harness as harness
from repro.cli import main
from repro.perf.harness import (
    BenchReport,
    OpCounts,
    SCHEMA,
    WorkloadResult,
    compare_reports,
    load_report,
    scaling_table,
)


def _report(wall: float, events: int, quick: bool = True) -> BenchReport:
    results = tuple(
        WorkloadResult(
            name,
            wall,
            OpCounts(events_fired=events, enqueues=10, dequeues=9, hashes=3),
        )
        for name in ("fig8_e2e", "flood_10k")
    )
    return BenchReport(quick=quick, results=results)


def _as_old(report: BenchReport) -> dict:
    return json.loads(json.dumps(report.to_dict()))


def test_compare_no_regressions():
    old = _as_old(_report(wall=0.4, events=1000))
    table, regressions = compare_reports(_report(wall=0.2, events=900), old)
    assert regressions == []
    assert "2.00x" in table
    assert "-100" in table  # Δevents improvement is visible


def test_compare_flags_increases_and_missing():
    old = _as_old(_report(wall=0.2, events=900))
    table, regressions = compare_reports(_report(wall=0.2, events=1000), old)
    assert any("events_fired" in r and "+100" in r for r in regressions)

    # A workload the old report lacks is new coverage, not a regression.
    old["workloads"].pop("flood_10k")
    _, regressions = compare_reports(_report(wall=0.2, events=900), old)
    assert regressions == []

    # But one the *new* run lacks is.
    old = _as_old(_report(wall=0.2, events=900))
    new = BenchReport(quick=True, results=_report(0.2, 900).results[:1])
    _, regressions = compare_reports(new, old)
    assert any("flood_10k" in r and "missing" in r for r in regressions)


def test_compare_names_one_sided_counters():
    # The old report predates ``hashes`` and still records a counter
    # this build no longer has; neither has a delta, neither regresses.
    old = _as_old(_report(wall=0.2, events=900))
    for name in sorted(old["workloads"]):
        op_counts = old["workloads"][name]["op_counts"]
        del op_counts["hashes"]
        op_counts["plans_committed"] = 7
    table, regressions = compare_reports(_report(wall=0.2, events=900), old)
    assert regressions == []
    assert "counter plans_committed: removed" in table
    assert "counter hashes: new" in table
    assert "counter events_fired" not in table


def test_compare_rejects_mode_mismatch():
    old = _as_old(_report(wall=0.2, events=900, quick=False))
    with pytest.raises(ValueError, match="quick"):
        compare_reports(_report(wall=0.2, events=900, quick=True), old)


def test_load_report_rejects_wrong_schema(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": "bogus/v9"}))
    with pytest.raises(ValueError, match="schema"):
        load_report(path)
    path.write_text(json.dumps(_as_old(_report(0.2, 900))))
    assert load_report(path)["schema"] == SCHEMA


def test_scaling_table_rows_and_throughput():
    report = BenchReport(
        quick=True,
        results=(
            WorkloadResult(
                "flood_10k", 2.0, OpCounts(events_fired=100, dequeues=50)
            ),
        ),
    )
    table = scaling_table(report)
    assert "10009" in table          # topology size column
    assert "50" in table             # events/s = 100 / 2.0
    # Workloads absent from the report are skipped, not zero-filled.
    assert "topo_tree" not in table


def test_scaling_points_cover_the_ladder():
    for name in harness.SCALING_POINTS:
        assert name in harness.WORKLOADS


@pytest.fixture
def tiny_suite(monkeypatch):
    """Shrink the bench suite to one sub-second workload."""

    def _tiny(quick: bool) -> None:
        from repro.sim.engine import Simulator

        sim = Simulator()
        for i in range(100):
            sim.call_after(i * 1e-3, lambda: None)
        sim.run()

    monkeypatch.setattr(harness, "WORKLOADS", {"event_loop": _tiny})


def test_cli_compare_round_trip(tiny_suite, tmp_path, capsys):
    out = tmp_path / "new.json"
    old = tmp_path / "old.json"
    assert main(["bench", "--quick", "--output", str(old),
                 "--guard", str(tmp_path / "g.json")]) == 0
    rc = main(["bench", "--quick", "--output", str(out),
               "--guard", str(tmp_path / "g.json"),
               "--compare", str(old)])
    assert rc == 0
    assert "no op-count regressions" in capsys.readouterr().out

    # Tamper the old report so this run's counts read as an increase.
    data = json.loads(old.read_text())
    data["workloads"]["event_loop"]["op_counts"]["events_fired"] -= 5
    old.write_text(json.dumps(data))
    rc = main(["bench", "--quick", "--output", str(out),
               "--guard", str(tmp_path / "g.json"),
               "--compare", str(old)])
    assert rc == 1
    assert "events_fired" in capsys.readouterr().err


def test_cli_compare_mode_mismatch_errors(tiny_suite, tmp_path, capsys):
    old = tmp_path / "old.json"
    assert main(["bench", "--quick", "--output", str(old),
                 "--guard", str(tmp_path / "g.json")]) == 0
    data = json.loads(old.read_text())
    data["quick"] = False
    old.write_text(json.dumps(data))
    rc = main(["bench", "--quick", "--output", str(tmp_path / "new.json"),
               "--guard", str(tmp_path / "g.json"), "--compare", str(old)])
    assert rc == 2
    assert "compare like modes" in capsys.readouterr().err
