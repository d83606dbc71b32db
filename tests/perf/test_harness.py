"""Tests for the repro.perf benchmark harness and the op-count guard.

``run_bench(quick=True)`` runs the real workloads (~0.5 s total), so the
report produced once by the module-scoped fixture is shared by every
test here.
"""

from pathlib import Path

import pytest

from repro.perf import run_bench
from repro.perf.harness import (
    WORKLOADS,
    check_opcount_guard,
    guard_payload,
    load_guard,
    write_guard,
)

REPO_GUARD = Path(__file__).parent.parent.parent / "benchmarks" / "opcount_guard.json"


@pytest.fixture(scope="module")
def quick_report():
    return run_bench(quick=True)


class TestRunBench:
    def test_covers_every_workload(self, quick_report):
        assert list(quick_report.counts) == list(WORKLOADS)

    def test_each_workload_did_observable_work(self, quick_report):
        for name, ops in sorted(quick_report.counts.items()):
            # codec exercises no counted ops by design; the rest must.
            if name != "codec":
                assert sum(ops.to_dict().values()) > 0, name

    def test_fig8_exercises_the_whole_fast_path(self, quick_report):
        ops = quick_report.counts["fig8_e2e"]
        assert ops.events_fired > 0
        assert ops.hashes > 0
        assert ops.secret_cache_hits > 0
        assert ops.valcache_hits > 0
        assert ops.enqueues > 0

    def test_op_counts_are_repeatable(self, quick_report):
        again = run_bench(quick=True)
        assert guard_payload(again) == guard_payload(quick_report)


class TestOpcountGuard:
    def test_round_trip_passes(self, quick_report, tmp_path):
        path = tmp_path / "guard.json"
        write_guard(quick_report, path)
        assert check_opcount_guard(quick_report, load_guard(path)) == []

    def test_detects_a_drifted_counter(self, quick_report, tmp_path):
        path = tmp_path / "guard.json"
        write_guard(quick_report, path)
        guard = load_guard(path)
        guard["workloads"]["fig8_e2e"]["hashes"] += 1
        problems = check_opcount_guard(quick_report, guard)
        assert len(problems) == 1
        assert "fig8_e2e.hashes" in problems[0]

    def test_detects_a_missing_workload(self, quick_report, tmp_path):
        path = tmp_path / "guard.json"
        write_guard(quick_report, path)
        guard = load_guard(path)
        guard["workloads"]["brand_new"] = {"hashes": 1}
        problems = check_opcount_guard(quick_report, guard)
        assert problems == ["brand_new: workload missing from this run"]

    def test_mode_mismatch_is_reported(self, quick_report):
        guard = guard_payload(quick_report)
        guard["quick"] = False
        problems = check_opcount_guard(quick_report, guard)
        assert len(problems) == 1
        assert "mode-specific" in problems[0]

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "guard.json"
        path.write_text('{"schema": "other/v9"}')
        with pytest.raises(ValueError):
            load_guard(path)

    def test_committed_guard_matches_a_fresh_run(self, quick_report):
        """The CI gate, run locally: the committed guard is current."""
        problems = check_opcount_guard(quick_report, load_guard(REPO_GUARD))
        assert problems == [], (
            "benchmarks/opcount_guard.json is stale; if the op-count "
            "change is intentional run: repro bench --quick --update-guard"
        )
