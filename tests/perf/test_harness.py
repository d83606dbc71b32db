"""Tests for the repro.perf benchmark harness and the op-count guard.

``run_bench()`` runs the real workloads (~0.5 s total), so the
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
def report():
    return run_bench()


class TestRunBench:
    def test_covers_every_workload(self, report):
        assert list(report.counts) == list(WORKLOADS)

    def test_each_workload_did_observable_work(self, report):
        for name, ops in sorted(report.counts.items()):
            # codec exercises no counted ops by design; the rest must.
            if name != "codec":
                assert sum(ops.to_dict().values()) > 0, name

    def test_fig8_exercises_the_whole_fast_path(self, report):
        ops = report.counts["fig8_e2e"]
        assert ops.events_fired > 0
        assert ops.hashes > 0
        assert ops.secret_cache_hits > 0
        assert ops.valcache_hits > 0
        assert ops.enqueues > 0

    def test_op_counts_are_repeatable(self, report):
        again = run_bench()
        assert guard_payload(again) == guard_payload(report)


class TestOpcountGuard:
    def test_round_trip_passes(self, report, tmp_path):
        path = tmp_path / "guard.json"
        write_guard(report, path)
        assert check_opcount_guard(report, load_guard(path)) == []

    def test_detects_a_drifted_counter(self, report, tmp_path):
        path = tmp_path / "guard.json"
        write_guard(report, path)
        guard = load_guard(path)
        guard["workloads"]["fig8_e2e"]["hashes"] += 1
        problems = check_opcount_guard(report, guard)
        assert len(problems) == 1
        assert "fig8_e2e.hashes" in problems[0]

    def test_detects_a_missing_workload(self, report, tmp_path):
        path = tmp_path / "guard.json"
        write_guard(report, path)
        guard = load_guard(path)
        guard["workloads"]["brand_new"] = {"hashes": 1}
        problems = check_opcount_guard(report, guard)
        assert problems == ["brand_new: workload missing from this run"]

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "guard.json"
        path.write_text('{"schema": "other/v9"}')
        with pytest.raises(ValueError):
            load_guard(path)

    def test_committed_guard_matches_a_fresh_run(self, report):
        """The CI gate, run locally: the committed guard is current."""
        problems = check_opcount_guard(report, load_guard(REPO_GUARD))
        assert problems == [], (
            "benchmarks/opcount_guard.json is stale; if the op-count "
            "change is intentional run: repro bench --update-guard"
        )
