"""Tests for sharded, resumable sweeps (repro.eval.service): deterministic
partitioning, ``run_shard`` over a ``SweepRunner``, resume-after-failure
byte-identity from the shared cache, the progress log, and the
`repro sweep` CLI."""

import json

import pytest

from repro.api import (
    ExperimentConfig,
    ProgressLog,
    ResultCache,
    SweepRunner,
    build_flood_specs,
    parse_shard,
    run_shard,
    shard_specs,
)

FAST = ExperimentConfig(duration=3.0)


def fast_grid(schemes=("internet",), sweep=(1, 2, 3, 4)):
    return build_flood_specs("legacy", schemes, sweep, FAST)


def read_log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestParseShard:
    def test_parses(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)

    @pytest.mark.parametrize("text", ["2/2", "-1/2", "0/0", "1", "a/b",
                                      "1/2/3", ""])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)


class TestShardSpecs:
    def test_shards_partition_the_grid(self):
        specs = fast_grid(sweep=tuple(range(1, 9)))
        shards = [shard_specs(specs, i, 3) for i in range(3)]
        keys = sorted(k for shard in shards for k in
                      (s.key() for s in shard))
        assert keys == sorted(s.key() for s in specs)  # disjoint cover

    def test_single_shard_is_identity(self):
        specs = fast_grid()
        assert shard_specs(specs, 0, 1) == list(specs)

    def test_partition_is_deterministic_and_order_independent(self):
        specs = fast_grid(sweep=tuple(range(1, 9)))
        forward = {s.key() for s in shard_specs(specs, 1, 3)}
        backward = {s.key() for s in shard_specs(list(reversed(specs)), 1, 3)}
        assert forward == backward

    def test_rejects_bad_selectors(self):
        specs = fast_grid()
        with pytest.raises(ValueError):
            shard_specs(specs, 2, 2)
        with pytest.raises(ValueError):
            shard_specs(specs, 0, 0)


class TestSweepService:
    """``run_shard`` + ``SweepRunner.run_points`` over one shared cache."""

    def test_two_shards_cover_grid_with_zero_duplicates(self, tmp_path):
        specs = fast_grid()
        cache = ResultCache(tmp_path / "cache")
        logs = [tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"]
        reports = []
        for shard in (0, 1):
            runner = SweepRunner(jobs=1, cache=cache,
                                 on_event=ProgressLog(logs[shard]))
            reports.append(run_shard(runner, specs, shard, 2))
        assert all(r.ok for r in reports)
        assert sum(r.assigned for r in reports) == len(specs)
        assert sum(r.completed for r in reports) == len(specs)
        # Zero duplicate simulation executions across the two shards.
        done = [{r["key"] for r in read_log(log) if r["event"] == "done"}
                for log in logs]
        assert not done[0] & done[1]
        assert len(done[0] | done[1]) == len(specs)

    def test_merge_after_shards_is_pure_reassembly(self, tmp_path):
        specs = fast_grid()
        cache = ResultCache(tmp_path / "cache")
        for shard in (0, 1):
            run_shard(SweepRunner(jobs=1, cache=cache), specs, shard, 2)
        merge_cache = ResultCache(tmp_path / "cache")
        merged = SweepRunner(jobs=1, cache=merge_cache).run_points(
            specs, title="t")
        assert merge_cache.hits == len(specs)  # zero re-executions
        reference = SweepRunner(jobs=1).run_points(specs, title="t")
        assert merged.to_json() == reference.to_json()

    def test_seed_replications_are_sharded_too(self, tmp_path):
        specs = fast_grid(sweep=(1, 2))
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "cache"))
        reports = [run_shard(runner, specs, shard, 2, seeds=2)
                   for shard in (0, 1)]
        assert sum(r.assigned for r in reports) == len(specs) * 2
        merged = runner.run_points(specs, seeds=2, title="t")
        reference = SweepRunner(jobs=1).run_points(specs, seeds=2, title="t")
        assert merged.to_json() == reference.to_json()

    def test_rerun_is_served_from_cache(self, tmp_path):
        specs = fast_grid(sweep=(1, 2))
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "cache"))
        first = run_shard(runner, specs)
        assert (first.completed, first.cached) == (2, 0)
        again = run_shard(runner, specs)
        assert (again.completed, again.cached) == (0, 2)

    def test_requires_a_cache(self):
        with pytest.raises(ValueError, match="ResultCache"):
            run_shard(SweepRunner(jobs=1), fast_grid())

    def test_progress_log_timing_and_kinds(self, tmp_path):
        specs = fast_grid(sweep=(1,))
        log_path = tmp_path / "progress.jsonl"
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "c"),
                             on_event=ProgressLog(log_path))
        run_shard(runner, specs)
        run_shard(runner, specs)  # warm: cached event
        records = read_log(log_path)
        assert [r["event"] for r in records] == ["start", "done", "cached"]
        assert records[1]["elapsed"] > 0
        assert records[0]["scheme"] == "internet"


class TestCrashResume:
    """The acceptance bar: a sweep interrupted mid-grid resumes from the
    shared cache, re-executes only the incomplete specs, and the final
    SweepResult JSON is byte-identical to an uninterrupted run."""

    def failing_run_spec(self, real, bad_keys, calls):
        def wrapped(spec):
            calls.append(spec.key())
            if spec.key() in bad_keys:
                raise OSError("simulated mid-grid crash")
            return real(spec)
        return wrapped

    def test_interrupt_then_resume_is_byte_identical(self, tmp_path,
                                                     monkeypatch):
        from repro.eval import runner as runner_module

        specs = fast_grid()
        title = "crash-resume"

        # Reference: uninterrupted --jobs 1 run into its own cache.
        reference = SweepRunner(
            jobs=1, cache=ResultCache(tmp_path / "ref-cache"),
        ).run_points(specs, title=title).to_json()

        # Interrupted run: one spec crashes on every attempt.
        cache = ResultCache(tmp_path / "cache")
        log_path = tmp_path / "progress.jsonl"
        bad = {specs[2].key()}
        real = runner_module.run_spec
        calls = []
        monkeypatch.setattr(
            runner_module, "run_spec",
            self.failing_run_spec(real, bad, calls))
        runner = SweepRunner(jobs=1, cache=cache, retries=1,
                             on_event=ProgressLog(log_path))
        report = run_shard(runner, specs)
        assert not report.ok
        assert report.completed == len(specs) - 1
        (failure,) = report.failures
        assert failure.spec == specs[2]
        assert failure.attempts == 2
        assert "FAILED internet/legacy/k=3/seed=1 after 2 attempt(s): " \
            "OSError('simulated mid-grid crash')" in report.summary()

        # Resume in a new runner, as a re-invocation would: the crash is
        # gone; only the missing spec re-runs.
        monkeypatch.setattr(
            runner_module, "run_spec",
            self.failing_run_spec(real, set(), calls))
        calls.clear()
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "cache"),
                             retries=1, on_event=ProgressLog(log_path))
        resumed = run_shard(runner, specs)
        assert resumed.ok
        assert calls == [specs[2].key()]  # nothing else re-executed
        assert (resumed.completed, resumed.cached) == (1, len(specs) - 1)
        # The progress log is the one journal: failed, then done.
        verdicts = [r["event"] for r in read_log(log_path)
                    if r["key"] == specs[2].key()
                    and r["event"] in ("done", "failed")]
        assert verdicts == ["failed", "done"]

        # The merged grid is byte-identical to the uninterrupted run.
        merged = SweepRunner(jobs=1, cache=cache).run_points(
            specs, title=title).to_json()
        assert merged == reference


class TestSweepCli:
    def run_cli(self, args):
        from repro.cli import main

        return main(args)

    def base_args(self, tmp_path, extra=()):
        return ["sweep", "--schemes", "internet", "--sweep", "1,2",
                "--duration", "3", "--cache-dir",
                str(tmp_path / "cache")] + list(extra)

    def test_sharded_runs_then_merge_matches_jobs1(self, tmp_path, capsys):
        for shard in ("0/2", "1/2"):
            rc = self.run_cli(self.base_args(
                tmp_path, ["--shard", shard, "--jobs", "1"]))
            assert rc == 0
            capsys.readouterr()
        rc = self.run_cli(self.base_args(
            tmp_path, ["--jobs", "1", "--merge", "--json"]))
        assert rc == 0
        merged = capsys.readouterr().out
        rc = self.run_cli(["sweep", "--schemes", "internet", "--sweep",
                           "1,2", "--duration", "3", "--cache-dir",
                           str(tmp_path / "fresh"), "--jobs", "1",
                           "--json"])
        assert rc == 0
        assert capsys.readouterr().out == merged  # byte-identical

    def test_shard_run_writes_progress_log_and_no_manifest(self, tmp_path,
                                                           capsys):
        log = tmp_path / "progress.jsonl"
        rc = self.run_cli(self.base_args(
            tmp_path, ["--shard", "0/2", "--jobs", "1",
                       "--progress-log", str(log)]))
        assert rc == 0
        # Resume reads the cache alone: results are all a shard writes.
        cache_dir = tmp_path / "cache"
        assert not (cache_dir / "manifests").exists()
        assert {len(p.name) for p in cache_dir.iterdir()} == {2}
        assert log.exists()
        err = capsys.readouterr().err
        assert "shard 0/2" in err

    def test_ticker_and_progress_log_share_one_event_stream(self, tmp_path,
                                                            capsys):
        log = tmp_path / "progress.jsonl"
        args = self.base_args(tmp_path, ["--jobs", "1",
                                         "--progress-log", str(log)])
        assert self.run_cli(args) == 0  # cold: both specs run
        assert self.run_cli(args) == 0  # warm: both served from cache
        ticks = [tick.split("\n")[0].strip()
                 for tick in capsys.readouterr().err.split("\r")[1:]]
        done = ["internet k=1 seed=1 done", "internet k=2 seed=1 done"]
        cached = [f"{tick} (cached)" for tick in done]
        # Every pass ticks each spec once; the merge pass after each
        # shard pass is pure reassembly and is not journaled.
        assert ticks == done + cached + cached + cached
        events = [r["event"] for r in read_log(log)]
        assert events == ["start", "done", "start", "done",
                          "cached", "cached"]

    def test_failed_spec_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        from repro.eval import runner as runner_module

        def always_crash(spec):
            raise OSError("boom")

        monkeypatch.setattr(runner_module, "run_spec", always_crash)
        rc = self.run_cli(self.base_args(
            tmp_path, ["--jobs", "1", "--retries", "0"]))
        assert rc == 1
        assert "failed" in capsys.readouterr().err

    def test_rejects_bad_shard_selector(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_cli(self.base_args(tmp_path, ["--shard", "2/2"]))


def test_spec_shard_stability_across_hash_seeds():
    """Sharding is keyed by sha256 content hashes, so the partition must
    be identical under different PYTHONHASHSEED values (subprocess)."""
    import subprocess
    import sys

    code = (
        "from repro.api import build_flood_specs, ExperimentConfig, "
        "shard_specs\n"
        "specs = build_flood_specs('legacy', ('internet', 'tva'), "
        "(1, 2, 3), ExperimentConfig(duration=3.0))\n"
        "print([s.n_attackers for s in shard_specs(specs, 0, 2)], "
        "[s.scheme for s in shard_specs(specs, 0, 2)])\n"
    )
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
