"""Tests for the sweep-runner subsystem: specs, cache, parallel execution."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    ExperimentConfig,
    ResultCache,
    ScenarioSpec,
    SweepRunner,
    build_fig11_spec,
    build_flood_specs,
    run_spec,
    tree_spec,
)
from repro.eval.results import RunResult
from repro.scenarios import FIGURES

FAST = ExperimentConfig(duration=3.0)
INF, NAN = float("inf"), float("nan")


def fig11_spec(**params):
    """The ``repro fig11`` spec at ``params``."""
    (spec,) = FIGURES["fig11"].specs(**params)
    return spec


def _with(**fields):
    """Damage: the stored result with ``fields`` replaced."""
    def damage(text):
        return json.dumps({**json.loads(text), **fields}).encode()
    return damage


def _flip_byte(text):
    """Damage: one bit flipped in a field name (time_series -> uime_series)."""
    data = bytearray(text.encode())
    data[text.index('"time_series"') + 1] ^= 0x01
    return bytes(data)


#: Ways a cache entry can be damaged; each must read as a miss.
DAMAGE = {
    "truncated": lambda text: text[: len(text) // 2].encode(),
    "flipped-byte": _flip_byte,
    "non-dict": lambda text: json.dumps([json.loads(text)]).encode(),
    "wrong-spec-key": _with(spec_key="0" * 64),
    "metrics-list": _with(metrics=[]),
    "metrics-string": _with(metrics="finals"),
    "metrics-finals-list": _with(metrics={"finals": [], "series": {}}),
    "metrics-series-1-tuples": _with(
        metrics={"finals": {}, "series": {"m": [[0.5]]}}),
    "time-series-string": _with(time_series="ab"),
    "time-series-1-tuples": _with(time_series=[[1.0], [2.0]]),
}


@pytest.fixture(scope="module")
def damage_fresh():
    spec = ScenarioSpec("internet", "legacy", 1, config=FAST)
    return spec, run_spec(spec)


def failing_spec():
    """A spec that validates but raises inside ``run_spec`` (so in the
    worker process for jobs>1): a colluder flood on a topology that has
    no colluder host."""
    return ScenarioSpec("internet", "colluder", 1, config=FAST,
                        topology=tree_spec())


class TestScenarioSpec:
    def test_key_is_stable(self):
        a = ScenarioSpec("tva", "legacy", 5, config=FAST)
        b = ScenarioSpec("tva", "legacy", 5, config=ExperimentConfig(duration=3.0))
        assert a.key() == b.key()
        assert hash(a) == hash(b)

    def test_key_changes_with_any_field(self):
        base = ScenarioSpec("tva", "legacy", 5, config=FAST)
        assert base.key() != dataclasses.replace(base, scheme="siff").key()
        assert base.key() != dataclasses.replace(base, n_attackers=6).key()
        assert base.key() != base.with_seed(2).key()
        assert base.key() != dataclasses.replace(
            base, config=dataclasses.replace(FAST, duration=4.0)).key()

    def test_key_is_hex_sha256(self):
        key = ScenarioSpec("tva", "legacy", 1).key()
        assert len(key) == 64
        int(key, 16)

    def test_with_seed(self):
        spec = ScenarioSpec("tva", "legacy", 1, seed=3)
        assert spec.with_seed(7).seed == 7
        assert spec.seed == 3  # original untouched

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ScenarioSpec("tva", "legacy", 1, policy="bogus")

    def test_specs_pickle(self):
        import pickle

        spec = ScenarioSpec("siff", "request", 4, config=FAST,
                            policy="filtering")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_stale_engine_key_is_a_named_error(self):
        # Specs stored while ExperimentConfig had an ``engine`` field
        # carry it only as "fast"; loading one must say what to do.
        stored = ScenarioSpec("tva", "legacy", 5, config=FAST).to_dict()
        assert "engine" not in stored["config"]
        stored["config"]["engine"] = "fast"
        for load, data in (
            (ScenarioSpec.from_dict, stored),
            (ExperimentConfig.from_dict, stored["config"]),
        ):
            with pytest.raises(ValueError, match="removed field 'engine'.*"
                                                 "identical without it"):
                load(data)

    @pytest.mark.parametrize("knob", ["secret_period", "accept_previous",
                                      "mark_bits"])
    def test_stale_siff_key_is_a_named_error(self, knob):
        # Specs stored before SIFF's knobs moved to scheme_options.
        stored = ScenarioSpec("siff", "legacy", 5, config=FAST).to_dict()
        stored[f"siff_{knob}"] = 3
        with pytest.raises(ValueError, match=f"removed field 'siff_{knob}'.*"
                                             f"scheme_options.*\"{knob}\""):
            ScenarioSpec.from_dict(stored)

    def test_from_dict_defaults_a_missing_config(self):
        spec = ScenarioSpec.from_dict(
            {"scheme": "tva", "attack": "legacy", "n_attackers": 5})
        assert spec == ScenarioSpec("tva", "legacy", 5)

    @pytest.mark.parametrize("field,data", [
        ("spec", []),
        ("config", {"scheme": "tva", "attack": "legacy", "n_attackers": 5,
                    "config": [1]}),
        ("topology", {"scheme": "tva", "attack": "legacy", "n_attackers": 5,
                      "topology": "tree"}),
        ("topology", {"scheme": "tva", "attack": "legacy", "n_attackers": 5,
                      "topology": {"nodes": []}}),
    ], ids=["spec-list", "config-list", "topology-str", "topology-no-name"])
    def test_from_dict_names_the_malformed_field(self, field, data):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_dict(data)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme 'tvaa'.*tva"):
            ScenarioSpec("tvaa", "legacy", 1)

    @pytest.mark.parametrize("field,kwargs", [
        ("n_attackers", {"n_attackers": -3}),
        ("config.n_users", {"config": ExperimentConfig(n_users=-1)}),
        ("config.duration", {"config": ExperimentConfig(duration=-1.0)}),
    ], ids=["n_attackers", "n_users", "duration"])
    def test_rejects_negative_counts_and_durations(self, field, kwargs):
        # These used to build, hash and fail inside the run (or, for the
        # duration, "measure" a completion fraction of 0.00).
        spec = {"scheme": "internet", "attack": "legacy", "n_attackers": 1,
                **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
            ScenarioSpec(**spec)

    @pytest.mark.parametrize("field,kwargs", [
        ("config.duration", {"config": ExperimentConfig(duration=INF)}),
        ("config.bottleneck_bps",
         {"config": ExperimentConfig(bottleneck_bps=NAN)}),
        ("config.attack_rate_bps",
         {"config": ExperimentConfig(attack_rate_bps=NAN)}),
        ("attack_start", {"attack_start": -INF}),
        ("group_stagger", {"group_stagger": NAN}),
        ("metrics_interval", {"metrics_interval": INF}),
    ], ids=["duration", "bottleneck_bps", "attack_rate_bps", "attack_start",
            "group_stagger", "metrics_interval"])
    def test_rejects_non_finite_floats(self, field, kwargs):
        # A NaN or infinite time never lets a closed-loop run end, and a
        # NaN rate puts NaN times into the event heap.
        spec = {"scheme": "internet", "attack": "legacy", "n_attackers": 1,
                **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ScenarioSpec(**spec)

    def test_zero_duration_and_counts_stay_legal(self):
        # A set-up-only spec (duration 0) and an attack-free run are fine.
        ScenarioSpec("tva", "legacy", 0,
                     config=ExperimentConfig(duration=0.0, n_users=0))

    @pytest.mark.parametrize("scheme,knob,value", [
        ("tva", "request_fraction", 2.0),   # used to run and be cached
        ("tva", "request_fraction", 0),     # used to fail in the worker
        ("tva", "regular_qdisc", "foo"),    # likewise
        ("netfence", "mark_threshold_fraction", 0),
        ("netfence", "mark_threshold_fraction", 1.5),
        ("netfence", "beta", 1.0),
    ])
    def test_rejects_out_of_range_knob(self, scheme, knob, value):
        with pytest.raises(ValueError, match=f"scheme '{scheme}': {knob}="):
            ScenarioSpec(scheme, "legacy", 1, scheme_options={knob: value})

    @pytest.mark.parametrize("knob,value", [
        ("request_fraction", 2.0),   # used to build, hash, and fail in
        ("request_fraction", 0.0),   # the worker after retries
        ("regular_qdisc", "foo"),
    ])
    def test_rejects_out_of_range_config_knob(self, knob, value):
        # The same knobs reach TVA through ExperimentConfig; one
        # validation path means they fail at spec-build time too.
        with pytest.raises(ValueError, match=f"scheme 'tva': {knob}="):
            ScenarioSpec("tva", "legacy", 1,
                         config=ExperimentConfig(**{knob: value}))
        # A scheme that never reads the knob is unaffected by it.
        ScenarioSpec("internet", "legacy", 1,
                     config=ExperimentConfig(**{knob: value}))


class TestSpecBuilders:
    def test_flood_specs_cover_the_grid(self):
        specs = build_flood_specs("legacy", ("tva", "siff"), (1, 10), FAST)
        assert len(specs) == 4
        assert {(s.scheme, s.n_attackers) for s in specs} == {
            ("tva", 1), ("tva", 10), ("siff", 1), ("siff", 10)}
        assert all(s.policy == "server" for s in specs)

    def test_request_specs_carry_filtering_policy(self):
        specs = build_flood_specs("request", ("tva",), (1,), FAST)
        assert specs[0].policy == "filtering"

    def test_fig11_spec_staggers_groups(self):
        spec = fig11_spec(scheme="siff", pattern="staggered", duration=20.0)
        assert spec.policy == "oracle"
        assert spec.attack_groups == 10
        assert spec.group_stagger == pytest.approx(3.0)
        assert spec.config.duration == 20.0

    def test_fig11_siff_knobs_ride_scheme_options(self):
        # The paper's Figure 11 SIFF (3 s turnover, no previous-secret
        # grace) plus idealized 16-bit marks; other schemes take defaults.
        from repro.api import build_scheme
        from repro.baselines import SiffScheme
        from repro.eval.experiments import merged_scheme_options

        spec = fig11_spec(scheme="siff")
        scheme = build_scheme("siff", merged_scheme_options(
            "siff", spec.config, spec.scheme_options))
        assert isinstance(scheme, SiffScheme)
        assert scheme.secret_period == 3.0
        assert not scheme.accept_previous
        assert scheme.mark_bits == 16
        assert fig11_spec(scheme="tva").scheme_options == {}
        assert fig11_spec(scheme="netfence").scheme_options == {}

    def test_fig11_spec_rejects_bad_pattern(self):
        with pytest.raises(ValueError):
            fig11_spec(pattern="sideways")

    def test_fig11_spec_copies_the_config(self):
        config = ExperimentConfig(duration=99.0)
        spec = build_fig11_spec("tva", "all_at_once", n_attackers=100,
                                attack_start=10.0, duration=5.0, config=config)
        assert spec.config.duration == 5.0
        assert config.duration == 99.0


class TestRunSpec:
    def test_seed_overrides_config_seed(self):
        spec = ScenarioSpec("internet", "legacy", 3, seed=9,
                            config=dataclasses.replace(FAST, seed=1))
        direct = run_spec(dataclasses.replace(
            spec, config=dataclasses.replace(FAST, seed=9)))
        assert run_spec(spec).time_series == direct.time_series

    def test_result_carries_spec_key(self):
        spec = ScenarioSpec("tva", "legacy", 1, config=FAST)
        assert run_spec(spec).spec_key == spec.key()


class TestDeterminism:
    """The same spec must measure identically however it is executed."""

    def test_same_spec_twice_is_bit_identical(self):
        spec = ScenarioSpec("internet", "legacy", 3, config=FAST)
        assert run_spec(spec) == run_spec(spec)

    def test_serial_vs_parallel_identical(self):
        specs = build_flood_specs("legacy", ("tva", "internet"), (1, 3), FAST)
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=4).run(specs)
        assert serial == parallel
        for a, b in zip(serial, parallel):
            assert a.time_series == b.time_series  # bit-identical summaries

    def test_parallel_preserves_input_order(self):
        specs = build_flood_specs("legacy", ("internet",), (3, 1, 2), FAST)
        runs = SweepRunner(jobs=3).run(specs)
        assert [r.n_attackers for r in runs] == [3, 1, 2]


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec("tva", "legacy", 1, config=FAST)
        assert cache.get(spec.key()) is None
        result = run_spec(spec)
        cache.put(spec.key(), result)
        assert cache.get(spec.key()) == result
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec("tva", "legacy", 1, config=FAST)
        path = cache.path_for(spec.key())
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(spec.key()) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = RunResult("tva", "legacy", 1, 1, 1.0, 0.3, 10, 10,
                           spec_key="deadbeef")
        cache.put("feedface", result)
        assert cache.get("feedface") is None

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = RunResult("tva", "legacy", 1, 1, 1.0, 0.3, 10, 10,
                           spec_key="aa11")
        cache.put("aa11", result)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_runner_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = build_flood_specs("legacy", ("internet",), (1, 2), FAST)
        runner = SweepRunner(jobs=1, cache=cache)
        cold = runner.run(specs)
        assert len(cache) == 2
        warm = runner.run(specs)
        assert warm == cold
        assert cache.hits == 2

    def test_cached_result_equals_fresh_run(self, tmp_path):
        """The JSON round-trip through the cache loses nothing."""
        spec = ScenarioSpec("tva", "legacy", 2, config=FAST)
        cache = ResultCache(tmp_path)
        fresh = run_spec(spec)
        cache.put(spec.key(), fresh)
        assert cache.get(spec.key()) == fresh

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_a_miss_and_recomputed(self, tmp_path, damage,
                                                     damage_fresh):
        spec, fresh = damage_fresh
        cache = ResultCache(tmp_path)
        path = cache.path_for(spec.key())
        path.parent.mkdir(parents=True)
        path.write_bytes(DAMAGE[damage](json.dumps(fresh.to_dict())))
        assert cache.get(spec.key()) is None
        events = []
        (result,) = SweepRunner(jobs=1, cache=cache, on_event=lambda e:
                                events.append(e.kind)).run([spec])
        assert events == ["start", "done"]  # a miss, not a crash or a hit
        assert result == fresh
        assert cache.get(spec.key()) == fresh  # the entry was overwritten


class TestFaultTolerance:
    """Regression: one worker exception used to abort the whole sweep,
    discarding every completed-but-uncached sibling result.  Now each
    spec is retried up to the cap, siblings always complete and cache,
    and a SweepFailure naming the losers is raised only at the end."""

    def specs_with_one_bad(self):
        good = build_flood_specs("legacy", ("internet",), (1, 2), FAST)
        return [good[0], failing_spec(), good[1]]

    def assert_siblings_survive(self, jobs, tmp_path):
        from repro.eval.runner import SweepFailure

        cache = ResultCache(tmp_path)
        specs = self.specs_with_one_bad()
        runner = SweepRunner(jobs=jobs, cache=cache, retries=1)
        with pytest.raises(SweepFailure) as excinfo:
            runner.run(specs)
        failure = excinfo.value
        # Both good siblings completed, in input order, and were cached.
        assert failure.results[0] is not None
        assert failure.results[1] is None
        assert failure.results[2] is not None
        assert cache.contains(specs[0].key())
        assert cache.contains(specs[2].key())
        (spec_failure,) = failure.failures
        assert spec_failure.spec == specs[1]
        assert spec_failure.attempts == 2  # first try + one retry
        assert "colluder" in spec_failure.error

    def test_serial_failure_does_not_abort_siblings(self, tmp_path):
        self.assert_siblings_survive(1, tmp_path)

    def test_pool_failure_does_not_abort_siblings(self, tmp_path):
        self.assert_siblings_survive(4, tmp_path)

    def test_retries_zero_fails_after_one_attempt(self):
        from repro.eval.runner import SweepFailure

        specs = [failing_spec()]
        with pytest.raises(SweepFailure) as excinfo:
            SweepRunner(jobs=1, retries=0).run(specs)
        assert excinfo.value.failures[0].attempts == 1

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=1, retries=-1)

    def test_event_stream_success_and_cache_hit(self, tmp_path):
        events = []
        cache = ResultCache(tmp_path)
        specs = build_flood_specs("legacy", ("internet",), (1,), FAST)
        runner = SweepRunner(jobs=1, cache=cache,
                             on_event=lambda e: events.append(e))
        runner.run(specs)
        assert [e.kind for e in events] == ["start", "done"]
        runner.run(specs)
        assert [e.kind for e in events] == ["start", "done", "cached"]

    def test_event_stream_retry_then_failed(self):
        from repro.eval.runner import SweepFailure

        events = []
        specs = [failing_spec()]
        runner = SweepRunner(jobs=1, retries=1,
                             on_event=lambda e: events.append(e))
        with pytest.raises(SweepFailure):
            runner.run(specs)
        assert [e.kind for e in events] == [
            "start", "retry", "start", "failed"]
        assert events[1].attempt == 1
        assert events[3].attempt == 2
        assert events[3].error and "colluder" in events[3].error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retries_run_in_rounds(self, jobs):
        # A failed attempt is retried in the next round — in-process,
        # after its siblings' first attempts, exactly as on a pool.
        from repro.eval.runner import SweepFailure

        bad = failing_spec()
        good = ScenarioSpec("internet", "legacy", 1, config=FAST)
        events = []
        runner = SweepRunner(jobs=jobs, retries=1,
                             on_event=lambda e: events.append(e))
        with pytest.raises(SweepFailure) as excinfo:
            runner.run([bad, good])
        assert excinfo.value.results[1] == run_spec(good)
        order = [(e.kind, "bad" if e.spec == bad else "good")
                 for e in events]
        if jobs == 1:
            assert order == [("start", "bad"), ("retry", "bad"),
                             ("start", "good"), ("done", "good"),
                             ("start", "bad"), ("failed", "bad")]
        else:  # completion order within a pool round is not fixed
            assert order[:2] == [("start", "bad"), ("start", "good")]
            assert sorted(order[2:4]) == [("done", "good"), ("retry", "bad")]
            assert order[4:] == [("start", "bad"), ("failed", "bad")]

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        """A spec that fails once then succeeds (a crashed worker's
        retry) completes the sweep with no failure raised."""
        from repro.eval import runner as runner_module

        real_run_spec = runner_module.run_spec
        spec = ScenarioSpec("internet", "legacy", 1, config=FAST)
        calls = {"n": 0}

        def flaky(s):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("simulated worker crash")
            return real_run_spec(s)

        monkeypatch.setattr(runner_module, "run_spec", flaky)
        (result,) = SweepRunner(jobs=1, retries=1).run([spec])
        assert calls["n"] == 2
        assert result == real_run_spec(spec)


class TestSweepRunner:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_defaults_jobs_to_cpu_count(self):
        import os

        assert SweepRunner().jobs == (os.cpu_count() or 1)

    def test_progress_callback_fires(self, tmp_path):
        # on_event is the one progress channel: a spec is finished once
        # per run, as "done" when simulated and "cached" when served.
        seen = []
        cache = ResultCache(tmp_path)
        specs = build_flood_specs("legacy", ("internet",), (1,), FAST)
        runner = SweepRunner(jobs=1, cache=cache,
                             on_event=lambda e: seen.append(e.kind))
        runner.run(specs)
        runner.run(specs)
        assert [k for k in seen if k in ("done", "cached")] == [
            "done", "cached"]

    def test_import_loads_no_process_pool(self):
        # Only a runner that builds a pool imports it: a serial run (and
        # every process that merely imports the API) skips multiprocessing.
        probe = ("import sys, repro.api; print(sorted({'multiprocessing', "
                 "'concurrent.futures.process'} & set(sys.modules)))")
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True,
                              env={"PYTHONPATH": src})
        assert proc.stdout.strip() == "[]"

    def test_takes_jobs_cache_retries_on_event_only(self):
        import inspect

        assert list(inspect.signature(SweepRunner).parameters) == [
            "jobs", "cache", "retries", "on_event"]

    def test_run_points_aggregates_seeds(self):
        specs = build_flood_specs("legacy", ("internet",), (1,), FAST)
        sweep = SweepRunner(jobs=1).run_points(specs, seeds=3, title="t")
        (point,) = sweep.points
        assert point.n_seeds == 3
        assert {r.seed for r in point.runs} == {1, 2, 3}
        assert sweep.meta["seeds"] == 3

    def test_expand_seeds_keeps_replications_adjacent(self):
        from repro.eval.runner import expand_seeds

        specs = build_flood_specs("legacy", ("tva", "internet"), (1,), FAST)
        assert [(s.scheme, s.seed) for s in expand_seeds(specs, 3)] == [
            ("tva", 1), ("tva", 2), ("tva", 3),
            ("internet", 1), ("internet", 2), ("internet", 3)]
        assert expand_seeds(specs, 1) == specs

    def test_run_points_rejects_bad_seeds(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=1).run_points([], seeds=0)
