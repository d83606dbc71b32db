"""Unit tests for the experiment harness itself."""

import pytest

from repro.api import RunResult, build_fig11_spec, build_scheme, run_spec
from repro.eval import ExperimentConfig, Fig11Result
from repro.eval import runner as runner_module
from repro.eval.experiments import merged_scheme_options
from repro.eval.runner import ScenarioSpec
from repro.scenarios import FIGURES


def scheme_for(name, config, options=None):
    """The scheme ``run_spec`` builds for ``name`` under ``config``."""
    return build_scheme(name, merged_scheme_options(name, config, options),
                        seed=config.seed)


class TestSchemeFromConfig:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_for("bogus", ExperimentConfig())

    def test_unknown_knob_raises(self):
        with pytest.raises(TypeError, match="siff"):
            scheme_for("siff", ExperimentConfig(), {"secret_perod": 3.0})

    def test_tva_uses_sim_request_fraction(self):
        scheme = scheme_for("tva", ExperimentConfig())
        assert scheme.request_fraction == 0.01

    def test_options_override_config_knobs(self):
        config = ExperimentConfig(regular_qdisc="sfq")
        assert scheme_for("tva", config).regular_qdisc == "sfq"
        scheme = scheme_for("tva", config, {"regular_qdisc": "drr",
                                            "request_fraction": 0.05})
        assert scheme.regular_qdisc == "drr"
        assert scheme.request_fraction == 0.05


class TestRunFloodScenario:
    def test_unknown_attack_is_rejected(self):
        # A typo'd attack must not run (and cache) some other experiment.
        with pytest.raises(ValueError, match="unknown attack 'flood'.*legacy"):
            ScenarioSpec(scheme="tva", attack="flood", n_attackers=1)

    @pytest.mark.parametrize("bad", [{"attack": "flood"},
                                     {"policy": "nobody"}],
                             ids=["attack", "policy"])
    def test_bad_spec_never_starts_a_simulator(self, monkeypatch, bad):
        # The spec is the one place left that checks attack and policy:
        # the error is raised at construction, before run_spec is entered.
        built = []
        monkeypatch.setattr(runner_module, "Simulator",
                            lambda: built.append("sim"))
        fields = dict(scheme="internet", attack="legacy", n_attackers=1)
        with pytest.raises(ValueError, match="unknown (attack|policy)"):
            run_spec(ScenarioSpec(**{**fields, **bad}))
        assert built == []

    def test_no_attackers(self):
        run = run_spec(ScenarioSpec("tva", "legacy", 0,
                                    config=ExperimentConfig(duration=3.0)))
        assert run.fraction_completed == 1.0

    def test_deterministic_given_seed(self):
        spec = ScenarioSpec("internet", "legacy", 3, seed=9,
                            config=ExperimentConfig(duration=3.0))
        assert run_spec(spec).time_series == run_spec(spec).time_series

    def test_seed_changes_outcome_detail(self):
        spec = ScenarioSpec("internet", "legacy", 3,
                            config=ExperimentConfig(duration=3.0))
        a = run_spec(spec.with_seed(1))
        b = run_spec(spec.with_seed(2))
        assert a.time_series != b.time_series


class TestResultTypes:
    def test_fig11_result_metrics(self):
        result = Fig11Result(
            scheme="tva", pattern="all_at_once", attack_start=10.0,
            series=[(9.0, 0.3), (10.5, 3.0), (14.0, 0.3), (20.0, 0.3)],
        )
        assert result.max_transfer_time() == 3.0
        assert result.disruption_end() == pytest.approx(13.5)
        assert result.effective_attack_seconds() == pytest.approx(3.5)
        gaps = result.completion_gaps(min_gap=1.0)
        assert gaps  # 13.5 -> 14.3 and 14.3 -> 20.3

    def test_fig11_quiet_series(self):
        result = Fig11Result(scheme="tva", pattern="staggered",
                             attack_start=10.0,
                             series=[(t, 0.3) for t in range(30)])
        assert result.effective_attack_seconds() == 0.0

    def test_fig11_from_run_matches_the_hand_built_records(self):
        # ``repro fig11`` used to assemble the record field by field...
        spec = build_fig11_spec("tva", "staggered", n_attackers=4,
                                attack_start=2.0, duration=6.0, metrics=True)
        run = run_spec(spec)
        assert run.metrics is not None
        assert Fig11Result.from_run(spec, run) == Fig11Result(
            scheme="tva", pattern="staggered",
            series=[tuple(point) for point in run.time_series],
            attack_start=2.0, metrics=run.metrics)
        # ...and ``repro report`` built it from the series alone, with
        # the figure's attack start.
        (spec,) = FIGURES["fig11"].specs(scheme="siff")
        run = RunResult(scheme="siff", attack="authorized", n_attackers=100,
                        seed=1, fraction_completed=1.0, avg_transfer_time=0.3,
                        transfers_attempted=2, transfers_completed=2,
                        time_series=((9.0, 0.3), (10.5, 3.0)))
        assert Fig11Result.from_run(spec, run) == Fig11Result(
            scheme="siff", pattern="all_at_once", attack_start=10.0,
            series=[(9.0, 0.3), (10.5, 3.0)])

    def test_fig11_rejects_bad_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern 'sideways'"):
            FIGURES["fig11"].specs(pattern="sideways")


class TestConfigRoundTrip:
    """ExperimentConfig must survive dict/JSON cycles so cached results
    compare equal to fresh ones."""

    def test_config_round_trips_through_dict(self):
        config = ExperimentConfig(duration=7.5, seed=3)
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone == config
        assert isinstance(clone.server_grant, tuple)

    def test_config_round_trips_through_json(self):
        import json

        config = ExperimentConfig()
        clone = ExperimentConfig.from_dict(json.loads(
            json.dumps(config.to_dict())))
        assert clone == config  # server_grant list -> tuple normalization

    def test_config_normalizes_list_grant(self):
        assert ExperimentConfig(server_grant=[1000, 5]) == \
            ExperimentConfig(server_grant=(1000, 5))

    @pytest.mark.parametrize("grant", [
        [32000], [0, 10], [-5, 10], [32000, 0], [32000, 10, 1], 5,
        [True, 10], [32000, float("inf")],
    ])
    def test_config_rejects_a_bad_grant(self, grant):
        with pytest.raises(ValueError, match="config.server_grant"):
            ExperimentConfig(server_grant=grant)


class TestFig11ConfigIsolation:
    def test_run_fig11_does_not_mutate_callers_config(self):
        """Regression: the Figure 11 runner used to write ``duration``
        into the caller's config in place."""
        config = ExperimentConfig(duration=15.0, seed=2)
        spec = build_fig11_spec("tva", "all_at_once", n_attackers=2,
                                attack_start=1.0, duration=5.0, config=config)
        assert spec.config.duration == 5.0
        assert config.duration == 15.0
        assert config == ExperimentConfig(duration=15.0, seed=2)
