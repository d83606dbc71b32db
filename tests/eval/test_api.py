"""The stable ``repro.api`` facade."""

import importlib
import pkgutil
import warnings

import pytest

import repro
from repro import api
from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, run_spec

FAST = ExperimentConfig(duration=3.0)


def _modules_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")  # importing it runs the CLI
    ]
    return [n for n in names if hasattr(importlib.import_module(n), "__all__")]


class TestFacade:
    @pytest.mark.parametrize("module_name", _modules_with_all())
    def test_exports_everything_promised(self, module_name):
        # A name in __all__ that the module never binds turns
        # ``from <module> import *`` into an AttributeError for a user.
        module = importlib.import_module(module_name)
        dangling = [n for n in module.__all__ if not hasattr(module, n)]
        assert not dangling, f"{module_name}.__all__ lists unbound {dangling}"

    def test_exports_every_topology_generator(self):
        # Every shape is instantiate(X_spec(...)), so every generator
        # has to be importable from the facade.
        from repro.sim import topospec

        generators = {n for n in dir(topospec)
                      if n.endswith("_spec") and not n.startswith("_")
                      and callable(getattr(topospec, n))}
        assert len(generators) == 9
        assert generators <= set(api.__all__)

    def test_importable_without_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.reload(api)

    def test_run_scenario_matches_run_spec(self):
        spec = ScenarioSpec("internet", "legacy", 2, config=FAST)
        assert api.run_scenario(spec) == run_spec(spec)

    def test_run_scenario_builds_spec_from_kwargs(self):
        spec = ScenarioSpec("internet", "legacy", 2, config=FAST)
        by_kwargs = api.run_scenario(scheme="internet", attack="legacy",
                                     n_attackers=2, config=FAST)
        assert by_kwargs == run_spec(spec)

    def test_run_scenario_rejects_spec_plus_kwargs(self):
        spec = ScenarioSpec("internet", "legacy", 2, config=FAST)
        with pytest.raises(TypeError):
            api.run_scenario(spec, scheme="tva")

    def test_run_scenario_uses_the_cache(self, tmp_path):
        cache = api.ResultCache(tmp_path)
        spec = ScenarioSpec("internet", "legacy", 1, config=FAST)
        cold = api.run_scenario(spec, cache=cache)
        warm = api.run_scenario(spec, cache=cache)
        assert warm == cold
        assert cache.hits == 1

    def test_run_scenario_failure_is_a_sweep_failure(self):
        # One attempt, no retry: the same runner path as every sweep.
        spec = ScenarioSpec("internet", "colluder", 12, config=FAST,
                            topology=api.tree_spec())
        with pytest.raises(api.SweepFailure, match="colluder") as excinfo:
            api.run_scenario(spec)
        assert excinfo.value.failures[0].attempts == 1

    def test_sweep_streams_events(self):
        events = []
        api.sweep([ScenarioSpec("internet", "legacy", 1, config=FAST)],
                  jobs=1, on_event=events.append)
        assert [e.kind for e in events] == ["start", "done"]

    def test_sweep_aggregates_points(self):
        specs = [ScenarioSpec("internet", "legacy", n, config=FAST)
                 for n in (1, 2)]
        result = api.sweep(specs, jobs=2, seeds=2, title="t")
        assert len(result.points) == 2
        assert all(p.n_seeds == 2 for p in result.points)


class TestSchemeRegistry:
    def test_registry_names_are_stable(self):
        expected = ["tva", "siff", "pushback", "internet", "netfence"]
        assert list(api.SCHEMES) == expected
        assert api.scheme_names() == tuple(expected)

    def test_build_scheme_constructs_each(self):
        for name in api.scheme_names():
            scheme = api.build_scheme(name, seed=7)
            assert hasattr(scheme, "make_router_processor")

    def test_build_scheme_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            api.build_scheme("carrier-pigeon")

    def test_build_scheme_rejects_unknown_param(self):
        with pytest.raises(TypeError, match="tva"):
            api.build_scheme("tva", {"warp_factor": 9})

    def test_registry_values_are_knob_dataclasses(self):
        import dataclasses

        for name, scheme in sorted(api.SCHEMES.items()):
            assert dataclasses.is_dataclass(scheme.Knobs), name
            assert scheme(scheme.Knobs(), seed=7).name == name

