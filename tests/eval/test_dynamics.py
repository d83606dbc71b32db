"""The dynamics experiment and fault-bearing spec plumbing."""

import dataclasses
import json
import re

import pytest

from repro.eval.cache import ResultCache
from repro.eval.dynamics import DynamicsResult, recovery_time
from repro.eval.experiments import ExperimentConfig
from repro.eval.results import RunResult
from repro.eval.runner import ScenarioSpec, SweepRunner, run_spec
from repro.faults import FaultSchedule, LinkDown, LinkUp, RouterReboot
from repro.scenarios import FIGURES, get_scenario

FAST = ExperimentConfig(duration=3.0)


def fault_spec(**overrides):
    defaults = dict(
        scheme="internet", attack="legacy", n_attackers=1, config=FAST,
        faults=FaultSchedule((RouterReboot(at=1.5, router="R1"),)),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestFaultBearingSpecs:
    def test_faults_change_the_cache_key(self):
        plain = fault_spec(faults=FaultSchedule())
        rebooted = fault_spec()
        assert plain.key() != rebooted.key()
        assert rebooted.key() != fault_spec(
            faults=FaultSchedule((RouterReboot(at=2.0, router="R1"),))).key()

    def test_spec_round_trips_through_json(self):
        spec = fault_spec(faults=FaultSchedule((
            LinkDown(at=1.0, link="bottleneck"),
            LinkUp(at=2.0, link="bottleneck"),
            RouterReboot(at=1.5, router="R1", rotate_secret=False),
        )))
        data = json.loads(json.dumps(spec.to_dict()))
        clone = ScenarioSpec.from_dict(data)
        assert clone == spec
        assert clone.key() == spec.key()

    def test_coercion_from_strings(self):
        spec = fault_spec(faults="reboot:1.5:R1")
        assert spec.faults == FaultSchedule((RouterReboot(at=1.5, router="R1"),))
        assert spec.key() == fault_spec().key()

    def test_specs_pickle(self):
        import pickle

        spec = fault_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_faults_affect_the_run(self):
        down = fault_spec(scheme="internet", faults=FaultSchedule((
            LinkDown(at=0.5, link="bottleneck"),
        )))
        plain = fault_spec(scheme="internet", faults=FaultSchedule())
        assert run_spec(down).fraction_completed < run_spec(
            plain).fraction_completed

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = fault_spec()
        fresh = run_spec(spec)
        cache.put(spec.key(), fresh)
        assert cache.get(spec.key()) == fresh

    def test_jobs_do_not_leak_into_results(self):
        specs = [fault_spec(seed=s) for s in (1, 2)]
        serial = SweepRunner(jobs=1).run_points(specs, seeds=1, title="dyn")
        parallel = SweepRunner(jobs=4).run_points(specs, seeds=1, title="dyn")
        assert serial.to_json() == parallel.to_json()


class TestFaultTargets:
    """A spec runs the injector's own name check against a build of the
    network it will run on, so a bad target fails at construction."""

    @pytest.mark.parametrize("link", ["bottleneck", "reverse", "R1->R2",
                                      "R2<->R1", "attacker0->R1",
                                      "R2->colluder"])
    def test_dumbbell_links_resolve(self, link):
        fault_spec(faults=FaultSchedule((LinkDown(at=1.0, link=link),)))

    @pytest.mark.parametrize("fault, message", [
        (RouterReboot(at=1.0, router="R9"),
         "fault reboot at t=1: no router named 'R9'"),
        (LinkDown(at=1.0, link="R1->R9"),
         "fault link-down at t=1: no link named 'R1->R9'"),
        # n_attackers=1: the dumbbell has attacker0 only.
        (LinkUp(at=1.5, link="attacker1->R1"),
         "fault link-up at t=1.5: no link named 'attacker1->R1'"),
    ])
    def test_unknown_target_is_a_value_error(self, fault, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            fault_spec(faults=FaultSchedule((fault,)))

    def test_aggregated_groups_are_one_link(self):
        flood = get_scenario("flood-10k")
        with pytest.raises(ValueError, match="a0.0.0->L0.0"):
            flood.spec(faults="link-down:1:a0.0.0->L0.0")
        flood.spec(faults="link-down:1:a0.0.->L0.0")

    def test_fault_free_specs_build_no_network(self, monkeypatch):
        def unexpected(spec):
            raise AssertionError("network built for a fault-free spec")

        monkeypatch.setattr(ScenarioSpec, "network", unexpected)
        fault_spec(faults=FaultSchedule())


class TestRecoveryTime:
    def run_with(self, completions):
        return RunResult("tva", "legacy", 0, 1, 1.0, 0.1,
                         len(completions), len(completions),
                         time_series=tuple((t, 0.0) for t in completions))

    def test_undisturbed_rate_recovers_immediately(self):
        # 10/s before and after the reboot at t=5.
        run = self.run_with([i * 0.1 for i in range(100)])
        assert recovery_time(run, 5.0) == 0.0

    def test_dip_then_recovery(self):
        # 10/s until the reboot, nothing for 3 s, then 10/s again.
        ticks = [i * 0.1 for i in range(50)]
        ticks += [8.0 + i * 0.1 for i in range(40)]
        run = self.run_with(ticks)
        assert recovery_time(run, 5.0) == 3.0

    def test_never_recovers(self):
        run = self.run_with([i * 0.1 for i in range(50)])  # stops at t=5
        assert recovery_time(run, 5.0) is None

    def test_no_pre_fault_traffic(self):
        run = self.run_with([6.0, 7.0])
        assert recovery_time(run, 5.0, warmup=5.0) is None


class TestRunDynamics:
    """The ``dynamics`` entry of ``FIGURES``, run as a library call."""

    RUN = dict(schemes=("tva", "internet"), reboot_at=4.0, duration=14.0,
               metrics=True)

    @pytest.fixture(scope="class")
    def result(self):
        return FIGURES["dynamics"].run(**self.RUN)

    def test_reboot_is_invisible_to_the_stateless_internet(self, result):
        rows = {row["scheme"]: row for row in result.rows}
        assert rows["internet"]["recovery_time"] == 0.0

    def test_tva_degrades_then_recovers(self, result):
        rows = {row["scheme"]: row for row in result.rows}
        rec = rows["tva"]["recovery_time"]
        assert rec is not None and 0.0 < rec < 10.0
        # Recovery went through demotion echoes and fresh requests.
        assert rows["tva"]["demotions"] > 0
        assert rows["tva"]["reboots"] == 1.0

    def test_rejects_reboot_after_the_run(self):
        with pytest.raises(ValueError, match="reboot_at"):
            FIGURES["dynamics"].specs(reboot_at=5.0, duration=5.0)

    def test_json_is_deterministic(self, result):
        clone = FIGURES["dynamics"].run(runner=SweepRunner(jobs=2),
                                        **self.RUN)
        assert clone.to_json() == result.to_json()

    def test_table_renders_every_scheme(self, result):
        table = result.table()
        assert "tva" in table and "internet" in table

    def test_table_shows_never_for_no_recovery(self):
        res = DynamicsResult(reboot_at=1.0, duration=2.0, rows=[{
            "scheme": "siff", "recovery_time": None,
            "fraction_completed": 0.5, "transfers_completed": 3,
        }])
        assert "never" in res.table()
