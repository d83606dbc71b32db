"""Aggregated senders must be simulation-equivalent to expanded ones.

An :class:`AggregateHost` + :class:`AggregateSender` pair models k
separate flood hosts; at small k we can afford to run both forms and
require byte-identical :class:`RunResult`s (everything except the spec
key, which intentionally differs because ``aggregate`` is part of it).
"""

import pytest

from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, run_spec
from repro.sim import dumbbell_spec, tree_spec


def _pair(topology, **kwargs):
    results = []
    for aggregate in (True, False):
        spec = ScenarioSpec(topology=topology, aggregate=aggregate, **kwargs)
        data = run_spec(spec).to_dict()
        data.pop("spec_key")
        results.append(data)
    return results


CONFIG = ExperimentConfig(duration=3.0, n_users=3)


class TestAggregateEquivalence:
    @pytest.mark.parametrize(
        "scheme", ["tva", "siff", "pushback", "internet", "netfence"])
    def test_legacy_flood_identical(self, scheme):
        agg, exp = _pair(
            dumbbell_spec(n_users=3, n_attackers=4),
            scheme=scheme, attack="legacy", n_attackers=4, config=CONFIG,
        )
        assert agg == exp

    @pytest.mark.parametrize("attack,policy", [
        ("request", "filtering"),
        ("colluder", "server"),
        ("authorized", "oracle"),
    ])
    def test_tva_attack_modes_identical(self, attack, policy):
        """Shim-mode floods exercise the full capability handshake —
        probes, per-member shims, per-member ingress tags."""
        agg, exp = _pair(
            dumbbell_spec(n_users=3, n_attackers=4),
            scheme="tva", attack=attack, n_attackers=4,
            config=CONFIG, policy=policy,
        )
        assert agg == exp

    def test_metrics_identical(self):
        agg, exp = _pair(
            dumbbell_spec(n_users=3, n_attackers=4),
            scheme="tva", attack="colluder", n_attackers=4,
            config=CONFIG, metrics=True,
        )
        assert agg == exp

    def test_multi_group_tree_identical(self):
        topology = tree_spec(branches=2, leaves_per_branch=1,
                             users_per_leaf=1, attackers_per_leaf=3)
        agg, exp = _pair(
            topology, scheme="tva", attack="legacy", n_attackers=6,
            config=CONFIG,
        )
        assert agg == exp

    def test_staggered_groups_identical(self):
        """Group staggering splits start times across aggregate members;
        the global sender index must line up with the expanded loop."""
        agg, exp = _pair(
            dumbbell_spec(n_users=2, n_attackers=6),
            scheme="tva", attack="legacy", n_attackers=6,
            config=CONFIG, attack_start=0.5, attack_groups=3,
            group_stagger=0.4,
        )
        assert agg == exp

    def test_aggregate_without_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            ScenarioSpec(scheme="tva", attack="legacy", n_attackers=4,
                         aggregate=True)
