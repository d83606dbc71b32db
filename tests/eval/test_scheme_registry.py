"""Contracts every registered scheme must satisfy.

The scheme registry (:mod:`repro.schemes`) maps names to frozen knob
dataclasses.  These tests are parametrized over the registry itself, so
adding a scheme automatically subjects it to the same contracts:

* knobs round-trip losslessly through JSON and through
  ``ScenarioSpec.scheme_options`` (same cache key both ways);
* ``build()`` honours ``seed`` and ``destination_policy``;
* unknown knob names fail loudly with a ``TypeError`` naming the scheme;
* ``reboot_router`` and ``metric_items`` uphold the ``SchemeFactory``
  protocol on a live dumbbell;
* every surface that lists schemes (CLI choices, ``repro.api``,
  DESIGN.md's table) derives from — or at least agrees with — the
  registry.

The spec-key tests at the bottom pin the *rule* rather than particular
sha256 values: ``ScenarioSpec.canonical()`` carries every dataclass
field, always, so every field is part of the cache key.
"""

import dataclasses
import json

import pytest

from repro import api
from repro import schemes as registry
from repro.core.policy import ServerPolicy
from repro.eval.experiments import SCHEMES as EXPERIMENT_SCHEMES
from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec
from repro.schemes import SCHEMES, build_scheme, knobs_for, scheme_names
from repro.sim import (
    SchemeFactory,
    Simulator,
    build_dumbbell,
    dumbbell_spec,
    tree_spec,
)

#: One non-default override per scheme, exercising a representative knob
#: type each (tuple-free floats, ints, and the empty case).
SAMPLE_OPTIONS = {
    "tva": {"request_fraction": 0.1},
    "siff": {"mark_bits": 4},
    "pushback": {"review_interval": 1.5},
    "internet": {},
    "netfence": {"beta": 0.25},
}

ALL_SCHEMES = scheme_names()


def test_sample_options_cover_the_registry():
    # A new scheme must add a sample here so the contracts below bite.
    assert set(SAMPLE_OPTIONS) == set(ALL_SCHEMES)


@pytest.mark.parametrize("name", ALL_SCHEMES)
class TestKnobContracts:
    def test_registered_as_frozen_dataclass(self, name):
        cls = SCHEMES[name]
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen
        assert cls.scheme_name == name

    def test_knobs_json_roundtrip(self, name):
        knobs = knobs_for(name, SAMPLE_OPTIONS[name])
        wire = json.loads(json.dumps(knobs.to_dict(), sort_keys=True))
        assert SCHEMES[name].from_dict(wire) == knobs
        # to_dict is pure JSON: no tuples survive the fold.
        assert json.dumps(wire, sort_keys=True) == json.dumps(
            knobs.to_dict(), sort_keys=True
        )

    def test_to_dict_carries_every_field(self, name):
        # The cache key hashes to_dict(); a field missing from it would
        # let two different knob sets share one cache entry.
        knobs = knobs_for(name, SAMPLE_OPTIONS[name])
        declared = {f.name for f in dataclasses.fields(SCHEMES[name])}
        assert set(knobs.to_dict()) == declared

    def test_build_satisfies_scheme_factory_protocol(self, name):
        # Read off the protocol itself, so a member added there is
        # demanded of every registered scheme without editing this test.
        required = [
            member
            for member in (*SchemeFactory.__annotations__, *vars(SchemeFactory))
            if not member.startswith("_")
        ]
        assert "metric_items" in required and "name" in required
        scheme = build_scheme(name, SAMPLE_OPTIONS[name])
        missing = [m for m in required if not hasattr(scheme, m)]
        assert not missing, f"scheme {name!r} lacks SchemeFactory members {missing}"

    def test_spec_roundtrip_preserves_cache_key(self, name):
        spec = ScenarioSpec(
            scheme=name,
            attack="legacy",
            n_attackers=2,
            scheme_options=SAMPLE_OPTIONS[name],
        )
        wire = json.loads(json.dumps(spec.to_dict(), sort_keys=True))
        assert ScenarioSpec.from_dict(wire).key() == spec.key()

    def test_non_default_options_change_the_key(self, name):
        if not SAMPLE_OPTIONS[name]:
            pytest.skip(f"{name} has no knobs to vary")
        base = ScenarioSpec(scheme=name, attack="legacy", n_attackers=2)
        varied = ScenarioSpec(
            scheme=name,
            attack="legacy",
            n_attackers=2,
            scheme_options=SAMPLE_OPTIONS[name],
        )
        assert varied.key() != base.key()

    def test_build_honours_seed_and_destination_policy(self, name):
        class MarkerPolicy(ServerPolicy):
            pass

        scheme = build_scheme(
            name, SAMPLE_OPTIONS[name], seed=9, destination_policy=MarkerPolicy
        )
        assert scheme.name == name
        shim = scheme.make_host_shim("destination")
        policy = getattr(shim, "policy", None)
        if policy is not None:
            assert isinstance(policy, MarkerPolicy)

    def test_unknown_knob_raises_typeerror_naming_the_scheme(self, name):
        with pytest.raises(TypeError, match=name):
            knobs_for(name, {"no_such_knob": 1})
        with pytest.raises(TypeError, match=name):
            build_scheme(name, {"no_such_knob": 1})

    def test_unknown_knob_rejected_at_spec_construction(self, name):
        with pytest.raises(TypeError, match=name):
            ScenarioSpec(
                scheme=name,
                attack="legacy",
                n_attackers=1,
                scheme_options={"no_such_knob": 1},
            )

    def test_reboot_router_protocol_on_live_dumbbell(self, name):
        scheme = build_scheme(name, seed=5)
        build_dumbbell(Simulator(), scheme, n_users=1, n_attackers=1)
        hit = scheme.reboot_router("R1", now=1.0)
        miss = scheme.reboot_router("no-such-router", now=1.0)
        assert isinstance(hit, bool)
        assert miss is False

    def test_metric_items_names_unique_and_callable(self, name):
        scheme = build_scheme(name, seed=5)
        build_dumbbell(Simulator(), scheme, n_users=1, n_attackers=1)
        items = list(scheme.metric_items())
        names = [n for n, _ in items]
        assert len(names) == len(set(names)), f"duplicate metric names: {names}"
        for metric_name, fn in items:
            assert metric_name
            assert isinstance(float(fn()), float)


def test_unknown_scheme_is_a_value_error():
    with pytest.raises(ValueError, match="unknown scheme"):
        knobs_for("carrier-pigeon")
    with pytest.raises(ValueError, match="unknown scheme"):
        build_scheme("carrier-pigeon")


class TestRegistryCompleteness:
    """Every listing of schemes agrees with the registry."""

    def test_registration_order_is_presentation_order(self):
        assert ALL_SCHEMES == ("tva", "siff", "pushback", "internet", "netfence")

    def test_experiment_harness_derives_from_registry(self):
        assert tuple(EXPERIMENT_SCHEMES) == ALL_SCHEMES

    def test_cli_accepts_every_registered_name(self):
        from repro.cli import _parse_schemes

        assert _parse_schemes(",".join(ALL_SCHEMES)) == list(ALL_SCHEMES)

    def test_api_reexports_the_registry_object(self):
        assert api.SCHEMES is SCHEMES
        assert api.scheme_names is scheme_names
        for name in ALL_SCHEMES:
            knob_cls = SCHEMES[name]
            assert getattr(api, knob_cls.__name__) is knob_cls

    def test_design_doc_table_lists_every_scheme(self):
        from pathlib import Path

        design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text()
        for name in ALL_SCHEMES:
            assert f"| `{name}` |" in design, (
                f"DESIGN.md scheme table is missing {name!r}; "
                "update the 'Adding a scheme' section"
            )


SPEC_FIELDS = [f.name for f in dataclasses.fields(ScenarioSpec)]

#: The three shapes of spec the key rule is checked on.
KEY_RULE_SPECS = {
    "default": ScenarioSpec(scheme="tva", attack="legacy", n_attackers=10),
    "topology_aggregate": ScenarioSpec(
        scheme="tva", attack="legacy", n_attackers=12,
        topology=tree_spec(), aggregate=True,
    ),
    "knob_override": ScenarioSpec(
        scheme="siff", attack="request", n_attackers=4, policy="filtering",
        scheme_options={"secret_period": 3.0, "mark_bits": 16},
    ),
}

#: A different valid value for every field of the topology+aggregate
#: spec; a new spec field must add one here so the rule below covers it.
CHANGED_FIELD = {
    "scheme": "pushback",
    "attack": "colluder",
    "n_attackers": 13,
    "seed": 2,
    "config": ExperimentConfig(duration=4.0),
    "policy": "filtering",
    "attack_start": 1.0,
    "attack_groups": 2,
    "group_stagger": 0.5,
    "metrics": True,
    "metrics_interval": 0.25,
    "faults": ("reboot:1.0:root",),  # the tree has no R1
    "topology": dumbbell_spec(),
    "aggregate": False,
    "scheme_options": {"request_fraction": 0.1},
}


class TestSpecKeyRule:
    """Every field of the spec is in its canonical form, hence its key."""

    @pytest.mark.parametrize("label", sorted(KEY_RULE_SPECS))
    def test_canonical_carries_every_field(self, label):
        assert set(KEY_RULE_SPECS[label].canonical()) == set(SPEC_FIELDS)

    @pytest.mark.parametrize("field_name", SPEC_FIELDS)
    def test_changing_any_single_field_changes_the_key(self, field_name):
        base = KEY_RULE_SPECS["topology_aggregate"]
        changed = dataclasses.replace(
            base, **{field_name: CHANGED_FIELD[field_name]}
        )
        assert changed.key() != base.key()

    @pytest.mark.parametrize("label", sorted(KEY_RULE_SPECS))
    def test_json_roundtrip_preserves_the_key(self, label):
        spec = KEY_RULE_SPECS[label]
        wire = json.loads(json.dumps(spec.to_dict(), sort_keys=True))
        assert ScenarioSpec.from_dict(wire) == spec
        assert ScenarioSpec.from_dict(wire).key() == spec.key()
