"""Fuzzing ``TopologySpec.from_dict``: a mutated payload either builds a
spec that round-trips and hashes, or raises ``ValueError`` — never a
``TypeError`` from deep inside, and never a spec holding a NaN wire."""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import topospec
from repro.sim.topospec import TopologySpec

#: Every ``*_spec`` generator's default topology, as plain data.
PAYLOADS = [
    getattr(topospec, name)().to_dict()
    for name in sorted(dir(topospec)) if name.endswith("_spec")
]

#: Any JSON-ish value, including the non-finite floats JSON readers accept.
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def mutated(draw):
    """A generator payload with one to three damaged places."""
    data = copy.deepcopy(draw(st.sampled_from(PAYLOADS)))
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(["name", "nodes", "links"]))
        entries = data.get(section)
        target = draw(st.sampled_from(["whole", "entry", "field", "drop",
                                       "extra"]))
        if target == "whole" or not isinstance(entries, list) or not entries:
            data[section] = draw(VALUES)
            continue
        i = draw(st.integers(0, len(entries) - 1))
        if target == "entry" or not isinstance(entries[i], dict) \
                or not entries[i]:
            entries[i] = draw(VALUES)
            continue
        key = draw(st.sampled_from(sorted(entries[i])))
        if target == "drop":
            del entries[i][key]
        elif target == "extra":
            entries[i][draw(st.text(max_size=4))] = draw(VALUES)
        else:
            entries[i][key] = draw(VALUES)
    return data


@given(mutated())
@settings(max_examples=400, deadline=None)
def test_mutated_payload_builds_or_raises_value_error(data):
    try:
        spec = TopologySpec.from_dict(data)
    except ValueError:
        return
    hash(spec)  # repro: allow-hash-builtin — hashability only, value unused
    assert TopologySpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    for link in spec.links:
        assert math.isfinite(link.bandwidth_bps) and link.bandwidth_bps > 0
        assert math.isfinite(link.delay) and link.delay >= 0
    for node in spec.nodes:
        assert isinstance(node.count, int) and not isinstance(node.count, bool)
