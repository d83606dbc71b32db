"""Golden-run equivalence suite for the per-packet fast path.

The fast-path optimizations (secret memoization, the capability
validation cache, precompiled codecs, event-heap compaction) are pure
performance work: they must leave every ``RunResult`` bit-identical to
the unoptimized pipeline.  This suite pins that claim four ways:

* **Golden files** — fig8/fig9 scenarios whose ``RunResult`` JSON was
  captured *before* the fast path landed (``tests/golden/``).  Any
  optimization that changes simulation behaviour — one packet demoted
  differently, one event reordered — fails the byte comparison.
* **Op counts** — each golden spec runs once, under
  :class:`~repro.perf.OpCountProbe` from a cold path-identifier tag
  cache, and its eleven counts must equal its entry in
  ``tests/golden/opcounts.json``.  This is where the repo pins the
  per-packet work (hashes, events, queue operations, cache hits) of a
  whole run; a cache that stops hitting shows up as an integer diff.
* **jobs=1 vs jobs=4** — the runner's parallel fan-out must serialize
  to the same JSON as the in-process path.
* **PYTHONHASHSEED 1 vs 2** — subprocess runs under different interpreter
  hash salts must serialize identically (caches keyed on tuples must not
  leak hash-order effects into results).

Regenerating goldens and op-count pins (only when simulation behaviour
or per-packet work changes on purpose): ``REPRO_REGEN_GOLDENS=1 python
-m pytest tests/eval/test_golden_runs.py`` and commit the diff with
justification.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.pathid import clear_tag_cache
from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, SweepRunner, run_spec
from repro.perf import OpCountProbe
from repro.scenarios import get_scenario
from repro.sim.topospec import fat_tree_spec, tree_spec

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
OPCOUNTS = GOLDEN_DIR / "opcounts.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"

_CONFIG = ExperimentConfig(duration=6.0, seed=1)


def _ladder(topology) -> ScenarioSpec:
    """A topology-ladder point: TVA under a legacy flood from every
    attacker of ``topology``, senders aggregated, 2 simulated seconds."""
    return ScenarioSpec(
        scheme="tva", attack="legacy",
        n_attackers=len(topology.role_addresses("attacker")), seed=1,
        config=ExperimentConfig(duration=2.0, seed=1),
        topology=topology, aggregate=True,
    )


#: name -> spec.  Most are non-instrumented: the simulation *outcome* is
#: what a fast path must never change.  The two ``*_metrics`` entries
#: rerun the k=10 points with ``metrics=True`` because a refactor of the
#: counting code must not rename or shift a metric either, and nothing
#: else in tier-1 pins metric names or values.  Adding a metric on
#: purpose is a one-command regeneration (module docstring).
GOLDEN_SPECS = {
    "fig8_tva_k10": ScenarioSpec(
        scheme="tva", attack="legacy", n_attackers=10, seed=1, config=_CONFIG
    ),
    "fig8_internet_k10": ScenarioSpec(
        scheme="internet", attack="legacy", n_attackers=10, seed=1,
        config=_CONFIG,
    ),
    "fig9_tva_k10": ScenarioSpec(
        scheme="tva", attack="request", n_attackers=10, seed=1,
        config=_CONFIG, policy="filtering",
    ),
    "fig9_siff_k10": ScenarioSpec(
        scheme="siff", attack="request", n_attackers=10, seed=1,
        config=_CONFIG, policy="filtering",
    ),
    "fig8_netfence_k10": ScenarioSpec(
        scheme="netfence", attack="legacy", n_attackers=10, seed=1,
        config=_CONFIG,
    ),
    # Authorized flood: the only golden that exercises the regular
    # class, the host shim's nonce draws and flow-state charging.
    "fig10_tva_k10": ScenarioSpec(
        scheme="tva", attack="colluder", n_attackers=10, seed=1,
        config=_CONFIG,
    ),
    "fig8_tva_k10_metrics": ScenarioSpec(
        scheme="tva", attack="legacy", n_attackers=10, seed=1,
        config=_CONFIG, metrics=True,
    ),
    "fig8_netfence_k10_metrics": ScenarioSpec(
        scheme="netfence", attack="legacy", n_attackers=10, seed=1,
        config=_CONFIG, metrics=True,
    ),
    # The aggregated 10k-attacker flood at a shortened duration: the
    # largest curated topology, kept golden so scale-dependent paths
    # (AggregateLink, per-source channels, the packet pool) are pinned
    # too.  1.0 s of simulated time keeps the test a few wall seconds
    # while still saturating the victim link.
    "flood_10k": get_scenario("flood-10k").spec(duration=1.0),
    # The topology ladder beyond the dumbbell: an aggregation tree (one
    # aggregated sender per 40-attacker leaf group, 240 attackers) and a
    # k=4 fat-tree (7 edge groups of 50, 350 attackers) — the only
    # fat-tree simulation in tier-1.
    "topo_tree": _ladder(tree_spec(users_per_leaf=1, attackers_per_leaf=40)),
    "topo_fattree": _ladder(
        fat_tree_spec(users_per_edge=1, attackers_per_edge=50)
    ),
}


def golden_json(result) -> str:
    """The canonical serialized form compared byte-for-byte."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


@lru_cache(maxsize=None)
def probed_run(name):
    """``(golden JSON, op counts)`` of one golden spec, run once per
    process under a probe.  The tag cache is emptied first: it is the one
    process-wide memo whose misses are counted (a hash each), so a warm
    one would make the counts depend on what ran earlier."""
    clear_tag_cache()
    with OpCountProbe() as probe:
        result = run_spec(GOLDEN_SPECS[name])
    return golden_json(result), probe.counts.to_dict()


def _pins() -> dict:
    return json.loads(OPCOUNTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_run_matches_golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    text, _ = probed_run(name)
    if REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    expected = path.read_text(encoding="utf-8")
    assert text == expected, (
        f"{name}: RunResult JSON diverged from the golden capture; the "
        "fast path must be behaviour-preserving (regenerate goldens only "
        "for deliberate simulation changes)"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_op_counts_match_pins(name):
    _, counts = probed_run(name)
    if REGEN:
        pins = _pins() if OPCOUNTS.exists() else {}
        pins[name] = counts
        OPCOUNTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    assert counts == _pins()[name], (
        f"{name}: op counts diverged from tests/golden/opcounts.json; "
        "regenerate the pins only for a deliberate change to per-packet work"
    )


def test_op_count_pins_cover_exactly_the_goldens():
    assert sorted(_pins()) == sorted(GOLDEN_SPECS)


def test_jobs1_vs_jobs4_bit_identical():
    specs = [GOLDEN_SPECS["fig8_tva_k10"], GOLDEN_SPECS["fig9_siff_k10"]]
    serial = SweepRunner(jobs=1).run_points(specs, title="golden")
    parallel = SweepRunner(jobs=4).run_points(specs, title="golden")
    assert serial.to_json() == parallel.to_json()


_SUBPROCESS_PROG = """\
import json, sys
from repro.eval.experiments import ExperimentConfig
from repro.eval.runner import ScenarioSpec, run_spec

spec = ScenarioSpec(scheme="tva", attack="legacy", n_attackers=5, seed=1,
                    config=ExperimentConfig(duration=4.0, seed=1))
print(json.dumps(run_spec(spec).to_dict(), sort_keys=True))
"""


def _run_under_hashseed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_PROG],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_hashseed_1_vs_2_bit_identical():
    assert _run_under_hashseed("1") == _run_under_hashseed("2")
