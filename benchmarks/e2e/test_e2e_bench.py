"""Self-tests of the benchmark (``pytest benchmarks/e2e``; not tier-1)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalogue  # noqa: E402
import compare  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


# -- path -> layer map -------------------------------------------------------

def test_every_source_file_maps_to_exactly_one_named_layer():
    package = ROOT / "src" / "repro"
    sources = [
        p for p in package.rglob("*")
        if p.suffix in (".py", ".c") and "__pycache__" not in p.parts
    ]
    assert len(sources) > 50
    unmapped = [
        str(p.relative_to(package)) for p in sources
        if catalogue.layer_of(str(p.relative_to(package))) is None
    ]
    assert unmapped == [], f"give these modules a layer in catalogue.py: {unmapped}"
    assert "other" not in catalogue.LAYER_OF_PATH.values()
    assert set(catalogue.LAYER_OF_PATH.values()) == set(catalogue.LAYERS) - {"other"}


def test_a_new_hot_path_module_is_not_mapped_silently():
    for path in ("sim/newqueue.py", "core/newcore.py", "transport/quic.py", "newtop.py"):
        assert catalogue.layer_of(path) is None
    assert catalogue.layer_of("baselines/newscheme.py") == "baselines"
    assert catalogue.layer_of("sim/trace.py") == "obs"
    assert catalogue.layer_of("perf/counters.py") == "obs"
    assert catalogue.layer_of("perf/harness.py") == "eval"


def test_layer_self_time_sums_to_the_profiled_total():
    import repro
    from repro.api import ExperimentConfig, ScenarioSpec, run_spec

    from layers import profile_layers

    spec = ScenarioSpec(
        scheme="tva", attack="legacy", n_attackers=10, seed=1,
        config=ExperimentConfig(duration=1.0, seed=1),
    )
    result, self_s, calls, total = profile_layers(
        lambda: run_spec(spec), str(Path(repro.__file__).parent)
    )
    assert result.n_attackers == 10
    assert sum(self_s.values()) == pytest.approx(total, rel=0.01)
    assert set(self_s) == set(calls) == set(catalogue.LAYERS)
    # The simulator's layers do the work; builtins were charged to them,
    # not left in ``other``.
    assert self_s["sim.queues"] > 0 and self_s["sim.engine"] > 0
    assert self_s["other"] < 0.05 * total


# -- statistics --------------------------------------------------------------

def test_median_and_quartile_helpers():
    assert catalogue.median([3, 1, 2]) == 2
    assert catalogue.median([4, 1, 2, 3]) == 2.5
    assert catalogue.quartiles([1, 2, 3, 4, 5, 6, 7]) == [2.0, 6.0]
    assert catalogue.quartiles([5.0]) == [5.0, 5.0]
    summary = catalogue.summarize([1.0, 2.0, 3.0, 10.0], "s")
    assert summary["value"] == 2.5 and summary["n"] == 4
    assert summary["min"] == 1.0 and summary["max"] == 10.0
    assert summary["q1"] <= summary["value"] <= summary["q3"]


# -- BENCHMARK.json agrees with the code --------------------------------------

def test_benchmark_json_matches_the_catalogue():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 1 <= doc["run_seconds"] <= 60

    from workloads import WORKLOADS

    names = [w["name"] for w in doc["workloads"]]
    assert names == list(catalogue.WORKLOADS) == list(WORKLOADS)
    assert 2 <= len(names) <= 4
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]

    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == catalogue.END_TO_END
    assert len(e2e) <= 16
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())

    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == catalogue.per_layer_units()
    assert len(per_layer) == 68 <= 128
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        higher = m["name"] in catalogue.HIGHER_IS_BETTER
        assert m["better"] == ("higher" if higher else "lower"), m["name"]

    every = names + list(e2e) + list(per_layer)
    assert len(every) == len(set(every))
    for name in every:
        assert NAME.fullmatch(name), name
    for unit in list(catalogue.END_TO_END.values()) + list(per_layer.values()):
        assert UNIT.fullmatch(unit), unit


# -- compare.py ---------------------------------------------------------------

def test_verdicts():
    v = compare.verdict
    assert v(1.0, 1.2, 0.05, 0.01, False, False, False) == "worse"
    assert v(1.0, 1.04, 0.05, 0.01, False, False, False) == "within-bound"
    assert v(1.0, 1.04, 0.05, 0.08, False, False, False) == "unresolved"
    assert v(1.0, 0.8, 0.05, 0.08, True, False, False) == "within-bound"
    assert v(1.0, 0.8, 0.05, 0.01, True, True, False) == "better"
    # A noisy side can prove nothing, in either direction.
    assert v(1.0, 1.2, 0.05, 0.01, False, False, True) == "unresolved"
    assert v(1.0, 0.8, 0.05, 0.01, True, True, True) == "unresolved"


def test_paired_gain_rule():
    old = [1.00, 1.01, 0.99, 1.02, 1.00, 1.01, 0.99, 1.00, 1.01, 1.00]
    assert compare.paired_gain(old, [x * 0.9 for x in old])
    # Nine pairs are not enough, however clear.
    assert not compare.paired_gain(old[:9], [x * 0.9 for x in old[:9]])
    # Wins 10/10 but by less than the old side's own spread.
    assert not compare.paired_gain(old, [x - 0.001 for x in old])
    # A real median gap, but only 8/10 pairs won.
    new = [x * 0.9 for x in old]
    new[0], new[1] = 1.5, 1.5
    assert not compare.paired_gain(old, new)


# -- end to end, at smoke scale ------------------------------------------------

def test_smoke_run_end_to_end(tmp_path):
    out = tmp_path / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert sorted(result["workloads"]) == sorted(catalogue.WORKLOADS)
    assert {"nproc", "python", "git_commit", "loadavg_1m_start"} <= set(result["env"])
    for name, report in result["workloads"].items():
        assert report["ops_failed"] == 0 and report["ops_attempted"] >= 1
        assert set(report["end_to_end"]) == set(catalogue.END_TO_END)
        assert all(m["value"] > 0 for m in report["end_to_end"].values())
        assert 0 < report["cpu_wall_ratio"] <= 1.05 and "noisy" in report
        for metric in catalogue.END_TO_END:
            assert f"{metric} " in done.stdout
    # Four schemes per pass: each run is its own operation.
    assert result["workloads"]["baselines_legacy_flood"]["ops_attempted"] == 4

    # A file compared with itself: no row is worse, nothing changed.
    assert compare.main([str(out), str(out)]) == 0


def test_failed_shape_check_reaches_the_exit_status():
    done = _run("--smoke", "--workload", "tva_legacy_flood", "--fail-shape")
    assert done.returncode == 1
    assert "FAILED tva_legacy_flood rep 1 [tva]: shape check forced to fail" in done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"] == 1


def test_traced_smoke_prints_every_per_layer_metric():
    done = _run("--smoke", "--workload", "tva_colluder_flood", "--trace", "1")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    units = catalogue.per_layer_units()
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} " in done.stdout
    assert line["metrics"]["core.router.valcache_hits"]["value"] > 0
    assert line["metrics"]["sim.bottleneck_tx_pkts"]["value"] > 0


def test_no_result_without_the_program(tmp_path):
    # The driver also runs the command where only BENCHMARK.json and the
    # benchmark's own files exist: non-zero exit, no result line.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".e2e_tmp_*"))
    done = _run("--workload", "tva_legacy_flood", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
