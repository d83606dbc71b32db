"""Removed names stay removed.

Each fence is a regular expression that must match no line of a ``.py``
or ``.md`` file under its paths (searched recursively, like ``grep -r
--include='*.py' --include='*.md'``).  A fence names what replaced the
removed API, so a reintroduced name fails with the rule it breaks.  This
file is the one place the fences live; CI runs it as its own step.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The code, examples and user docs; and the same with ``benchmarks/``.
TREE = ("src", "tests", "examples", "README.md", "DESIGN.md",
        "EXPERIMENTS.md")
TREE_AND_BENCHMARKS = ("src", "tests", "benchmarks", "examples",
                       "README.md", "DESIGN.md", "EXPERIMENTS.md")

#: name -> (pattern, paths, directory names skipped at any depth).
FENCES = {
    "one run path, one cache": (
        r"run_flood_scenario|FloodResult|to_flood_result|format_flood_table"
        r"|run_fig(8|9|10)_|LayeredBackend|CacheBackend|DirectoryBackend",
        TREE_AND_BENCHMARKS, ()),
    "one sweep driver": (
        r"\bSweepService\b|SweepManifest|default_manifest_path|grid_key"
        r"|--manifest|manifest_path|progress=",
        TREE, ()),
    "figures are data": (
        r"run_fig11_imprecise|run_dynamics|DEFAULT_SWEEP|_cmd_flood"
        r"|_cmd_fig11|_cmd_dynamics",
        TREE_AND_BENCHMARKS, ()),
    "one op-count catalogue": (
        r"run_bench|BenchReport|check_opcount_guard|opcount_guard"
        r"|update-guard|bench_ablations|bench_table1|bench_fig12|repro bench",
        TREE + ("benchmarks",), ("e2e",)),
    "one way to build a network": (
        r"build_dumbbell|build_two_tier|build_parallel|\bDumbbell\b"
        r"|LegacyScheme|baselines/legacy",
        TREE_AND_BENCHMARKS, ()),
    "one declaration per knob": (
        r"register_scheme|default_server_policy|_grant_policy",
        TREE, ()),
    "one route per scheme knob": (
        r"merged_scheme_options|config_overrides|--regular-qdisc",
        TREE, ()),
}


def _files(paths, skip_dirs):
    for name in paths:
        path = ROOT / name
        candidates = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in candidates:
            parts = file.relative_to(ROOT).parts[:-1]
            if (file.suffix in (".py", ".md") and file.is_file()
                    and not set(parts) & set(skip_dirs)
                    and file != Path(__file__).resolve()):
                yield file


@pytest.mark.parametrize("fence", sorted(FENCES))
def test_removed_names_stay_removed(fence):
    pattern, paths, skip_dirs = FENCES[fence]
    regex = re.compile(pattern)
    hits = [
        f"{file.relative_to(ROOT)}:{number}: {line.strip()}"
        for file in _files(paths, skip_dirs)
        for number, line in enumerate(
            file.read_text(encoding="utf-8", errors="replace").splitlines(), 1)
        if regex.search(line)
    ]
    assert hits == [], f"{fence}: removed names are back:\n" + "\n".join(hits)
