"""README's quickstart and the examples run as written.

Each runs in a fresh interpreter, the way a reader runs it, with
DeprecationWarning raised as an error.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={"PYTHONPATH": str(ROOT / "src")},
    )


def test_readme_quickstart_prints_what_its_comment_says():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    claimed = re.search(r"^# -> ([^(]*)", block, re.M).group(1)
    proc = _python("-c", block)
    assert proc.returncode == 0, proc.stderr
    printed = [round(float(v), 2) for v in proc.stdout.split()]
    assert printed == [float(v) for v in re.findall(r"\d+\.\d+", claimed)]


@pytest.mark.parametrize("name", [
    "quickstart", "incremental_deployment", "path_identifiers",
    "web_server_policy",
])
def test_example_runs(name):
    proc = _python(str(ROOT / "examples" / f"{name}.py"))
    assert proc.returncode == 0, proc.stderr
