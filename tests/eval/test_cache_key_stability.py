"""Cache filenames derive only from the sha256 spec key.

``ScenarioSpec.__hash__`` calls the builtin ``hash()`` (carrying a
``repro: allow-hash-builtin`` annotation) for in-process set/dict
membership.  These tests pin down why that is safe: nothing that
crosses a process boundary — cache paths, cache keys, canonical JSON —
depends on ``hash()`` or ``PYTHONHASHSEED``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

from repro.eval.cache import ResultCache
from repro.eval.runner import ScenarioSpec

SRC = str(Path(__file__).resolve().parents[2] / "src")

_KEY_SCRIPT = """\
import json
from repro.eval.runner import ScenarioSpec
spec = ScenarioSpec(scheme="tva", attack="legacy", n_attackers=3, seed=7)
print(json.dumps({
    "key": spec.key(),
    "canonical": json.dumps(spec.canonical(), sort_keys=True),
}))
"""


def _spec_key_under_hash_seed(seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _KEY_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
    )
    return json.loads(proc.stdout)


def test_cache_path_uses_only_the_hex_key(tmp_path):
    spec = ScenarioSpec(scheme="tva", attack="legacy", n_attackers=3)
    key = spec.key()
    assert re.fullmatch(r"[0-9a-f]{64}", key)
    path = ResultCache(tmp_path).path_for(key)
    assert path == tmp_path / key[:2] / f"{key}.json"
    # The in-process hash() value appears nowhere in the filename.
    assert str(hash(spec)) not in str(path)


def test_spec_key_is_stable_across_hash_seeds():
    one = _spec_key_under_hash_seed("1")
    two = _spec_key_under_hash_seed("2")
    assert one["key"] == two["key"]
    assert one["canonical"] == two["canonical"]


def test_spec_key_matches_in_process_value():
    spec = ScenarioSpec(scheme="tva", attack="legacy", n_attackers=3, seed=7)
    assert spec.key() == _spec_key_under_hash_seed("random")["key"]
