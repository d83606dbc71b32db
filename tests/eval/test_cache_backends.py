"""Tests for the on-disk result cache and its bugfix batch: the layout
is ``<dir>/<key[:2]>/<key>.json``, ``put`` must survive unserializable
payloads without leaking temp files, and ``clear`` must remove stale
temp files/empty shard dirs and reset stats."""

import inspect
import json

import pytest

from repro.api import ResultCache, RunResult


def result_for(key: str, **overrides) -> RunResult:
    fields = dict(scheme="tva", attack="legacy", n_attackers=1, seed=1,
                  fraction_completed=1.0, avg_transfer_time=0.3,
                  transfers_attempted=10, transfers_completed=10,
                  spec_key=key)
    fields.update(overrides)
    return RunResult(**fields)


KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


class TestOnDiskCache:
    def test_layout_is_byte_compatible(self, tmp_path):
        """The cache writes exactly the on-disk format it always has."""
        cache = ResultCache(tmp_path)
        result = result_for(KEY_A)
        assert cache.put(KEY_A, result)
        path = tmp_path / KEY_A[:2] / f"{KEY_A}.json"
        assert path == cache.path_for(KEY_A)
        assert path.read_text(encoding="utf-8") == json.dumps(
            result.to_dict())

    def test_get_put_contains_iter(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY_A) is None
        assert not cache.contains(KEY_A)
        assert cache.put(KEY_A, result_for(KEY_A))
        assert cache.put(KEY_B, result_for(KEY_B, n_attackers=2))
        assert cache.contains(KEY_A)
        assert cache.get(KEY_A) == result_for(KEY_A)
        assert list(cache.iter_keys()) == sorted([KEY_A, KEY_B])

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(KEY_A)
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2]")
        assert cache.get(KEY_A) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_put_unserializable_does_not_raise_or_leak_tmp(self, tmp_path):
        """Regression: a TypeError from json.dump used to escape the
        best-effort contract *and* leave the .tmp file behind."""
        cache = ResultCache(tmp_path)
        poisoned = result_for(KEY_A, metrics={"finals": {"bad": {1, 2}}})
        assert cache.put(KEY_A, poisoned) is False  # did not raise
        assert list(tmp_path.rglob("*.tmp")) == []
        assert len(cache) == 0

    def test_put_unserializable_keeps_existing_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = result_for(KEY_A)
        cache.put(KEY_A, good)
        cache.put(KEY_A, result_for(KEY_A, metrics={"finals": {"s": {1}}}))
        assert cache.get(KEY_A) == good

    def test_clear_removes_stale_tmp_and_empty_shard_dirs(self, tmp_path):
        """Regression: clear() used to leave interrupted-write .tmp files
        and empty two-hex shard directories behind."""
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, result_for(KEY_A))
        # Simulate an interrupted write and an already-emptied shard dir.
        (tmp_path / KEY_A[:2] / "tmpxyz.tmp").write_text("{torn")
        (tmp_path / "cc").mkdir()
        assert cache.clear() == 1
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.json")) == []
        assert not (tmp_path / KEY_A[:2]).exists()
        assert not (tmp_path / "cc").exists()

    def test_clear_resets_hit_miss_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, result_for(KEY_A))
        assert cache.get(KEY_A) is not None
        assert cache.get(KEY_B) is None
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert (cache.hits, cache.misses) == (0, 0)

    def test_clear_missing_directory(self, tmp_path):
        assert ResultCache(tmp_path / "nope").clear() == 0


class TestResultCacheConstruction:
    def test_takes_a_directory_and_nothing_else(self, tmp_path):
        assert list(inspect.signature(ResultCache).parameters) == ["directory"]
        assert ResultCache(tmp_path).directory == tmp_path

    def test_empty_key_is_an_error_not_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        for call in (cache.get, cache.contains, cache.path_for):
            with pytest.raises(ValueError, match="non-empty"):
                call("")
        with pytest.raises(ValueError, match="non-empty"):
            cache.put("", result_for(KEY_A))

    def test_contains_and_iter_keys_delegate(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not cache.contains(KEY_A)
        cache.put(KEY_A, result_for(KEY_A))
        assert cache.contains(KEY_A)
        assert list(cache.iter_keys()) == [KEY_A]
