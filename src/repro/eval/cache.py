"""Content-addressed result cache: one directory of JSON files.

A :class:`~repro.eval.runner.ScenarioSpec` hashes to a stable hex key
(spec fields + a code-version salt); :class:`ResultCache` stores the
corresponding :class:`~repro.eval.results.RunResult` as
``<dir>/<key[:2]>/<key>.json``.  Because the simulator is deterministic
given a spec, a warm cache makes re-running a figure, regenerating a
report, or resuming an interrupted sweep near-instant.

Writes are atomic (temp file + ``os.replace``): a concurrent reader
sees the old entry or the new one, never a torn write — which is what
makes one directory safe to share between sweep shards on the same
filesystem.  The default directory is ``$REPRO_CACHE_DIR``, or
``~/.cache/repro`` (``$XDG_CACHE_HOME`` honoured).  Corrupt or
unreadable entries are treated as misses and overwritten, never raised;
an unwritable or unserializable ``put`` degrades to no caching rather
than losing the computed result.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional

from .results import RunResult


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Get/put :class:`RunResult` objects keyed by spec hash, on disk."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = Path(directory if directory else default_cache_dir())
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        if not key:
            raise ValueError("cache key must be non-empty")
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        result = self._load(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def _load(self, key: str) -> Optional[RunResult]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        try:
            result = RunResult.from_dict(data)
        except (ValueError, TypeError, KeyError):
            return None
        # A stale file from an older key scheme is ignored.
        return result if result.spec_key == key else None

    def put(self, key: str, result: RunResult) -> bool:
        """Store a result; best-effort — an unwritable cache directory or
        unserializable payload degrades to no caching rather than losing
        the computed result."""
        path = self.path_for(key)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: write to a temp file in the same shard
            # directory, then rename over the final name.
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(result.to_dict(), handle)
            os.replace(tmp, path)
            tmp = None  # published; nothing to clean up
            return True
        except (OSError, TypeError, ValueError):
            # OSError: unwritable cache; TypeError/ValueError: payload
            # not JSON-serializable.  Both degrade to "not cached".
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def contains(self, key: str) -> bool:
        """Whether ``key`` has a stored entry (no payload validation)."""
        return self.path_for(key).is_file()

    def iter_keys(self) -> Iterator[str]:
        """Every cached spec key, in sorted order."""
        if not self.directory.exists():
            return
        for path in sorted(self.directory.glob("*/*.json")):
            yield path.stem

    def clear(self) -> int:
        """Delete every entry, stale ``.tmp`` files from interrupted
        writes and the then-empty two-hex shard directories, and reset
        the hit/miss statistics; returns how many entries were removed."""
        self.hits = 0
        self.misses = 0
        removed = 0
        if not self.directory.exists():
            return 0
        for path in sorted(self.directory.glob("*/*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in sorted(self.directory.glob("*/*.tmp")):
            try:
                path.unlink()
            except OSError:
                pass
        for shard in sorted(self.directory.iterdir()):
            if shard.is_dir() and not any(shard.iterdir()):
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())
