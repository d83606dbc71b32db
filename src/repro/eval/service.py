"""Sharded, resumable sweep service — the cluster-shape experiment driver.

:class:`~repro.eval.runner.SweepRunner` executes a spec list on one
machine; this module turns that into a coordination-free *service* for
parameter grids far beyond the paper's Figures 8–11:

* **Sharding** — :func:`shard_specs` deterministically partitions a
  (seed-expanded) spec list by each spec's content hash, so N
  independent invocations (``repro sweep --shard i/N``, plain SSH loops,
  k8s job arrays) cover a grid with zero coordination and zero overlap.
* **Resume** — every invocation journals per-spec status to an
  append-only JSONL *manifest* next to the cache.  A re-invocation after
  a crash or SIGKILL skips every spec whose result is already in the
  shared cache and re-runs only missing or failed ones, making any sweep
  an idempotent checkpointed job.
* **Fault tolerance** — worker crashes retry per spec (capped), partial
  results are cached as they complete, and failures are reported in the
  :class:`~repro.eval.results.ShardReport` instead of aborting siblings.
* **Streaming progress** — an optional JSONL progress log records every
  cache hit, start, completion, retry, and failure with wall-clock
  timing, for tailing and post-hoc analysis.

Execution facts (shards, retries, timings) never leak into result
payloads: :meth:`SweepService.merge` reassembles the full grid from the
shared cache into a :class:`~repro.eval.results.SweepResult` that is
byte-identical to an uninterrupted single-process ``--jobs 1`` run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from .cache import ResultCache
from .results import ShardReport, SweepResult
from .runner import (
    ScenarioSpec,
    SweepEvent,
    SweepFailure,
    SweepRunner,
    expand_seeds,
)


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``"i/N"`` shard selector into ``(shard, of)``.

    ``shard`` counts from 0: ``"0/2"`` and ``"1/2"`` together cover a
    grid exactly once.
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"shard selector must look like i/N, got {text!r}")
    try:
        shard, of = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"shard selector must be two integers i/N, got {text!r}"
        ) from None
    if of < 1 or not 0 <= shard < of:
        raise ValueError(
            f"shard selector out of range: need 0 <= i < N, got {text!r}"
        )
    return shard, of


def shard_index(key: str, of: int) -> int:
    """Which of ``of`` shards owns the spec with content hash ``key``."""
    return int(key[:16], 16) % of


def shard_specs(
    specs: Sequence[ScenarioSpec], shard: int, of: int
) -> List[ScenarioSpec]:
    """The sub-list of ``specs`` owned by ``shard`` of ``of``.

    Partitioning hashes each spec's :meth:`~ScenarioSpec.key`, so it is
    deterministic across processes, machines, and Python hash seeds, and
    independent of the list's order: the N shard invocations never need
    to talk to each other to divide the grid.
    """
    if of < 1:
        raise ValueError("shard count must be >= 1")
    if not 0 <= shard < of:
        raise ValueError(f"shard must be in [0, {of}), got {shard}")
    if of == 1:
        return list(specs)
    return [s for s in specs if shard_index(s.key(), of) == shard]


def grid_key(specs: Sequence[ScenarioSpec]) -> str:
    """A short stable fingerprint of a whole grid (order-independent)."""
    digest = hashlib.sha256()
    for key in sorted(spec.key() for spec in specs):
        digest.update(key.encode("ascii"))
    return digest.hexdigest()[:16]


def default_manifest_path(
    cache_dir: os.PathLike, specs: Sequence[ScenarioSpec]
) -> Path:
    """Where a grid's manifest lives when the caller doesn't choose:
    ``<cache_dir>/manifests/sweep-<grid fingerprint>.jsonl`` — every
    shard of the same grid against the same cache dir converges on the
    same file."""
    return Path(cache_dir) / "manifests" / f"sweep-{grid_key(specs)}.jsonl"


class SweepManifest:
    """Append-only JSONL journal of per-spec sweep status.

    Each line is ``{"key": ..., "status": "done"|"cached"|"failed",
    ...}``; the latest line per key wins.  Appends are flushed and
    fsynced so a SIGKILL loses at most the line being written — and
    :meth:`statuses` skips a torn trailing line instead of failing, so
    a crashed sweep's manifest always loads.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._handle: Optional[TextIO] = None

    def statuses(self) -> Dict[str, Dict]:
        """Latest record per spec key (empty if the file doesn't exist)."""
        folded: Dict[str, Dict] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn write from an interrupted sweep
                    key = record.get("key")
                    if isinstance(key, str) and key:
                        folded[key] = record
        except OSError:
            return {}
        return folded

    def record(self, key: str, status: str, **extra) -> None:
        """Append one status line (crash-safe: flush + fsync)."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        payload = {"key": key, "status": status}
        payload.update(extra)
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepManifest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProgressLog:
    """Structured JSONL progress stream with per-spec timing.

    One line per :class:`~repro.eval.runner.SweepEvent`; ``elapsed`` on
    ``done``/``failed`` lines is wall-clock seconds since that spec's
    latest ``start`` (submit-to-completion, so under a full process pool
    it includes queueing).  Observability only — nothing here feeds back
    into results.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._handle: Optional[TextIO] = None

    def write(self, record: Dict) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ProgressLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SweepService:
    """Drive sharded, resumable sweeps over a shared result cache.

    ``cache`` is the shared store every shard reads and writes — a
    :class:`~repro.eval.cache.ResultCache` over a directory all shards
    can reach.  The cache, not the manifest, is the source of truth for
    resume: a spec re-runs unless its result is actually retrievable, so
    a manifest that over-claims (e.g. the cache was pruned) heals itself
    instead of silently dropping grid points.
    """

    def __init__(
        self,
        cache: ResultCache,
        jobs: Optional[int] = None,
        retries: int = 2,
        manifest_path: Optional[os.PathLike] = None,
        progress_log: Optional[os.PathLike] = None,
        progress: Optional[Callable[[ScenarioSpec, bool], None]] = None,
    ) -> None:
        if cache is None:
            raise ValueError(
                "SweepService needs a shared ResultCache; sharded and "
                "resumable sweeps are meaningless without one"
            )
        self.cache = cache
        self.jobs = jobs
        self.retries = retries
        self.manifest_path = manifest_path
        self.progress_log = progress_log
        self.progress = progress

    def _manifest_for(self, expanded: Sequence[ScenarioSpec]) -> SweepManifest:
        if self.manifest_path is not None:
            return SweepManifest(self.manifest_path)
        return SweepManifest(default_manifest_path(
            self.cache.directory, expanded))

    # -- the service entry points -------------------------------------------

    def run_shard(
        self,
        specs: Sequence[ScenarioSpec],
        shard: int = 0,
        of: int = 1,
        seeds: int = 1,
    ) -> ShardReport:
        """Run this shard's slice of the (seed-expanded) grid.

        Idempotent and resumable: cached specs are skipped, failures are
        retried up to the cap and then reported (never raised), and the
        manifest/progress log are appended as specs finish so a SIGKILL
        mid-grid loses nothing already completed.
        """
        # Sharding operates on the seed-expanded list, so replications of
        # one point spread across shards like any other spec.
        expanded = expand_seeds(specs, seeds)
        mine = shard_specs(expanded, shard, of)
        report = ShardReport(
            shard=shard, of=of, total=len(expanded), assigned=len(mine)
        )
        if not mine:
            return report

        progress_log = (
            ProgressLog(self.progress_log)
            if self.progress_log is not None else nullcontext()
        )
        with self._manifest_for(expanded) as manifest, progress_log as plog:
            started_at: Dict[str, float] = {}

            def on_event(event: SweepEvent) -> None:
                key = event.spec.key()
                now = time.monotonic()
                record = _event_record(event, key)
                if event.kind == "cached":
                    report.cached += 1
                    manifest.record(key, "cached")
                elif event.kind == "start":
                    started_at[key] = now
                elif event.kind == "done":
                    elapsed = now - started_at.get(key, now)
                    record["elapsed"] = round(elapsed, 6)
                    report.completed += 1
                    manifest.record(
                        key, "done",
                        attempts=event.attempt,
                        elapsed=round(elapsed, 6),
                    )
                elif event.kind == "failed":
                    elapsed = now - started_at.get(key, now)
                    record["elapsed"] = round(elapsed, 6)
                    manifest.record(
                        key, "failed",
                        attempts=event.attempt,
                        error=event.error,
                    )
                if plog is not None:
                    plog.write(record)

            runner = SweepRunner(
                jobs=self.jobs,
                cache=self.cache,
                progress=self.progress,
                retries=self.retries,
                on_event=on_event,
            )
            try:
                report.results = list(runner.run(mine))
            except SweepFailure as failure:
                report.results = list(failure.results)
                report.failures = [
                    {
                        "key": f.spec.key(),
                        "scheme": f.spec.scheme,
                        "attack": f.spec.attack,
                        "n_attackers": f.spec.n_attackers,
                        "seed": f.spec.seed,
                        "attempts": f.attempts,
                        "error": f.error,
                    }
                    for f in failure.failures
                ]
        return report

    def merge(
        self,
        specs: Sequence[ScenarioSpec],
        seeds: int = 1,
        title: str = "",
    ) -> SweepResult:
        """Assemble the full grid into one :class:`SweepResult`.

        After the shards have populated the shared cache this is pure
        reassembly (zero simulations); any still-missing spec is run
        here, so the merge pass doubles as a completeness backstop.  The
        JSON is byte-identical to an uninterrupted ``--jobs 1`` run of
        the same grid: execution provenance never enters the payload.
        """
        runner = SweepRunner(
            jobs=self.jobs,
            cache=self.cache,
            progress=self.progress,
            retries=self.retries,
        )
        return runner.run_points(specs, seeds=seeds, title=title)


def _event_record(event: SweepEvent, key: str) -> Dict:
    record = {
        "event": event.kind,
        "key": key,
        "scheme": event.spec.scheme,
        "attack": event.spec.attack,
        "n_attackers": event.spec.n_attackers,
        "seed": event.spec.seed,
    }
    if event.attempt:
        record["attempt"] = event.attempt
    if event.error is not None:
        record["error"] = event.error
    return record
