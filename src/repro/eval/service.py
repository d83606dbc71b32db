"""Sharded, resumable sweeps over a shared result cache.

:class:`~repro.eval.runner.SweepRunner` is the one thing that turns a
spec list into cached results; this module adds only what grids too
large for one invocation need:

* **Sharding** — :func:`shard_specs` deterministically partitions a
  (seed-expanded) spec list by each spec's content hash, so N
  independent invocations (``repro sweep --shard i/N``, plain SSH loops,
  k8s job arrays) cover a grid with zero coordination and zero overlap.
  :func:`run_shard` runs one slice through a runner and reports it as a
  :class:`~repro.eval.results.ShardReport`; failures are reported, not
  raised, after every sibling has completed and been cached.
* **Resume** — the shared cache is the only source of truth: a
  re-invocation after a crash or SIGKILL is served every completed spec
  from the cache and re-runs only the missing ones.
* **One journal** — :class:`ProgressLog` is an ``on_event`` consumer
  that appends every cache hit, start, completion, retry, and failure,
  with per-spec timing, to a JSONL file for tailing and post-hoc
  analysis.

The second sweep driver class, its per-grid resume manifest beside the
cache, the grid fingerprint that named it and the ``repro sweep`` flag
that moved it are removed, not deprecated: merging is
:meth:`SweepRunner.run_points <repro.eval.runner.SweepRunner.run_points>`
over the shared cache, whose JSON is byte-identical to an uninterrupted
single-process ``--jobs 1`` run because execution facts (shards,
retries, timings) never enter result payloads.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .results import ShardReport
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
    try:
        shard, of = map(int, text.split("/"))
    except ValueError:  # not two parts, or not integers
        raise ValueError(
            f"shard selector must be two integers i/N, got {text!r}"
        ) from None
    if not 0 <= shard < of:
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
    if not 0 <= shard < of:  # also rules out of < 1
        raise ValueError(f"shard must be in [0, {of}), got {shard}")
    return [s for s in specs if shard_index(s.key(), of) == shard]


class ProgressLog:
    """Structured JSONL progress stream with per-spec timing.

    Pass it (or a callable that calls it) as a runner's ``on_event``:
    each :class:`~repro.eval.runner.SweepEvent` becomes one line.
    ``elapsed`` on ``done``/``failed`` lines is wall-clock seconds since
    that spec's latest ``start`` (submit-to-completion, so under a full
    process pool it includes queueing).  Each line is appended and the
    file closed before the next event, so a SIGKILL loses at most the
    line being written and there is nothing to close.  Observability
    only — nothing here feeds back into results.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._started: Dict[str, float] = {}

    def __call__(self, event: SweepEvent) -> None:
        key = event.spec.key()
        now = time.monotonic()
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
        if event.kind == "start":
            self._started[key] = now
        elif event.kind in ("done", "failed"):
            record["elapsed"] = round(now - self._started.get(key, now), 6)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def run_shard(
    runner: SweepRunner,
    specs: Sequence[ScenarioSpec],
    shard: int = 0,
    of: int = 1,
    seeds: int = 1,
) -> ShardReport:
    """Run this shard's slice of the (seed-expanded) grid on ``runner``.

    Idempotent and resumable: cached specs are skipped, and failures are
    retried up to the runner's cap and then reported (never raised).
    The runner must have the shared cache — it is how shards hand
    results to each other and to the merge — or this is a
    ``ValueError``.
    """
    if runner.cache is None:
        raise ValueError(
            "run_shard needs a runner with a shared ResultCache; sharded "
            "and resumable sweeps are meaningless without one"
        )
    # Sharding operates on the seed-expanded list, so replications of
    # one point spread across shards like any other spec.
    expanded = expand_seeds(specs, seeds)
    mine = shard_specs(expanded, shard, of)
    report = ShardReport(
        shard=shard, of=of, total=len(expanded), assigned=len(mine)
    )
    hits = runner.cache.hits
    try:
        report.results = runner.run(mine)
    except SweepFailure as failure:
        report.results = failure.results
        report.failures = failure.failures
    report.cached = runner.cache.hits - hits
    report.completed = (
        sum(r is not None for r in report.results) - report.cached
    )
    return report
