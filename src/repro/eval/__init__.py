"""Experiment harnesses: one runner per paper figure/table.

* :mod:`repro.eval.experiments` — Figures 8, 9, 10, 11 (ns-style dumbbell
  simulations of the four schemes under four attack classes).
* :mod:`repro.eval.runner` — the sweep runner: declarative
  :class:`ScenarioSpec` descriptions of single runs, executed cached,
  multi-seed, and multi-process by :class:`SweepRunner`.
* :mod:`repro.eval.results` — :class:`RunResult` / :class:`PointResult` /
  :class:`SweepResult`, JSON-serializable with mean/stdev/95%-CI
  aggregation across seed replications.
* :mod:`repro.eval.cache` — content-addressed result cache keyed by
  spec hash, with pluggable storage backends (local directory, layered
  local-over-shared), making warm re-runs near-instant.
* :mod:`repro.eval.service` — the sharded, resumable sweep service:
  deterministic grid partitioning (``--shard i/N``), an append-only
  resume manifest, per-spec retries, and a JSONL progress stream.
* :mod:`repro.eval.procbench` — Table 1 and Figure 12 (packet-processing
  cost and forwarding-rate micro-benchmarks of the TVA router pipeline).
* :mod:`repro.eval.dynamics` — the network-dynamics experiment: recovery
  after router reboots, driven by :mod:`repro.faults`.

The scenario-running surface (`ScenarioSpec`, `SweepRunner`, `run_spec`,
caches, results, spec builders) is exported by the stable
:mod:`repro.api` facade, not from here.
"""

from .experiments import (
    DEFAULT_SWEEP,
    SCHEMES,
    ExperimentConfig,
    Fig11Result,
    FloodResult,
    format_flood_table,
    run_fig8_legacy_flood,
    run_fig9_request_flood,
    run_fig10_colluder_flood,
    run_fig11_imprecise,
    run_flood_scenario,
)
from .procbench import (
    PACKET_KINDS,
    ProcessingCost,
    RouterWorkbench,
    forwarding_rate_curve,
    format_table1,
    measure_processing_costs,
)

__all__ = [
    "DEFAULT_SWEEP",
    "ExperimentConfig",
    "Fig11Result",
    "FloodResult",
    "PACKET_KINDS",
    "ProcessingCost",
    "RouterWorkbench",
    "SCHEMES",
    "format_flood_table",
    "format_table1",
    "forwarding_rate_curve",
    "measure_processing_costs",
    "run_fig10_colluder_flood",
    "run_fig11_imprecise",
    "run_fig8_legacy_flood",
    "run_fig9_request_flood",
    "run_flood_scenario",
]
