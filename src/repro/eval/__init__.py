"""The evaluation stack: one run path, and the grids built on it.

Every simulation is a :class:`~repro.eval.runner.ScenarioSpec` executed
by :func:`~repro.eval.runner.run_spec` into a
:class:`~repro.eval.results.RunResult`; a figure is a list of specs.

* :mod:`repro.eval.experiments` — what a spec is made of
  (:class:`ExperimentConfig`, the attack classes) and the Figure 11
  time-series record.
* :mod:`repro.eval.runner` — :class:`ScenarioSpec`, ``run_spec``, the
  per-figure spec builders, and :class:`SweepRunner`, which executes
  spec lists cached, multi-seed, and multi-process.  Which builder each
  paper artifact uses, at which defaults, is
  :data:`repro.scenarios.FIGURES`.
* :mod:`repro.eval.results` — :class:`RunResult` / :class:`PointResult` /
  :class:`SweepResult`, JSON-serializable with mean/stdev/95%-CI
  aggregation across seed replications, and the one summary of a
  metrics export.
* :mod:`repro.eval.cache` — content-addressed on-disk result cache keyed
  by spec hash, making warm re-runs near-instant.
* :mod:`repro.eval.service` — sharded, resumable sweeps: deterministic
  grid partitioning (``--shard i/N``), ``run_shard`` (one slice through
  a :class:`SweepRunner`, resumed from the shared cache), and the JSONL
  progress log that is the sweep's one journal.  The second sweep
  driver class and its resume manifest are removed, not deprecated.
* :mod:`repro.eval.procbench` — Table 1 and Figure 12 (packet-processing
  cost and forwarding-rate micro-benchmarks of the TVA router pipeline).
* :mod:`repro.eval.dynamics` — the network-dynamics experiment: recovery
  after router reboots, driven by :mod:`repro.faults`.

The scenario-running surface (`ScenarioSpec`, `SweepRunner`, `run_spec`,
caches, results, spec builders, ``FIGURES``) is exported by the stable
:mod:`repro.api` facade, not from here.
"""

from .experiments import SCHEMES, ExperimentConfig, Fig11Result
from .procbench import (
    PACKET_KINDS,
    ProcessingCost,
    RouterWorkbench,
    forwarding_rate_curve,
    format_table1,
    measure_processing_costs,
)

__all__ = [
    "ExperimentConfig",
    "Fig11Result",
    "PACKET_KINDS",
    "ProcessingCost",
    "RouterWorkbench",
    "SCHEMES",
    "format_table1",
    "forwarding_rate_curve",
    "measure_processing_costs",
]
