"""Deterministic op-count profiling and the op-count guard.

Two layers:

* :mod:`repro.perf.counters` — the :data:`~repro.perf.counters.PERF`
  singleton the counts accumulate in (dependency-free; safe for
  ``repro.core`` / ``repro.sim`` to import).
* :mod:`repro.perf.opcounts` / :mod:`repro.perf.harness` — the delta
  probe (which also takes the per-packet counts, by wrapping the counted
  methods while it is open), benchmark workloads, and the op-count guard
  behind ``repro bench``.

Time is measured by ``benchmarks/e2e`` (the repo benchmark), not here.

The harness imports :mod:`repro.eval`, which imports :mod:`repro.core`,
which imports *this package* — so everything beyond the counters is
loaded lazily via module ``__getattr__`` to keep the import graph
acyclic.
"""

from __future__ import annotations

from .counters import FIELDS, PERF, PerfCounters

_LAZY = {
    "OpCounts": "opcounts",
    "OpCountProbe": "opcounts",
    "BenchReport": "harness",
    "run_bench": "harness",
    "check_opcount_guard": "harness",
    "WORKLOADS": "harness",
}

__all__ = ["FIELDS", "PERF", "PerfCounters", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
