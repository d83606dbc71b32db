"""Deterministic op counts of the per-packet work.

Two layers:

* :mod:`repro.perf.counters` — the :data:`~repro.perf.counters.PERF`
  singleton the counts accumulate in (dependency-free; safe for
  ``repro.core`` / ``repro.sim`` to import).
* :mod:`repro.perf.opcounts` — the delta probe, which also takes the
  per-packet counts by wrapping the counted methods while it is open.

The counts are pinned by the tests: per golden run in
``tests/golden/opcounts.json``, per Table 1 packet kind in
``tests/eval/test_procbench.py``.  Time is measured by
``benchmarks/e2e`` (the repo benchmark), not here.

The probe imports :mod:`repro.sim`, which imports *this package* — so
it is loaded lazily via module ``__getattr__`` to keep the import graph
acyclic.
"""

from __future__ import annotations

from .counters import FIELDS, PERF, PerfCounters

_LAZY = {
    "OpCounts": "opcounts",
    "OpCountProbe": "opcounts",
}

__all__ = ["FIELDS", "PERF", "PerfCounters", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
