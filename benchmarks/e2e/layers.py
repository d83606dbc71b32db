"""Per-layer self-time from a ``cProfile`` run, taken from outside the code.

Self-time goes to the layer of the module that *defines* the function.
A builtin or stdlib function (``heappush``, ``deque.append``, ``dict``
work — 9–12 % of a run) belongs to whoever called it, so its self-time
is split over its callers with the profiler's caller table and charged
to each caller's layer.  ``other`` keeps only what was called from
outside ``repro``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Callable, Dict, Optional, Tuple

from catalogue import LAYERS, layer_of


def _layer_of_func(func: Tuple[str, int, str], repro_root: str) -> Optional[str]:
    """Layer of a profiler entry, or ``None`` when it is not repro code."""
    filename = func[0]
    if not filename.startswith(repro_root):
        return None
    # An unmapped repro module lands in ``other``; the self-test fails on
    # it, so this never stays silent for long.
    return layer_of(os.path.relpath(filename, repro_root)) or "other"


def attribute(stats: pstats.Stats, repro_root: str) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self_s, calls)`` per layer for a finished profile."""
    repro_root = os.path.join(os.path.realpath(repro_root), "")
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.stats.items():
        layer = _layer_of_func(func, repro_root)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
        elif not callers:
            self_s["other"] += tt
            calls["other"] += nc
        else:
            for caller, (_ccc, cnc, ctt, _cct) in callers.items():
                charged = _layer_of_func(caller, repro_root) or "other"
                self_s[charged] += ctt
                calls[charged] += cnc
    return self_s, calls


def profile_layers(fn: Callable[[], object], repro_root: str):
    """Run ``fn`` under cProfile; return ``(fn's result, self_s, calls,
    profiled total seconds)``."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler)
    self_s, calls = attribute(stats, repro_root)
    return result, self_s, calls, stats.total_tt
