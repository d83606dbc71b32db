"""Deterministic metric primitives: tallies, gauges and the registry.

The paper's claims are statements about *internal* router dynamics —
per-class queue occupancy (Figure 2), demotion counts (Section 3.8), the
bounded flow-state table (Section 3.6).  There is one way to count them:

* A component keeps each tally as a plain ``int`` attribute it adds to
  itself (``self.drops += 1``) and offers ``metric_items()``, an iterable
  of ``(suffix, read)`` pairs whose ``read()`` returns the live value.
  :func:`tally_items` builds those pairs for attributes exported under
  their own names.
* :class:`MetricRegistry` is a per-simulation namespace binding dotted
  names to such read functions (*gauges*).  Reads iterate in sorted name
  order, so a sample is a deterministic function of simulation state —
  never of hash seeds or registration order.

Nothing in this module depends on the simulator; the periodic driver
lives in :mod:`repro.obs.sampler`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Tuple, Union

#: A metric read returns an int (tallies, occupancy gauges) or a float
#: (rates, utilizations).  Both JSON-round-trip exactly, which the
#: result cache and the cross-process determinism guarantee rely on.
MetricValue = Union[int, float]

#: What a component's ``metric_items()`` yields.
MetricItem = Tuple[str, Callable[[], MetricValue]]


def tally_items(owner: object, names: Iterable[str]) -> List[MetricItem]:
    """``(name, read)`` pairs reading ``owner``'s attributes live."""
    return [(name, partial(getattr, owner, name)) for name in names]


class MetricRegistry:
    """One simulation run's metric namespace.

    Names are dotted paths, e.g. ``link.bottleneck.qdisc.request.drops``;
    duplicate registration is a programming error and raises.
    """

    def __init__(self) -> None:
        self._reads: Dict[str, Callable[[], MetricValue]] = {}

    # ------------------------------------------------------------------
    def gauge(self, name: str, read: Callable[[], MetricValue]) -> None:
        """Bind ``name`` to a zero-argument callable reading live state."""
        if not name:
            raise ValueError("metric name must be non-empty")
        if name in self._reads:
            raise ValueError(f"metric {name!r} already registered")
        if not callable(read):
            raise TypeError(f"cannot register {type(read).__name__} as a metric")
        self._reads[name] = read

    def gauges(self, prefix: str, items: Iterable[MetricItem]) -> None:
        """Register a component's ``metric_items()`` under a dotted prefix."""
        for suffix, read in items:
            self.gauge(f"{prefix}.{suffix}", read)

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._reads)

    def sample(self) -> Dict[str, MetricValue]:
        """Read every metric once, in sorted name order.

        The ordering matters beyond aesthetics: stateful gauges (rate
        gauges keeping a last-sample mark) are read exactly once per
        sample, in a deterministic sequence.
        """
        return {name: self._reads[name]() for name in sorted(self._reads)}

    def __contains__(self, name: str) -> bool:
        return name in self._reads

    def __len__(self) -> int:
        return len(self._reads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricRegistry {len(self._reads)} metrics>"
