"""Deterministic observability for the simulator.

Import surface is deliberately narrow: this package's primitives
(:class:`MetricRegistry`, :func:`tally_items`, :class:`Sampler`) have no
dependency on ``repro.sim`` or ``repro.core``, so component modules can
import them freely.  Components count with plain ``int`` attributes and
export them through ``metric_items()``; the registry only ever holds
read functions.  The network-aware wiring lives in
:mod:`repro.obs.instrument` and must be imported explicitly
(``from repro.obs.instrument import Observation``) — it pulls in core
and scheme modules and would otherwise create an import cycle.
"""

from .metrics import MetricRegistry, MetricValue, tally_items
from .sampler import Sampler

__all__ = ["MetricRegistry", "MetricValue", "Sampler", "tally_items"]
