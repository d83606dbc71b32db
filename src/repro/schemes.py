"""Registry of the evaluated schemes.

One place that knows every scheme the repo evaluates, so the CLI's
``--scheme`` choices, ``repro report``, and the experiment harness all
derive from the same table instead of each hard-coding the list.

:data:`SCHEMES` maps each scheme name to its scheme class.  A scheme's
knobs are its ``Knobs`` dataclass (:class:`~repro.core.scheme.TvaKnobs`,
:class:`~repro.baselines.siff.SiffKnobs`, ...), declared next to the
code that reads them; :func:`knobs_for` sets them by name, which is how
``ScenarioSpec.scheme_options`` and ``--scheme-opt key=value`` reach
them.  :func:`build_scheme` is name + knob overrides + the two non-knob
inputs — ``seed`` and ``destination_policy`` — in one call.

This module sits below :mod:`repro.eval` (it imports only core and
baselines), so the registry is importable without dragging in the
experiment harness.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Type

from .baselines import NetFenceScheme, PushbackScheme, SiffScheme
from .core import TvaScheme
from .sim.topology import LegacyDefaults, SchemeFactory, SchemeKnobs

#: Name -> scheme class, in the paper's presentation order (TVA, then
#: the comparison points, newest last).  Iteration order is the
#: CLI/report order.
SCHEMES: Dict[str, Type[LegacyDefaults]] = {
    scheme.name: scheme
    for scheme in (TvaScheme, SiffScheme, PushbackScheme, LegacyDefaults,
                   NetFenceScheme)
}


def scheme_names() -> Tuple[str, ...]:
    return tuple(SCHEMES)


def knobs_for(name: str, options: Optional[Dict[str, Any]] = None) -> SchemeKnobs:
    """Knob instance for ``name`` with ``options`` applied over defaults.

    An unknown option key raises ``TypeError`` and an out-of-range value
    ``ValueError``, both naming the scheme, so a typo'd or bad knob fails
    loudly instead of silently building something else."""
    scheme = SCHEMES.get(name)
    if scheme is None:
        raise ValueError(f"unknown scheme {name!r}; choose from {scheme_names()}")
    try:
        return scheme.Knobs(**(options or {}))
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"scheme {name!r}: {exc}") from None


def build_scheme(
    name: str,
    options: Optional[Dict[str, Any]] = None,
    *,
    seed: int = 42,
    destination_policy: Optional[Callable] = None,
) -> SchemeFactory:
    """Instantiate a registered scheme: ``options`` over its knob defaults.

    Unknown names and unknown knobs fail as in :func:`knobs_for`."""
    knobs = knobs_for(name, options)
    return SCHEMES[name](knobs, seed=seed, destination_policy=destination_policy)
