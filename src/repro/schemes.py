"""Registry of the evaluated schemes.

One place that knows how to build every scheme the repo evaluates, so the
CLI's ``--scheme`` choices, ``repro report``, and the experiment harness
all derive from the same table instead of each hard-coding the list.

The registry maps each scheme name to a frozen *knob dataclass*
(:class:`TvaKnobs`, :class:`SiffKnobs`, ...) registered with the
:func:`register_scheme` decorator.  Knobs are the JSON-serializable
configuration surface of a scheme: they round-trip losslessly through
``ScenarioSpec.scheme_options`` (and therefore the run cache and the
``--scheme-opt key=value`` CLI flag), while :meth:`SchemeKnobs.build`
turns them plus the two universal non-knob inputs — ``seed`` and
``destination_policy`` — into a live
:class:`~repro.sim.topology.SchemeFactory`.

:func:`build_scheme` is the one construction path: name + knob overrides
(:func:`knobs_for`) + the two non-knob inputs, in one call.

This module sits below :mod:`repro.eval` (it imports only core and
baselines), so the registry is importable without dragging in the
experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type

from .baselines import LegacyScheme, NetFenceScheme, PushbackScheme, SiffScheme
from .baselines.netfence import FEEDBACK_EXPIRY, NETFENCE_SECRET_PERIOD
from .baselines.siff import MARK_BITS, SIFF_SECRET_PERIOD
from .core import ServerPolicy, TvaScheme
from .core.params import (
    REQUEST_FRACTION_DEFAULT,
    SERVER_GRANT_BYTES,
    SERVER_GRANT_SECONDS,
)
from .sim.topology import SchemeFactory

DEFAULT_SERVER_GRANT = (SERVER_GRANT_BYTES, SERVER_GRANT_SECONDS)


#: What :func:`is_grant` accepts, as an error message says it.
GRANT_NEEDS = "[bytes, seconds], two positive numbers"


def as_grant(value: Any) -> Any:
    """``value`` with a JSON list folded back to a tuple."""
    return tuple(value) if isinstance(value, list) else value


def is_grant(value: Any) -> bool:
    """Whether ``value`` is a ``(bytes, seconds)`` grant a destination can
    issue: two positive finite numbers (booleans are not numbers here)."""
    return isinstance(value, tuple) and len(value) == 2 and all(
        type(v) in (int, float) and 0 < v < math.inf for v in value
    )


def _grant_policy(server_grant) -> Callable[[], ServerPolicy]:
    grant = tuple(server_grant)
    return lambda: ServerPolicy(default_grant=grant)


def _jsonify(value: Any) -> Any:
    """Fold a knob value to plain JSON types (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class SchemeKnobs:
    """Base for per-scheme knob dataclasses.

    A knob set is frozen, JSON-round-trippable configuration.  The two
    inputs every scheme accepts but that are *not* knobs — ``seed``
    (live per-run state) and ``destination_policy`` (an arbitrary
    callable) — are passed to :meth:`build` instead, which is why they
    never appear in ``ScenarioSpec.scheme_options`` or cache keys.
    """

    def _require(self, knob: str, ok: bool, allowed: str) -> None:
        """Range check for ``__post_init__``: knob values arrive from
        ``--scheme-opt`` and spec files, so a bad one must fail when the
        spec is built, not inside a sweep worker."""
        if not ok:
            raise ValueError(
                f"scheme {self.scheme_name!r}: {knob}={getattr(self, knob)!r} "
                f"out of range, need {allowed}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON dict of this knob set (tuples folded to lists)."""
        return {k: _jsonify(v) for k, v in sorted(asdict(self).items())}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SchemeKnobs":
        return cls(**data)

    def build(
        self,
        *,
        seed: int = 42,
        destination_policy: Optional[Callable] = None,
    ) -> SchemeFactory:
        raise NotImplementedError


#: Name -> knob dataclass, in the paper's presentation order (TVA, then
#: the comparison points, newest last).  Iteration order is the
#: CLI/report order.
SCHEMES: Dict[str, Type[SchemeKnobs]] = {}


def register_scheme(name: str) -> Callable[[Type[SchemeKnobs]], Type[SchemeKnobs]]:
    """Class decorator registering a knob dataclass under ``name``.

    The decorated class gains a ``scheme_name`` attribute; registration
    order is presentation order everywhere names are listed.
    """

    def deco(cls: Type[SchemeKnobs]) -> Type[SchemeKnobs]:
        if name in SCHEMES:
            raise ValueError(f"scheme {name!r} already registered")
        cls.scheme_name = name
        SCHEMES[name] = cls
        return cls

    return deco


@register_scheme("tva")
@dataclass(frozen=True)
class TvaKnobs(SchemeKnobs):
    """TVA knobs (the paper's own scheme)."""

    server_grant: Tuple[int, float] = DEFAULT_SERVER_GRANT
    request_fraction: float = REQUEST_FRACTION_DEFAULT
    regular_qdisc: str = "drr"

    def __post_init__(self) -> None:
        object.__setattr__(self, "server_grant", as_grant(self.server_grant))
        self._require("server_grant", is_grant(self.server_grant), GRANT_NEEDS)
        self._require("request_fraction", 0 < self.request_fraction < 1,
                      "0 < request_fraction < 1")
        self._require("regular_qdisc", self.regular_qdisc in ("drr", "sfq"),
                      "'drr' or 'sfq'")

    def build(self, *, seed: int = 42,
              destination_policy: Optional[Callable] = None) -> TvaScheme:
        return TvaScheme(
            request_fraction=self.request_fraction,
            destination_policy=destination_policy or _grant_policy(self.server_grant),
            seed=seed,
            regular_qdisc=self.regular_qdisc,
        )


@register_scheme("siff")
@dataclass(frozen=True)
class SiffKnobs(SchemeKnobs):
    """SIFF knobs (capability-bit baseline)."""

    server_grant: Tuple[int, float] = DEFAULT_SERVER_GRANT
    secret_period: float = SIFF_SECRET_PERIOD
    accept_previous: bool = True
    mark_bits: int = MARK_BITS

    def __post_init__(self) -> None:
        object.__setattr__(self, "server_grant", as_grant(self.server_grant))
        self._require("server_grant", is_grant(self.server_grant), GRANT_NEEDS)

    def build(self, *, seed: int = 42,
              destination_policy: Optional[Callable] = None) -> SiffScheme:
        return SiffScheme(
            secret_period=self.secret_period,
            accept_previous=self.accept_previous,
            destination_policy=destination_policy or _grant_policy(self.server_grant),
            seed=seed,
            mark_bits=self.mark_bits,
        )


@register_scheme("pushback")
@dataclass(frozen=True)
class PushbackKnobs(SchemeKnobs):
    """Pushback knobs (aggregate congestion control baseline)."""

    review_interval: float = 2.0
    drop_fraction_threshold: float = 0.02

    def build(self, *, seed: int = 42,
              destination_policy: Optional[Callable] = None) -> PushbackScheme:
        # Pushback needs no seed or destination policy; accepted for the
        # uniform signature.
        return PushbackScheme(
            review_interval=self.review_interval,
            drop_fraction_threshold=self.drop_fraction_threshold,
        )


@register_scheme("internet")
@dataclass(frozen=True)
class InternetKnobs(SchemeKnobs):
    """The legacy Internet has no knobs."""

    def build(self, *, seed: int = 42,
              destination_policy: Optional[Callable] = None) -> LegacyScheme:
        return LegacyScheme()


@register_scheme("netfence")
@dataclass(frozen=True)
class NetFenceKnobs(SchemeKnobs):
    """NetFence knobs (closed-loop congestion policing baseline)."""

    secret_period: float = NETFENCE_SECRET_PERIOD
    control_interval: float = 1.0
    init_rate_bps: float = 2e6
    min_rate_bps: float = 20e3
    max_rate_bps: float = 10e6
    alpha_bps: float = 200e3
    beta: float = 0.5
    feedback_expiry: float = FEEDBACK_EXPIRY
    grace: float = 1.0
    release_intervals: int = 4
    mark_threshold_fraction: float = 0.25

    def __post_init__(self) -> None:
        self._require("mark_threshold_fraction",
                      0 < self.mark_threshold_fraction <= 1,
                      "0 < mark_threshold_fraction <= 1")
        self._require("beta", 0 < self.beta < 1, "0 < beta < 1")

    def build(self, *, seed: int = 42,
              destination_policy: Optional[Callable] = None) -> NetFenceScheme:
        return NetFenceScheme(
            secret_period=self.secret_period,
            control_interval=self.control_interval,
            init_rate_bps=self.init_rate_bps,
            min_rate_bps=self.min_rate_bps,
            max_rate_bps=self.max_rate_bps,
            alpha_bps=self.alpha_bps,
            beta=self.beta,
            feedback_expiry=self.feedback_expiry,
            grace=self.grace,
            release_intervals=self.release_intervals,
            mark_threshold_fraction=self.mark_threshold_fraction,
            destination_policy=destination_policy,
            seed=seed,
        )


def scheme_names() -> Tuple[str, ...]:
    return tuple(SCHEMES)


def knobs_for(name: str, options: Optional[Dict[str, Any]] = None) -> SchemeKnobs:
    """Knob instance for ``name`` with ``options`` applied over defaults.

    Unknown option keys raise ``TypeError`` naming the scheme, so a
    typo'd knob fails loudly instead of silently building a default."""
    cls = SCHEMES.get(name)
    if cls is None:
        raise ValueError(f"unknown scheme {name!r}; choose from {scheme_names()}")
    try:
        return cls(**(options or {}))
    except TypeError as exc:
        raise TypeError(f"scheme {name!r}: {exc}") from None


def build_scheme(
    name: str,
    options: Optional[Dict[str, Any]] = None,
    *,
    seed: int = 42,
    destination_policy: Optional[Callable] = None,
) -> SchemeFactory:
    """Instantiate a registered scheme: ``options`` over its knob defaults.

    Unknown names and unknown knobs fail as in :func:`knobs_for`."""
    return knobs_for(name, options).build(
        seed=seed, destination_policy=destination_policy
    )
