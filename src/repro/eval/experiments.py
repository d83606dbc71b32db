"""The Section 5 experiment parameters and the Figure 11 result record.

Every simulation in the evaluation is one grid point — scheme × attack ×
attackers × seed — described by a
:class:`~repro.eval.runner.ScenarioSpec` and executed by
:func:`~repro.eval.runner.run_spec`, the only function that builds and
runs a scenario.  This module holds what a spec is made of:
:class:`ExperimentConfig` (the Figure 7 dumbbell's knobs),
:data:`ATTACK_PLANS` (what each flood class targets and how it sends) and
:func:`merged_scheme_options` (the config's knobs under a spec's
overrides) — plus :class:`Fig11Result`, the per-transfer time series
around an attack that Figure 11 plots.  Figures 8–10 are plain sweeps:
:func:`~repro.eval.runner.build_flood_specs` +
:class:`~repro.eval.runner.SweepRunner`.

Scale note: the paper runs 1000 transfers per user per point.  A pure
Python simulator cannot afford that for every sweep point, so the
measurement window defaults to a shorter ``duration`` (tens of transfers
per user); the *shape* of every curve is preserved.  Pass a larger
``duration`` for tighter confidence.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..core.params import (
    REQUEST_FRACTION_SIM,
    SERVER_GRANT_BYTES,
    SERVER_GRANT_SECONDS,
)
from ..schemes import GRANT_NEEDS, as_grant, is_grant, scheme_names

#: Evaluated schemes, derived from the :mod:`repro.schemes` registry.
SCHEMES = scheme_names()

#: Flood class -> (the ``Network`` attribute naming the flooded host, the
#: sender mode):
#:
#: * ``"legacy"`` — plain packet floods at the destination (Figure 8);
#: * ``"request"`` — request packet floods at the destination (Figure 9),
#:   with the destination refusing attacker requests as the paper assumes;
#: * ``"colluder"`` — authorized floods at the colluder (Figure 10);
#: * ``"authorized"`` — floods at the destination through the capability
#:   layer, for the imprecise-policy experiment (Figure 11).
ATTACK_PLANS = {
    "legacy": ("destination", "legacy"),
    "request": ("destination", "request"),
    "colluder": ("colluder", "shim"),
    "authorized": ("destination", "shim"),
}

#: Flood classes a spec's ``attack`` accepts.
ATTACKS = tuple(ATTACK_PLANS)

#: Attacker counts used by default for the Figure 8-10 sweeps (the paper
#: sweeps 1..100 on a log axis).
DEFAULT_SWEEP = (1, 2, 4, 10, 20, 40, 100)


#: Fields that stored configs/specs of older versions may carry, with
#: what to do about each; ``from_dict`` names them rather than let
#: ``cls(**data)`` raise a bare TypeError.
REMOVED_KEYS = {
    "engine": (
        "there is one event loop now; delete the key — results are "
        "identical without it"
    ),
    "siff_secret_period": 'set scheme_options={"secret_period": …} instead',
    "siff_accept_previous": 'set scheme_options={"accept_previous": …} instead',
    "siff_mark_bits": 'set scheme_options={"mark_bits": …} instead',
}


def reject_removed_keys(data: Dict, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``data`` is a mapping,
    or naming the first removed field it carries."""
    if not isinstance(data, Mapping):
        raise ValueError(f"stored {what} must be a mapping, got {type(data).__name__}")
    stale = sorted(REMOVED_KEYS.keys() & data.keys())
    if stale:
        key = stale[0]
        raise ValueError(
            f"stored {what} carries the removed field {key!r} "
            f"({data[key]!r}): {REMOVED_KEYS[key]}"
        )


@dataclass
class ExperimentConfig:
    """Knobs shared by the flood experiments; defaults follow Section 5.

    Round-trips losslessly through ``to_dict``/``from_dict`` (and hence
    JSON): ``server_grant`` is normalized back to a tuple on load, so a
    reloaded config compares equal to the original — the cache and the
    sweep runner rely on that.
    """

    n_users: int = 10
    transfer_bytes: int = 20_000
    bottleneck_bps: float = 10e6
    attack_rate_bps: float = 1e6
    attack_pkt_size: int = 1000
    duration: float = 15.0
    seed: int = 1
    request_fraction: float = REQUEST_FRACTION_SIM  # 1%: "to stress our design"
    server_grant: tuple = (SERVER_GRANT_BYTES, SERVER_GRANT_SECONDS)
    #: Fair queuing for TVA's regular class: "drr" (the paper's design) or
    #: "sfq" (the Section 3.9 hashed-bucket alternative).
    regular_qdisc: str = "drr"

    def __post_init__(self) -> None:
        # JSON turns tuples into lists; normalize so equality survives.
        self.server_grant = as_grant(self.server_grant)
        if not is_grant(self.server_grant):
            raise ValueError(
                f"config.server_grant={self.server_grant!r} out of range, "
                f"need {GRANT_NEEDS}"
            )

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        reject_removed_keys(data, "config")
        return cls(**data)


def merged_scheme_options(
    name: str,
    config: ExperimentConfig,
    scheme_options: Optional[Dict] = None,
) -> Dict:
    """``scheme_options`` laid over the knobs ``config`` carries for ``name``.

    The config holds the paper's experiment parameters (grant size,
    request-channel fraction, regular-class qdisc); they are the knob
    defaults, and a per-spec option of the same name overrides them.
    ``ScenarioSpec`` validates exactly this dict at construction, so a
    bad value fails the same way whichever of the two routes carried it.
    """
    options: Dict = {}
    if name == "tva":
        options.update(
            server_grant=config.server_grant,
            request_fraction=config.request_fraction,
            regular_qdisc=config.regular_qdisc,
        )
    elif name == "siff":
        options.update(server_grant=config.server_grant)
    options.update(scheme_options or {})
    return options


@dataclass
class Fig11Result:
    """Per-transfer time series for the imprecise-policy experiment."""

    scheme: str
    pattern: str
    series: List[tuple] = field(default_factory=list)  # (start, duration)
    attack_start: float = 10.0
    #: Observability export of the underlying run (``None`` unless the
    #: scenario was run with metrics enabled).
    metrics: Optional[Dict] = None

    @classmethod
    def from_run(cls, spec, run) -> "Fig11Result":
        """The Figure 11 view of ``run``, the result of a
        :func:`~repro.eval.runner.build_fig11_spec` ``spec``."""
        return cls(
            scheme=spec.scheme,
            pattern="staggered" if spec.attack_groups > 1 else "all_at_once",
            series=[tuple(point) for point in run.time_series],
            attack_start=spec.attack_start,
            metrics=run.metrics,
        )

    def max_transfer_time(self) -> float:
        return max((d for _, d in self.series), default=0.0)

    def disruption_end(self, baseline: float = 1.0) -> float:
        """Time of the last attack-affected transfer.

        A transfer is affected when it ran slower than ``baseline``
        seconds, or fell in a completion gap (total blocking shows up as
        absence of completions, not slow ones)."""
        slow = [
            start + d
            for start, d in self.series
            if d > baseline and start + d > self.attack_start
        ]
        return max(slow, default=self.attack_start)

    def effective_attack_seconds(self, baseline: float = 1.0) -> float:
        """How long the attack visibly degraded service — the paper's
        "attacks are effective for less than 5 seconds" measure."""
        return max(0.0, self.disruption_end(baseline) - self.attack_start)

    def completion_gaps(self, min_gap: float = 1.0) -> List[tuple]:
        """Intervals longer than ``min_gap`` with no completed transfers —
        the signature of total request blocking (SIFF under attack)."""
        completions = sorted(start + d for start, d in self.series)
        gaps = []
        for a, b in zip(completions, completions[1:]):
            if b - a > min_gap:
                gaps.append((a, b))
        return gaps


def run_fig11_imprecise(
    scheme_name: str,
    pattern: str = "all_at_once",
    n_attackers: int = 100,
    attack_start: float = 10.0,
    duration: float = 60.0,
    config: Optional[ExperimentConfig] = None,
    runner=None,
    metrics: bool = False,
    metrics_interval: float = 0.5,
) -> Fig11Result:
    """Figure 11: the destination initially grants everyone 32 KB / 10 s,
    then never renews the attackers.  ``pattern`` is ``all_at_once`` (all
    100 attackers flood simultaneously) or ``staggered`` (10 groups of 10
    "that flood one after the other, as one group finishes their attack").

    A group's attack *finishes* when its authorization dies, and that is
    exactly the comparison the figure makes: under TVA the 32 KB byte
    budget burns out after ~0.3 s of 1 Mb/s flooding, so ten staggered
    groups are all spent within a few seconds; under SIFF (3-second secret
    turnover, no previous-secret grace, as the paper assumes) a group's
    marks stay lethal until the next rotation, so ten groups sustain the
    attack for ~30 s.

    The caller's ``config`` is never mutated: the ``duration`` override
    is applied with :func:`dataclasses.replace` on a copy.
    """
    from .runner import SweepRunner, build_fig11_spec

    spec = build_fig11_spec(
        scheme_name,
        pattern,
        n_attackers=n_attackers,
        attack_start=attack_start,
        duration=duration,
        config=config,
        metrics=metrics,
        metrics_interval=metrics_interval,
    )
    runner = runner or SweepRunner(jobs=1)
    (run,) = runner.run([spec])
    return Fig11Result.from_run(spec, run)
