"""The Section 5 experiment parameters and the Figure 11 result record.

Every simulation in the evaluation is one grid point — scheme × attack ×
attackers × seed — described by a
:class:`~repro.eval.runner.ScenarioSpec` and executed by
:func:`~repro.eval.runner.run_spec`, the only function that builds and
runs a scenario.  This module holds what a spec is made of:
:class:`ExperimentConfig` (the workload and the Figure 7 dumbbell's
size) and :data:`ATTACK_PLANS` (what each flood class targets and how it
sends) — plus :class:`Fig11Result`, the per-transfer time series around
an attack that Figure 11 plots.  A scheme's knobs are not experiment
parameters: each has one route into a run, the spec's
``scheme_options``, and one default, in the scheme's ``*Knobs``
dataclass.  What each figure runs, and its
defaults, is an entry of :data:`repro.scenarios.FIGURES`.

Scale note: the paper runs 1000 transfers per user per point.  A pure
Python simulator cannot afford that for every sweep point, so the
measurement window defaults to a shorter ``duration`` (tens of transfers
per user); the *shape* of every curve is preserved.  Pass a larger
``duration`` for tighter confidence.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..schemes import scheme_names

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
    "server_grant": 'set scheme_options={"server_grant": …} instead',
    "request_fraction": 'set scheme_options={"request_fraction": …} instead',
    "regular_qdisc": 'set scheme_options={"regular_qdisc": …} instead',
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
    """The workload and dumbbell knobs of the flood experiments; defaults
    follow Section 5.

    Round-trips losslessly through ``to_dict``/``from_dict`` (and hence
    JSON), so a reloaded config compares equal to the original — the
    cache and the sweep runner rely on that.
    """

    n_users: int = 10
    transfer_bytes: int = 20_000
    bottleneck_bps: float = 10e6
    attack_rate_bps: float = 1e6
    attack_pkt_size: int = 1000
    duration: float = 15.0
    #: Always equal to the owning spec's ``seed``: ``ScenarioSpec`` sets
    #: it on construction, and nothing reads it.  It is still accepted
    #: because the e2e benchmark's workloads construct
    #: ``ExperimentConfig(duration=…, seed=…)``.
    seed: int = 1

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        reject_removed_keys(data, "config")
        return cls(**data)


@dataclass
class Fig11Result:
    """Per-transfer time series for the imprecise-policy experiment."""

    scheme: str
    pattern: str
    attack_start: float
    series: List[tuple] = field(default_factory=list)  # (start, duration)
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

    def to_json(self) -> str:
        """The ``repro fig11 --json`` payload."""
        payload = dict(
            scheme=self.scheme, pattern=self.pattern,
            attack_start=self.attack_start,
            max_transfer_time=self.max_transfer_time(),
            disruption_end=self.disruption_end(),
            effective_attack_seconds=self.effective_attack_seconds(),
            completion_gaps=self.completion_gaps(), series=self.series)
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return json.dumps(payload, indent=2)
