"""The network-dynamics experiment: recovery after a router reboot.

Section 3.8 argues TVA degrades gracefully under network dynamics: when a
router reboots, its flow cache and (worst case) its pre-capability secret
are gone, every established sender is demoted at that hop, and demotion
echoes drive senders back through the request channel — a bounded hiccup,
not a standing outage.  SIFF's marks die the same way but its explorers
compete with legacy traffic, and the legacy Internet forwards statelessly
and does not notice the reboot at all.

``repro dynamics`` (the ``dynamics`` entry of
:data:`repro.scenarios.FIGURES`) quantifies that comparison: run each
scheme with a :class:`~repro.faults.RouterReboot` mid-experiment and
report the *recovery time* — how long after the reboot it takes the
completion rate to climb back to 90% of its pre-fault level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..faults import FaultSchedule, RouterReboot
from .experiments import ExperimentConfig
from .results import RunResult, summarize_metrics
from .runner import ScenarioSpec

#: A scheme has recovered when its completion rate reaches this fraction
#: of the pre-fault rate.
RECOVERY_FRACTION = 0.9


def build_dynamics_spec(
    scheme: str,
    reboot_at: float,
    duration: float,
    n_attackers: int,
    router: str,
    rotate_secret: bool,
    seed: int,
    metrics: bool = False,
    metrics_interval: float = 0.5,
) -> ScenarioSpec:
    """One scheme's reboot scenario as a cacheable spec: ``router``
    reboots at ``reboot_at`` while ``n_attackers`` flood the dumbbell."""
    if reboot_at >= duration:
        raise ValueError("reboot_at must fall inside the run duration")
    return ScenarioSpec(
        scheme=scheme,
        attack="legacy",
        n_attackers=n_attackers,
        seed=seed,
        config=ExperimentConfig(duration=duration, seed=seed),
        faults=FaultSchedule(
            (RouterReboot(at=reboot_at, router=router, rotate_secret=rotate_secret),)
        ),
        metrics=metrics,
        metrics_interval=metrics_interval,
    )


def recovery_time(
    run: RunResult,
    reboot_at: float,
    warmup: float = 2.0,
    bucket: float = 1.0,
) -> Optional[float]:
    """Seconds after ``reboot_at`` until the completion rate is back to
    ``RECOVERY_FRACTION`` of its pre-fault level.

    Completion times come from the run's per-transfer series (start +
    duration); rates are bucketed into ``bucket``-second bins.  Returns
    ``0.0`` when the first post-reboot bucket already meets the bar (the
    scheme never visibly degraded — the stateless-Internet control), and
    ``None`` when no bucket recovers before the run ends.
    """
    completions = sorted(start + dur for start, dur in run.time_series)
    pre = [t for t in completions if warmup <= t < reboot_at]
    pre_window = reboot_at - warmup
    if not pre or pre_window <= 0:
        return None
    pre_rate = len(pre) / pre_window
    target = RECOVERY_FRACTION * pre_rate
    t = reboot_at
    horizon = max(completions, default=reboot_at)
    while t <= horizon:
        rate = sum(1 for c in completions if t <= c < t + bucket) / bucket
        if rate >= target:
            return t - reboot_at
        t += bucket
    return None


@dataclass
class DynamicsResult:
    """The dynamics comparison across schemes, JSON-ready.

    Contains only facts about *what* was simulated — no timestamps, job
    counts, or host info — so the JSON is bit-identical across
    ``--jobs`` values and ``PYTHONHASHSEED``s.
    """

    reboot_at: float
    duration: float
    rows: List[Dict] = field(default_factory=list)

    @classmethod
    def from_runs(
        cls, reboot_at: float, duration: float, runs: Sequence[RunResult]
    ) -> "DynamicsResult":
        """One row per scheme's reboot run (see :func:`build_dynamics_spec`)."""
        rows = []
        for run in runs:
            row: Dict = {
                "scheme": run.scheme,
                "recovery_time": recovery_time(run, reboot_at),
                "fraction_completed": run.fraction_completed,
                "transfers_completed": run.transfers_completed,
            }
            if run.metrics:
                finals = run.metrics["finals"]
                row["reboots"] = finals.get("faults.reboots")
                row["demotions"] = summarize_metrics(run.metrics)["demotions"]
                row["re_requests"] = finals.get("hosts.requests_sent")
                row["explorers"] = finals.get("hosts.explorers_sent")
            rows.append(row)
        return cls(reboot_at=reboot_at, duration=duration, rows=rows)

    def table(self) -> str:
        lines = [
            f"router reboot at t={self.reboot_at:g}s (run length {self.duration:g}s)",
            f"{'scheme':9s} {'recovery(s)':>11s} {'frac':>6s} {'re-requests':>11s} {'demotions':>9s}",
        ]
        for row in self.rows:
            rec = row["recovery_time"]
            rec_s = "never" if rec is None else f"{rec:.1f}"
            rereq = row.get("re_requests")
            demo = row.get("demotions")
            lines.append(
                f"{row['scheme']:9s} {rec_s:>11s} {row['fraction_completed']:6.2f} "
                f"{'-' if rereq is None else int(rereq):>11} "
                f"{'-' if demo is None else int(demo):>9}"
            )
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {"reboot_at": self.reboot_at, "duration": self.duration, "rows": self.rows},
            indent=indent,
            sort_keys=True,
        )
