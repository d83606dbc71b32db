"""Result types for the sweep runner.

Three layers, mirroring how the paper's evaluation is assembled:

* :class:`RunResult` — the measured outcome of **one** simulation run
  (one :class:`~repro.eval.runner.ScenarioSpec`): the paper's two
  metrics plus the per-transfer time series Figure 11 needs.
* :class:`PointResult` — one sweep point (scheme × attack × attacker
  count), aggregated across seed replications with mean, sample
  standard deviation, and a 95% confidence interval.
* :class:`SweepResult` — a whole figure sweep: an ordered list of
  points plus run metadata, serializable to/from JSON so cached or
  archived sweeps reload losslessly.

These three round-trip through ``to_dict``/``from_dict`` and JSON:
tuples are restored as tuples, so a reloaded result compares equal to
the original — the property the on-disk cache relies on — and a
payload of the wrong shape is a ``ValueError`` the cache reads as a
miss.  :class:`ShardReport` (what one ``repro sweep`` invocation did)
is execution facts only and is never serialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # runner imports this module
    from .runner import SpecFailure

#: Two-sided Student-t critical values at 95% confidence, indexed by
#: degrees of freedom.  Seed replication counts are small, so the normal
#: 1.96 would understate the interval badly (n=2 needs 12.7).
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 15: 2.131, 20: 2.086,
    25: 2.060, 30: 2.042,
}


def t95(dof: int) -> float:
    """Two-sided 95% Student-t critical value (normal limit above 30 dof)."""
    if dof <= 0:
        return 0.0
    if dof in _T95:
        return _T95[dof]
    for known in sorted(_T95, reverse=True):
        if dof > known:
            return _T95[known] if dof <= 30 else 1.960
    return _T95[1]


def _pairs(points, what: str) -> Tuple[Tuple[float, float], ...]:
    """``points`` as a tuple of ``(number, number)`` tuples.

    A payload of any other shape is a ``ValueError`` naming ``what``, so a
    damaged cache entry reads as a miss instead of a wrong series.
    """
    if isinstance(points, (list, tuple)) and all(
        isinstance(p, (list, tuple)) and len(p) == 2
        and all(isinstance(v, (int, float)) for v in p)
        for p in points
    ):
        return tuple(tuple(p) for p in points)
    raise ValueError(f"{what} must be a list of (number, number) pairs")


def normalize_metrics(metrics: Optional[Dict]) -> Optional[Dict]:
    """Canonicalize a metrics export for value equality.

    JSON turns the series' tuples into lists; restoring tuples here makes
    a cache-reloaded :class:`RunResult` compare equal to a fresh one —
    the same convention ``time_series`` follows.  Anything but ``None``
    or a dict with dict ``finals``/``series`` of number pairs is a
    ``ValueError``.
    """
    if metrics is None:
        return None
    finals = metrics.get("finals", {}) if isinstance(metrics, dict) else None
    series = metrics.get("series", {}) if isinstance(metrics, dict) else None
    if not (isinstance(finals, dict) and isinstance(series, dict)):
        raise ValueError("metrics must be null or a dict with dict "
                         "finals/series")
    return {
        "interval": metrics.get("interval"),
        "finals": dict(finals),
        "series": {
            name: _pairs(points, f"metrics series {name!r}")
            for name, points in sorted(series.items())
        },
    }


def summarize_metrics(metrics: Dict) -> Dict:
    """The headline numbers of one run's observability export.

    * ``util_peak`` — ``(class, peak per-interval bottleneck
      utilization)`` for Figure 2's output classes, in its order
      (request, regular, legacy);
    * ``flowstate_peak`` — peak flow-state occupancy at any router (the
      Section 3.6 bound);
    * ``demotions`` — capability demotions summed over all routers.

    The last two are ``None`` when the scheme's routers keep no such
    tally (only TVA's do).  The text summaries (:func:`metrics_lines`),
    the report's Metrics table and the dynamics comparison all read
    these from here.
    """
    finals, series = metrics["finals"], metrics["series"]

    def per_router(table: Dict, suffix: str) -> List:
        return [value for name, value in sorted(table.items())
                if name.startswith("scheme.router.") and name.endswith(suffix)]

    def peak(points) -> float:
        return max((value for _, value in points), default=0.0)

    occupancy = per_router(series, ".flowstate.entries")
    demotions = per_router(finals, ".demotions")
    return {
        "util_peak": [
            (cls, peak(series.get(f"link.bottleneck.util.{cls}", ())))
            for cls in ("request", "regular", "legacy")
        ],
        "flowstate_peak": max(map(peak, occupancy)) if occupancy else None,
        "demotions": sum(demotions) if demotions else None,
    }


def metrics_lines(metrics: Dict) -> List[str]:
    """Human summary of one run's observability export, one line each."""
    finals = metrics["finals"]
    summary = summarize_metrics(metrics)
    lines = [f"  bottleneck util[{cls:7s}] peak : {peak:.3f}"
             for cls, peak in summary["util_peak"]]
    drops = finals.get("link.bottleneck.qdisc.drops")
    if drops is not None:
        lines.append(f"  bottleneck qdisc drops      : {drops}")
    if summary["flowstate_peak"] is not None:
        lines.append(f"  demotions (all routers)     : "
                     f"{summary['demotions'] or 0}")
        lines.append(f"  peak flow-state occupancy   : "
                     f"{summary['flowstate_peak']:.0f}")
    retrans = finals.get("transport.data_retransmits")
    aborts = finals.get("transport.aborts")
    if retrans is not None:
        lines.append(f"  tcp retransmits / aborts    : {retrans} / {aborts}")
    applied = finals.get("faults.applied")
    if applied:
        lines.append(f"  faults applied              : {applied} "
                     f"(reboots {finals.get('faults.reboots', 0)}, "
                     f"link downs {finals.get('faults.link_downs', 0)}, "
                     f"route changes {finals.get('faults.route_changes', 0)})")
        lines.append(f"  packets lost to faults      : "
                     f"{finals.get('faults.drained_packets', 0)} drained + "
                     f"{finals.get('link.bottleneck.fault_drops', 0)} at "
                     f"the down bottleneck")
        rereq = finals.get("hosts.requests_sent", 0)
        explorers = finals.get("hosts.explorers_sent", 0)
        lines.append(f"  re-requests / explorers     : {rereq} / {explorers}")
    return lines


def _mean_stdev_ci(values: Sequence[float]) -> Tuple[float, float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    stdev = math.sqrt(var)
    return mean, stdev, t95(n - 1) * stdev / math.sqrt(n)


@dataclass(frozen=True)
class RunResult:
    """Everything one simulation run measured, summarized.

    ``time_series`` is the sorted ``(start, duration)`` tuple per
    completed transfer — the :class:`~repro.sim.TransferLog` summary the
    determinism tests compare bit-for-bit.
    """

    scheme: str
    attack: str
    n_attackers: int
    seed: int
    fraction_completed: float
    avg_transfer_time: Optional[float]
    transfers_attempted: int
    transfers_completed: int
    time_series: Tuple[Tuple[float, float], ...] = ()
    spec_key: str = ""
    #: Optional observability export (``repro.obs``): ``{"interval",
    #: "finals", "series"}`` as produced by ``Observation.export()``.
    #: ``None`` when the run was not instrumented.
    metrics: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        """Inverse of :meth:`to_dict`; a ``time_series`` or ``metrics`` of
        the wrong shape is a ``ValueError``."""
        data = dict(data)
        data["time_series"] = _pairs(data.get("time_series", ()),
                                     "time_series")
        data["metrics"] = normalize_metrics(data.get("metrics"))
        return cls(**data)


@dataclass(frozen=True)
class PointResult:
    """One sweep point aggregated over its seed replications."""

    scheme: str
    attack: str
    n_attackers: int
    n_seeds: int
    fraction_mean: float
    fraction_stdev: float
    fraction_ci95: float
    time_mean: Optional[float]
    time_stdev: float
    time_ci95: float
    runs: Tuple[RunResult, ...] = ()

    @classmethod
    def from_runs(cls, runs: Sequence[RunResult]) -> "PointResult":
        if not runs:
            raise ValueError("a sweep point needs at least one run")
        first = runs[0]
        fractions = [r.fraction_completed for r in runs]
        f_mean, f_stdev, f_ci = _mean_stdev_ci(fractions)
        times = [r.avg_transfer_time for r in runs
                 if r.avg_transfer_time is not None]
        if times:
            t_mean, t_stdev, t_ci = _mean_stdev_ci(times)
        else:
            t_mean, t_stdev, t_ci = None, 0.0, 0.0
        return cls(
            scheme=first.scheme,
            attack=first.attack,
            n_attackers=first.n_attackers,
            n_seeds=len(runs),
            fraction_mean=f_mean,
            fraction_stdev=f_stdev,
            fraction_ci95=f_ci,
            time_mean=t_mean,
            time_stdev=t_stdev,
            time_ci95=t_ci,
            runs=tuple(runs),
        )

    def row(self) -> str:
        if self.time_mean is None:
            avg = "     -  "
        else:
            avg = f"{self.time_mean:7.2f} "
        line = (f"{self.scheme:9s} {self.n_attackers:4d}  "
                f"{self.fraction_mean:6.2f}  {avg}")
        if self.n_seeds > 1:
            line += (f" ±{self.fraction_ci95:5.2f}/±{self.time_ci95:5.2f}"
                     f" (n={self.n_seeds})")
        return line

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "PointResult":
        data = dict(data)
        data["runs"] = tuple(
            RunResult.from_dict(run) for run in data.get("runs", ())
        )
        return cls(**data)


@dataclass
class ShardReport:
    """What one sharded sweep invocation did (see ``repro.eval.service``).

    Unlike :class:`SweepResult`, this records *execution* facts — how a
    shard's slice of the grid was covered this invocation — so it is
    deliberately not part of any bit-identical payload: merged sweep
    JSON comes from :meth:`SweepResult.to_json` alone.
    """

    shard: int = 0
    of: int = 1
    total: int = 0        #: specs in the full (seed-expanded) grid
    assigned: int = 0     #: specs in this shard's deterministic slice
    completed: int = 0    #: specs simulated by this invocation
    cached: int = 0       #: specs served from the shared cache (resume skips)
    failures: List[SpecFailure] = field(default_factory=list)
    results: List[Optional[RunResult]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"shard {self.shard}/{self.of}: {self.assigned} of "
            f"{self.total} spec(s) assigned — "
            f"{self.completed} run, {self.cached} from cache, "
            f"{len(self.failures)} failed",
        ]
        for failure in self.failures:
            lines.append(f"  FAILED {failure.label()} after "
                         f"{failure.attempts} attempt(s): {failure.error}")
        return "\n".join(lines)


@dataclass
class SweepResult:
    """A whole figure sweep: ordered points plus how they were produced."""

    title: str = ""
    points: List[PointResult] = field(default_factory=list)
    meta: Dict = field(default_factory=dict)

    def table(self) -> str:
        header = f"{'scheme':9s} {'k':>4s}  {'frac':>6s}  {'avg(s)':>7s}"
        if any(p.n_seeds > 1 for p in self.points):
            header += "  ±95% CI (frac/avg)"
        lines = [self.title, header] if self.title else [header]
        lines.extend(p.row() for p in self.points)
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "title": self.title,
            "points": [p.to_dict() for p in self.points],
            "meta": dict(self.meta),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepResult":
        return cls(
            title=data.get("title", ""),
            points=[PointResult.from_dict(p) for p in data.get("points", [])],
            meta=dict(data.get("meta", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_dict(json.loads(text))
