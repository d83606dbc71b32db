"""Experiment harness for the simulation figures (Section 5).

Each ``run_fig*`` function regenerates one figure of the paper's
evaluation on the Figure 7 dumbbell.  The measured quantities are exactly
the paper's: the fraction of transfers that complete and the average time
of the transfers that complete, as the number of attackers sweeps from 1
to 100 (Figures 8-10); and the per-transfer time series around an attack
(Figure 11).

Scale note: the paper runs 1000 transfers per user per point.  A pure
Python simulator cannot afford that for every sweep point, so the
measurement window defaults to a shorter ``duration`` (tens of transfers
per user); the *shape* of every curve is preserved.  Pass a larger
``duration`` for tighter confidence.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.params import (
    REQUEST_FRACTION_SIM,
    SERVER_GRANT_BYTES,
    SERVER_GRANT_SECONDS,
)
from ..faults import FaultInjector, coerce_schedule
from ..schemes import build_scheme, scheme_names
from ..sim import (
    Simulator,
    TopologySpec,
    TransferLog,
    dumbbell_spec,
    instantiate,
)
from ..sim.node import AggregateHost
from ..transport import (
    AggregateSender,
    CbrFlood,
    PacketSink,
    RepeatingTransferClient,
    TcpListener,
)
from ..transport.tcp import TcpStats

#: Evaluated schemes, derived from the :mod:`repro.schemes` registry.
SCHEMES = scheme_names()

#: Flood classes ``run_flood_scenario`` (and a spec's ``attack``) accepts.
ATTACKS = ("legacy", "request", "colluder", "authorized")

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
    """Raise ``ValueError`` naming the first removed field ``data`` carries."""
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
        self.server_grant = tuple(self.server_grant)

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        reject_removed_keys(data, "config")
        return cls(**data)


@dataclass
class FloodResult:
    """One point of a Figure 8/9/10 curve."""

    scheme: str
    attack: str
    n_attackers: int
    fraction_completed: float
    avg_transfer_time: Optional[float]
    transfers_attempted: int

    def row(self) -> str:
        avg = "-" if self.avg_transfer_time is None else f"{self.avg_transfer_time:7.2f}"
        return (
            f"{self.scheme:9s} {self.n_attackers:4d}  "
            f"{self.fraction_completed:6.2f}  {avg}"
        )

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "FloodResult":
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


def _scheme_for(
    name: str,
    config: ExperimentConfig,
    scheme_options: Optional[Dict] = None,
    destination_policy: Optional[Callable] = None,
):
    """Build ``name`` from :func:`merged_scheme_options`, seeded by the config."""
    return build_scheme(
        name,
        merged_scheme_options(name, config, scheme_options),
        seed=config.seed,
        destination_policy=destination_policy,
    )


# ---------------------------------------------------------------------------
# Core scenario runner
# ---------------------------------------------------------------------------

def run_flood_scenario(
    scheme_name: str,
    attack: str,
    n_attackers: int,
    config: Optional[ExperimentConfig] = None,
    destination_policy: Optional[Callable] = None,
    attack_start: float = 0.0,
    attack_groups: int = 1,
    group_stagger: float = 0.0,
    scheme_options: Optional[Dict] = None,
    observer=None,
    faults=None,
    topology: Optional[TopologySpec] = None,
    aggregate: bool = False,
) -> TransferLog:
    """Run one flood scenario and return the users' transfer log.

    By default the network is the Figure 7 dumbbell with ``n_attackers``
    flood sources.  Pass ``topology`` (a
    :class:`~repro.sim.topospec.TopologySpec`) to run the same workload
    on any declarative graph — the attacker/user/destination/colluder
    populations then come from the spec's node roles and ``n_attackers``
    is ignored.  ``aggregate=True`` collapses attacker groups into
    :class:`~repro.sim.node.AggregateHost` nodes driven by one
    :class:`~repro.transport.AggregateSender` each, with per-member
    start times and RNG streams drawn in exactly the order the expanded
    build would draw them (so small-k aggregated runs are bit-identical
    to expanded ones).

    ``observer`` is an optional
    :class:`~repro.obs.instrument.Observation`; when given it is
    installed on the built network before the simulation starts and
    records deterministic metric series alongside the transfer log.

    ``faults`` is an optional :class:`~repro.faults.FaultSchedule` (or
    anything :func:`~repro.faults.coerce_schedule` accepts — event lists,
    CLI spec strings); its events are booked on the same calendar as the
    traffic, so fault-bearing runs stay bit-identical across seeds and
    worker counts.

    ``attack`` selects the flood class:

    * ``"legacy"`` — plain packet floods at the destination (Figure 8);
    * ``"request"`` — request packet floods at the destination (Figure 9),
      with the destination refusing attacker requests as the paper assumes;
    * ``"colluder"`` — authorized floods at the colluder (Figure 10);
    * ``"authorized"`` — floods at the destination through the capability
      layer, for the imprecise-policy experiment (Figure 11).
    """
    config = config or ExperimentConfig()
    sim = Simulator()
    scheme = _scheme_for(scheme_name, config, scheme_options, destination_policy)
    if topology is None:
        topology = dumbbell_spec(
            n_users=config.n_users,
            n_attackers=n_attackers,
            bottleneck_bps=config.bottleneck_bps,
            with_colluder=True,
        )
    net = instantiate(topology, sim, scheme, aggregate=aggregate)
    log = TransferLog()
    TcpListener(sim, net.destination, 80)
    # Flood targets run an open datagram service; authorized-flood
    # experiments need the attack traffic to be deliverable.
    PacketSink(net.destination, "cbr")
    if net.colluder is not None:
        PacketSink(net.colluder, "cbr")
    tcp_stats = TcpStats()
    rng = random.Random(config.seed)
    for i, user in enumerate(net.users):
        RepeatingTransferClient(
            sim,
            user,
            net.destination.address,
            80,
            nbytes=config.transfer_bytes,
            log=log,
            start_at=rng.uniform(0.0, 0.3),
            stop_at=config.duration,
            tcp_stats=tcp_stats,
        )

    if attack == "colluder":
        if net.colluder is None:
            raise ValueError(
                "colluder attack needs a colluder host in the topology"
            )
        target = net.colluder.address
        mode = "shim"
    elif attack == "request":
        target = net.destination.address
        mode = "request"
    elif attack == "authorized":
        target = net.destination.address
        mode = "shim"
    elif attack == "legacy":
        target = net.destination.address
        mode = "legacy"
    else:
        raise ValueError(f"unknown attack {attack!r}; choose from {ATTACKS}")

    # Attacker units are plain hosts and/or aggregated groups; ``idx``
    # counts individual senders across both so start-time RNG draws and
    # per-sender RNG seeds are identical however the units are packaged.
    units = net.attacker_units or net.attackers
    k_total = sum(getattr(unit, "count", 1) for unit in units)
    group_size = max(1, k_total // max(1, attack_groups))
    idx = 0
    for unit in units:
        if isinstance(unit, AggregateHost):
            starts = [
                attack_start
                + ((idx + j) // group_size) * group_stagger
                + rng.uniform(0, 0.01)
                for j in range(unit.count)
            ]
            AggregateSender(
                sim,
                unit,
                target,
                rate_bps=config.attack_rate_bps,
                pkt_size=config.attack_pkt_size,
                mode=mode,
                starts=starts,
                jitter=0.3,
                rngs=[
                    random.Random(config.seed * 1000 + idx + j)
                    for j in range(unit.count)
                ],
            )
            idx += unit.count
        else:
            start = attack_start + (idx // group_size) * group_stagger
            CbrFlood(
                sim,
                unit,
                target,
                rate_bps=config.attack_rate_bps,
                pkt_size=config.attack_pkt_size,
                mode=mode,
                start_at=start + rng.uniform(0, 0.01),
                jitter=0.3,
                rng=random.Random(config.seed * 1000 + idx),
            )
            idx += 1
    schedule = coerce_schedule(faults)
    injector = None
    if schedule:
        injector = FaultInjector(schedule)
        injector.install(sim, net, scheme)
    if observer is not None:
        observer.install(sim, net, scheme, tcp_stats, injector=injector)
    sim.run(until=config.duration)
    return log


# ---------------------------------------------------------------------------
# Figure runners
# ---------------------------------------------------------------------------

def _run_flood_figure(
    attack: str,
    schemes: Sequence[str],
    sweep: Sequence[int],
    config: Optional[ExperimentConfig],
    runner=None,
) -> List[FloodResult]:
    """Shared body of the Figure 8/9/10 runners: build specs, run them.

    ``runner`` is an optional :class:`~repro.eval.runner.SweepRunner`;
    the default is the deterministic in-process path with no cache, so
    library callers and tests see exactly the historical behaviour.
    Pass ``SweepRunner(jobs=N, cache=...)`` to parallelize.
    """
    from .runner import SweepRunner, build_flood_specs

    config = config or ExperimentConfig()
    specs = build_flood_specs(attack, schemes, sweep, config)
    runner = runner or SweepRunner(jobs=1)
    return [run.to_flood_result() for run in runner.run(specs)]


def run_fig8_legacy_flood(
    schemes: Sequence[str] = SCHEMES,
    sweep: Sequence[int] = DEFAULT_SWEEP,
    config: Optional[ExperimentConfig] = None,
    runner=None,
) -> List[FloodResult]:
    """Figure 8: attackers flood the destination with legacy traffic."""
    return _run_flood_figure("legacy", schemes, sweep, config, runner)


def run_fig9_request_flood(
    schemes: Sequence[str] = SCHEMES,
    sweep: Sequence[int] = DEFAULT_SWEEP,
    config: Optional[ExperimentConfig] = None,
    runner=None,
) -> List[FloodResult]:
    """Figure 9: attackers flood the destination with request packets.

    The paper assumes "the destination was able to distinguish requests
    from legitimate users and those from attackers", so the TVA/SIFF
    destination refuses attacker addresses outright (the specs carry the
    ``"filtering"`` policy; the attacker addresses in the dumbbell
    builder start right after the users').
    """
    return _run_flood_figure("request", schemes, sweep, config, runner)


def run_fig10_colluder_flood(
    schemes: Sequence[str] = SCHEMES,
    sweep: Sequence[int] = DEFAULT_SWEEP,
    config: Optional[ExperimentConfig] = None,
    runner=None,
) -> List[FloodResult]:
    """Figure 10: a colluder authorizes attacker floods across the
    bottleneck; TVA's per-destination fair queuing shares the link between
    the colluder and the destination."""
    return _run_flood_figure("colluder", schemes, sweep, config, runner)


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
    return Fig11Result(
        scheme=scheme_name,
        pattern=pattern,
        series=[tuple(point) for point in run.time_series],
        attack_start=attack_start,
        metrics=run.metrics,
    )


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

def format_flood_table(results: List[FloodResult], title: str) -> str:
    lines = [title, f"{'scheme':9s} {'k':>4s}  {'frac':>6s}  {'avg(s)':>7s}"]
    lines.extend(r.row() for r in results)
    return "\n".join(lines)
