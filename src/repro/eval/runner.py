"""Declarative scenario specs and the parallel sweep runner.

The paper's evaluation (Figures 8-11) is a grid of *independent*
simulations — scheme × attack × attacker count × seed.  This module
makes that grid a first-class object:

* :class:`ScenarioSpec` — a declarative, hashable description of one
  simulation run.  Everything a run depends on is a spec field; the
  destination policy is named (``"server"``, ``"filtering"``,
  ``"oracle"``) rather than passed as a callable, so a spec pickles
  across processes and hashes to a stable cache key.
* :func:`run_spec` — the only function that builds and runs a scenario:
  it reads the spec's fields, wires network, workload, faults and
  observer, and returns a :class:`~repro.eval.results.RunResult`.  A
  new run parameter is one spec field read here.
* :class:`SweepRunner` — the one thing that turns specs into cached
  results: it consults an optional
  :class:`~repro.eval.cache.ResultCache`, runs what is missing in
  retry rounds — in-process (``jobs = 1``) or on a fresh
  ``ProcessPoolExecutor`` (``jobs > 1``) — streams every step to one
  ``on_event`` callback, and aggregates multi-seed replications into
  mean/stdev/95%-CI points.  The second progress callback (a
  ``(spec, cached)`` keyword argument) and the second retry loop are
  removed, not deprecated.

The ``build_*`` helpers turn explicit per-figure parameters into specs;
the parameters' defaults, and which helper each paper artifact uses,
live in :data:`repro.scenarios.FIGURES`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import __version__
from ..faults import FaultInjector, FaultSchedule, coerce_schedule
from ..schemes import SCHEMES, knobs_for
from ..sim import (
    LegacyDefaults,
    Simulator,
    TransferLog,
    dumbbell_spec,
    instantiate,
)
from ..sim.node import AggregateHost
from ..sim.topospec import TopologySpec
from ..transport import (
    AggregateSender,
    CbrFlood,
    PacketSink,
    RepeatingTransferClient,
    TcpListener,
)
from ..transport.agents import JitterStream
from ..transport.tcp import TcpStats
from .cache import ResultCache
from .experiments import (
    ATTACK_PLANS,
    ATTACKS,
    ExperimentConfig,
    reject_removed_keys,
)
from .results import PointResult, RunResult, SweepResult, normalize_metrics

#: Salt mixed into every cache key.  Bump the suffix whenever the
#: simulator's observable behaviour changes without a version bump, so
#: stale cached results can never satisfy a new code base.
#: v2: queue/flow-state bug batch (stable SFQ hashing, DRR slot leak,
#: expiry-heap compaction) + metrics-aware results.
#: v3: fault-injection subsystem — specs gain a ``faults`` schedule and
#: instrumented runs gain faults./hosts. metric scopes.
#: v4: D002 lint cleanup — pushback reviews links and identifies
#: aggregate contributors in canonical (sorted) order, which can shift
#: filter installation in multi-congestion topologies.
#: v5: per-packet fast path — instrumented runs gain the TVA
#: validation-cache hit/miss counters (a strict superset of the v4
#: metric names; simulation dynamics are golden-file-guarded unchanged).
#: v6: one spec form — ``canonical()`` carries every field always, and
#: SIFF's knobs ride ``scheme_options`` (dynamics unchanged; keys only).
CACHE_SALT = f"repro-runner-v6:{__version__}"

#: Destination-policy names a spec may carry (see ``_policy_factory``).
POLICIES = ("server", "filtering", "oracle")

#: What a spec with a ``topology`` must leave ``config``'s dumbbell
#: sizes at: the graph, not the config, sizes that network.
_DEFAULT_CONFIG = ExperimentConfig()


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation run, described declaratively.

    Every field reaches the run, or construction rejects it.  ``seed``
    is the run's one seed: construction copies it into ``config.seed``,
    so seed replication is ``replace(spec, seed=...)`` without touching
    the shared config.  ``policy`` selects the destination policy by
    name:

    * ``"server"`` — plain :class:`~repro.core.ServerPolicy` (Figures 8
      and 10);
    * ``"filtering"`` — the same, refusing the attacker address range
      (Figure 9's "destination can tell attacker requests apart");
    * ``"oracle"`` — grants every first request, never renews attackers
      (Figure 11's imprecise policy).

    Each grants the scheme's ``server_grant`` knob (TVA and SIFF have
    one; NetFence asks only whether a sender is authorized).
    """

    scheme: str
    attack: str
    n_attackers: int
    seed: int = 1
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    policy: str = "server"
    attack_start: float = 0.0
    attack_groups: int = 1
    group_stagger: float = 0.0
    #: Attach the ``repro.obs`` observability layer to this run and carry
    #: its export on the resulting :class:`RunResult`.  Part of the cache
    #: key: an instrumented run is a different (strict superset) result.
    metrics: bool = False
    metrics_interval: float = 0.5
    #: Scheduled network dynamics (link failures, router reboots, route
    #: changes) injected into the run.  Part of the cache key; defaults
    #: to the empty schedule, so fault-free specs behave exactly as
    #: before.  The field normalizes: event tuples, ``--fault`` spec
    #: strings, or ``None`` all coerce to a :class:`FaultSchedule`.
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    #: Declarative topology to run on instead of the default dumbbell
    #: (see :mod:`repro.sim.topospec`); ``None`` runs the Figure 7
    #: dumbbell sized by ``config`` and ``n_attackers``.  With a
    #: topology, ``n_attackers`` must count its attackers and
    #: ``config.n_users``/``bottleneck_bps`` keep their defaults.
    topology: Optional["TopologySpec"] = None
    #: Collapse attacker host groups into aggregated senders (only
    #: meaningful with ``topology``).  Part of the cache key:
    #: aggregation is bit-identical only at matching per-member
    #: schedules, so it is a distinct cache entry.
    aggregate: bool = False
    #: Scheme knob overrides, keyed by the scheme's knob-dataclass field
    #: names (see :mod:`repro.schemes`) — a knob's only route into a run;
    #: the ``--scheme-opt`` CLI flag feeds this.  Values are normalized to
    #: plain JSON on construction and validated against the registry, so
    #: a typo'd knob fails at spec-build time, not mid-sweep.
    scheme_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.attack not in ATTACKS:
            raise ValueError(
                f"unknown attack {self.attack!r}; choose from {ATTACKS}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {POLICIES}"
            )
        # Every float must be finite (a NaN or infinite time never lets a
        # run end); counts and the duration must not be negative, and
        # sizes and rates a run divides by must be positive.
        config = self.config
        for name, value, bound in (
                ("n_attackers", self.n_attackers, ">="),
                ("config.n_users", config.n_users, ">="),
                ("config.duration", config.duration, ">="),
                ("config.transfer_bytes", config.transfer_bytes, ">"),
                ("config.attack_pkt_size", config.attack_pkt_size, ">"),
                ("config.bottleneck_bps", config.bottleneck_bps, ">"),
                ("config.attack_rate_bps", config.attack_rate_bps, ">"),
                ("attack_start", self.attack_start, None),
                ("group_stagger", self.group_stagger, None),
                ("metrics_interval", self.metrics_interval, ">")):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if bound == ">=" and value < 0 or bound == ">" and value <= 0:
                raise ValueError(f"{name} must be {bound} 0, got {value!r}")
        if config.seed != self.seed:
            object.__setattr__(self, "config", replace(config, seed=self.seed))
        if not isinstance(self.faults, FaultSchedule):
            object.__setattr__(self, "faults", coerce_schedule(self.faults))
        topology = self.topology
        if topology is not None:
            if not isinstance(topology, TopologySpec):
                topology = TopologySpec.from_dict(topology)
                object.__setattr__(self, "topology", topology)
            # One network description: the graph sizes the network, so
            # a field that would size the dumbbell is rejected, not run
            # as something else.
            attackers = topology.role_count("attacker")
            if self.n_attackers != attackers:
                raise ValueError(
                    f"n_attackers={self.n_attackers}, but topology "
                    f"{topology.name!r} has {attackers} attackers"
                )
            for name in ("n_users", "bottleneck_bps"):
                value = getattr(config, name)
                if value != getattr(_DEFAULT_CONFIG, name):
                    raise ValueError(
                        f"config.{name}={value!r} sizes the dumbbell; "
                        f"topology {topology.name!r} sets its own"
                    )
        elif self.aggregate:
            raise ValueError("aggregate=True requires a topology spec")
        if self.faults:
            # The injector's own name check, on a throwaway build of the
            # network the run will use: a fault naming a router or link
            # it lacks is bad input, not a failed run.  Fault-free specs
            # build nothing here.
            net = instantiate(self.network(), Simulator(), LegacyDefaults(),
                              aggregate=self.aggregate)
            FaultInjector(self.faults).check(net)
        # Round through JSON so tuples and dict ordering can never make
        # two equivalent specs hash differently.
        object.__setattr__(
            self,
            "scheme_options",
            json.loads(json.dumps(self.scheme_options or {}, sort_keys=True)),
        )
        # Validate eagerly the knobs the worker will build: an unknown
        # scheme is a ValueError listing the choices, an unknown knob a
        # TypeError naming the scheme, an out-of-range value a ValueError.
        knobs_for(self.scheme, self.scheme_options)

    def network(self) -> TopologySpec:
        """The topology this spec runs on: ``topology``, or else the
        Figure 7 dumbbell sized by ``config`` and ``n_attackers``."""
        if self.topology is not None:
            return self.topology
        return dumbbell_spec(
            n_users=self.config.n_users,
            n_attackers=self.n_attackers,
            bottleneck_bps=self.config.bottleneck_bps,
            with_colluder=True,
        )

    def canonical(self) -> dict:
        """The spec as plain data, independent of field ordering."""
        data = asdict(self)
        # asdict() loses each event's ClassVar ``kind`` tag; use the
        # schedule's own canonical form (which keeps it).
        data["faults"] = self.faults.canonical()
        if self.topology is not None:
            data["topology"] = self.topology.canonical()
        return data

    def to_dict(self) -> dict:
        """JSON-ready form; inverse of :meth:`from_dict`."""
        return self.canonical()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (e.g. a JSON file);
        a missing ``config`` is the default one."""
        reject_removed_keys(data, "spec")
        data = dict(data)
        data["config"] = ExperimentConfig.from_dict(data.get("config", {}))
        data["faults"] = FaultSchedule.from_dict(data.get("faults"))
        return cls(**data)

    def key(self) -> str:
        """Stable content hash of the spec plus the code-version salt."""
        payload = json.dumps(
            {"salt": CACHE_SALT, "spec": self.canonical()}, sort_keys=True
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def __hash__(self) -> int:
        # Cache filenames and cross-process ordering use the sha256 key()
        # itself (see ResultCache.path_for); hash() of it never leaves
        # this process.
        # repro: allow-hash-builtin — in-process set/dict membership only
        return hash(self.key())


def _policy_factory(
    policy: str, knobs, network: TopologySpec
) -> Optional[Callable]:
    """Build the destination-policy callable named by ``policy``, granting
    the ``server_grant`` of ``knobs`` when the scheme has that knob.

    Built inside the worker process, from the spec alone — callables
    never cross the process boundary.
    """
    if policy == "server":
        return None  # the scheme's knobs build the default ServerPolicy
    from ..core import FilteringPolicy, OraclePolicy, ServerPolicy

    grant = {}
    if hasattr(knobs, "server_grant"):
        grant["default_grant"] = knobs.server_grant
    suspects = network.role_addresses("attacker")
    if policy == "filtering":
        return lambda: FilteringPolicy(ServerPolicy(**grant), set(suspects))
    return lambda: OraclePolicy(set(suspects), **grant)


def run_spec(spec: ScenarioSpec) -> RunResult:
    """Build, run and summarize the one simulation ``spec`` describes.

    Module-level so a ``ProcessPoolExecutor`` can pickle it; the only
    thing shipped to the worker is the spec itself.

    The network is the Figure 7 dumbbell with ``n_attackers`` flood
    sources unless the spec carries a ``topology`` — the
    attacker/user/destination/colluder populations then come from the
    graph's node roles (``n_attackers`` is checked against them when the
    spec is built).  ``aggregate``
    collapses attacker groups into
    :class:`~repro.sim.node.AggregateHost` nodes driven by one
    :class:`~repro.transport.AggregateSender` each, with per-member
    start times and RNG streams drawn in exactly the order the expanded
    build would draw them (so small-k aggregated runs are bit-identical
    to expanded ones).  Faults are booked on the same calendar as the
    traffic and the observer only reads, so fault-bearing and
    instrumented runs stay bit-identical across hash seeds and worker
    counts.
    """
    config, seed = spec.config, spec.seed
    knobs = knobs_for(spec.scheme, spec.scheme_options)
    network = spec.network()
    sim = Simulator()
    scheme = SCHEMES[spec.scheme](
        knobs,
        seed=seed,
        destination_policy=_policy_factory(spec.policy, knobs, network),
    )
    net = instantiate(network, sim, scheme, aggregate=spec.aggregate)
    log = TransferLog()
    TcpListener(sim, net.destination, 80)
    # Flood targets run an open datagram service; authorized-flood
    # experiments need the attack traffic to be deliverable.
    PacketSink(net.destination, "cbr")
    if net.colluder is not None:
        PacketSink(net.colluder, "cbr")
    tcp_stats = TcpStats()
    rng = random.Random(seed)
    for user in net.users:
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

    victim, mode = ATTACK_PLANS[spec.attack]
    victim_host = getattr(net, victim)
    if victim_host is None:  # a topology may declare no colluder
        raise ValueError(
            f"{spec.attack} attack needs a {victim} host in the topology"
        )
    target = victim_host.address

    # Attacker units are plain hosts and/or aggregated groups; ``idx``
    # counts individual senders across both so start-time RNG draws and
    # per-sender RNG seeds are identical however the units are packaged.
    units = net.attacker_units or net.attackers
    k_total = sum(getattr(unit, "count", 1) for unit in units)
    group_size = max(1, k_total // max(1, spec.attack_groups))
    idx = 0
    for unit in units:
        if isinstance(unit, AggregateHost):
            starts = [
                spec.attack_start
                + ((idx + j) // group_size) * spec.group_stagger
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
                    JitterStream(seed * 1000 + idx + j)
                    for j in range(unit.count)
                ],
            )
            idx += unit.count
        else:
            start = spec.attack_start + (idx // group_size) * spec.group_stagger
            CbrFlood(
                sim,
                unit,
                target,
                rate_bps=config.attack_rate_bps,
                pkt_size=config.attack_pkt_size,
                mode=mode,
                start_at=start + rng.uniform(0, 0.01),
                jitter=0.3,
                rng=JitterStream(seed * 1000 + idx),
            )
            idx += 1
    injector = None
    if spec.faults:
        injector = FaultInjector(spec.faults)
        injector.install(sim, net, scheme)
    observer = None
    if spec.metrics:
        from ..obs.instrument import Observation

        observer = Observation(interval=spec.metrics_interval)
        observer.install(sim, net, scheme, tcp_stats, injector=injector)
    sim.run(until=config.duration)

    horizon = max(0.0, config.duration - 2.0)
    metrics = normalize_metrics(observer.export()) if observer else None
    return RunResult(
        scheme=spec.scheme,
        attack=spec.attack,
        n_attackers=spec.n_attackers,
        seed=spec.seed,
        fraction_completed=log.fraction_completed(horizon),
        avg_transfer_time=log.average_completion_time(),
        transfers_attempted=log.attempted_by(horizon),
        transfers_completed=log.completed,
        time_series=tuple(tuple(point) for point in log.time_series()),
        spec_key=spec.key(),
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# Spec builders: per-figure parameters -> spec lists
# ---------------------------------------------------------------------------

def build_flood_specs(
    attack: str,
    schemes: Sequence[str],
    sweep: Sequence[int],
    config: Optional[ExperimentConfig] = None,
    seed: int = 1,
    metrics: bool = False,
    metrics_interval: float = 0.5,
) -> List[ScenarioSpec]:
    """Specs for a Figure 8/9/10-style sweep: scheme × attacker count.

    Figure 9's request floods carry the ``"filtering"`` policy, matching
    the paper's assumption that the destination refuses attacker
    requests.
    """
    config = config or ExperimentConfig()
    policy = "filtering" if attack == "request" else "server"
    return [
        ScenarioSpec(
            scheme=scheme,
            attack=attack,
            n_attackers=k,
            seed=seed,
            config=config,
            policy=policy,
            metrics=metrics,
            metrics_interval=metrics_interval,
        )
        for scheme in schemes
        for k in sweep
    ]


#: Schemes with a meaningful Figure 11 story: a per-sender authorization
#: (capability or feedback loop) the imprecise policy can decline to
#: renew.  Pushback and the legacy Internet have nothing to expire.
FIG11_SCHEMES = ("tva", "siff", "netfence")

#: Figure 11's attack patterns: every attacker at once, or ten groups
#: "that flood one after the other, as one group finishes their attack".
FIG11_PATTERNS = ("all_at_once", "staggered")


def build_fig11_spec(
    scheme: str,
    pattern: str,
    n_attackers: int,
    attack_start: float,
    duration: float,
    config: Optional[ExperimentConfig] = None,
    metrics: bool = False,
    metrics_interval: float = 0.5,
) -> ScenarioSpec:
    """The Figure 11 imprecise-policy scenario as a spec.

    The destination grants every first request 32 KB / 10 s (the
    ``server_grant`` knob of TVA and SIFF), then never renews the
    attackers, who flood from ``attack_start`` on — all at once, or
    staggered in groups, each group starting as the previous one's
    authorization dies.  That lifetime is the figure's
    comparison: TVA's 32 KB byte budget burns out after ~0.3 s of 1 Mb/s
    flooding, so ten groups are spent within a few seconds; SIFF's marks
    (3-second secret turnover, no previous-secret grace, as the paper
    assumes) stay lethal until the next rotation, so ten groups sustain
    the attack for ~30 s.  ``config`` is copied, never mutated.
    """
    from ..core.params import DEFAULT_GRANT_BYTES, DEFAULT_GRANT_SECONDS

    if pattern not in FIG11_PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    config = replace(config or ExperimentConfig(), duration=duration)
    groups = 10 if pattern == "staggered" else 1
    grant = (DEFAULT_GRANT_BYTES, DEFAULT_GRANT_SECONDS)
    options = {"server_grant": grant} if scheme in ("tva", "siff") else {}
    if scheme == "siff":
        group_lifetime = 3.0  # marks die at the next secret rotation
        # The paper's Figure 11 SIFF: 3 s secret turnover, no grace for
        # the previous secret.  Wide, idealized marks: the figure isolates
        # *expiry* behaviour, and 2-bit marks would let 1/16 of attackers
        # survive each rotation by collision (a separate SIFF weakness,
        # studied in the ablations).
        options.update(
            secret_period=group_lifetime, accept_previous=False, mark_bits=16
        )
    elif scheme == "netfence":
        from ..baselines.netfence import FEEDBACK_EXPIRY

        # The oracle policy stops echoing to attackers immediately, so a
        # group stays effective until its one echoed feedback goes stale
        # and the robustness limiter converges (~a control interval).
        group_lifetime = FEEDBACK_EXPIRY + 1.0
    else:
        # 32 KB at the attack rate, plus a little handshake latency.
        group_lifetime = grant[0] * 8 / config.attack_rate_bps + 0.1
    return ScenarioSpec(
        scheme=scheme,
        attack="authorized",
        n_attackers=n_attackers,
        config=config,
        policy="oracle",
        attack_start=attack_start,
        attack_groups=groups,
        group_stagger=group_lifetime if pattern == "staggered" else 0.0,
        scheme_options=options,
        metrics=metrics,
        metrics_interval=metrics_interval,
    )


def expand_seeds(
    specs: Sequence[ScenarioSpec], seeds: int = 1
) -> List[ScenarioSpec]:
    """Every spec under ``seeds`` consecutive seeds, replications adjacent.

    Replication ``j`` of a point uses ``spec.seed + j``, so seeds stay
    disjoint per point and ``seeds=1`` is exactly the input.  Aggregation
    (:meth:`SweepRunner.run_points`) and sharding
    (:func:`~repro.eval.service.run_shard`) both expand through here, so
    they cannot disagree on which seeds a point has.
    """
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    return [
        spec.with_seed(spec.seed + j) for spec in specs for j in range(seeds)
    ]


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEvent:
    """One step in a sweep's execution, streamed to ``on_event``.

    ``kind`` is ``"cached"`` (served from the result cache), ``"start"``
    (attempt submitted), ``"done"`` (attempt succeeded, result cached),
    ``"retry"`` (attempt failed, another follows), or ``"failed"``
    (attempts exhausted).  ``attempt`` counts from 1 (0 for cache hits);
    ``error`` carries the ``repr`` of the exception for retry/failed.
    """

    kind: str
    spec: ScenarioSpec
    attempt: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class SpecFailure:
    """One spec that exhausted its attempts, with the last error."""

    spec: ScenarioSpec
    attempts: int
    error: str

    def label(self) -> str:
        """``scheme/attack/k=N/seed=S`` — how failure reports name it."""
        spec = self.spec
        return (f"{spec.scheme}/{spec.attack}/k={spec.n_attackers}"
                f"/seed={spec.seed}")


class SweepFailure(RuntimeError):
    """Raised after a sweep finishes with at least one failed spec.

    Unlike a worker exception propagating mid-sweep, this is raised only
    once every other spec has completed (and been cached), so no sibling
    work is discarded: ``results`` holds the completed runs in input
    order (``None`` at failed positions) and ``failures`` lists each
    failed spec with its attempt count and last error.
    """

    def __init__(
        self,
        failures: Sequence[SpecFailure],
        results: Sequence[Optional[RunResult]],
    ) -> None:
        self.failures = list(failures)
        self.results = list(results)
        names = ", ".join(f.label() for f in self.failures[:3])
        more = len(self.failures) - 3
        if more > 0:
            names += f" (+{more} more)"
        super().__init__(
            f"{len(self.failures)} of {len(self.results)} spec(s) failed "
            f"after retries: {names}; last error: {self.failures[0].error}"
        )


class SweepRunner:
    """Execute scenario specs: cached, multi-process, multi-seed.

    Uncached specs run in rounds of one attempt each: in-process and in
    input order when ``jobs=1`` or one spec is pending (the
    deterministic reference path), else on a fresh
    ``ProcessPoolExecutor`` per round, so a crashed worker poisons at
    most one round.  The mode is chosen once per :meth:`run`.  All
    randomness is seeded from the spec, so both modes are bit-identical.

    A spec's exception never aborts the sweep: the spec is retried in
    the next round, up to ``retries`` more times; every sibling still
    completes and is cached; and only then is a :class:`SweepFailure`
    raised naming the specs that never succeeded.

    ``on_event`` (if given) receives a :class:`SweepEvent` for every
    cache hit, attempt start, completion, retry, and failure — the CLI's
    stderr ticker and the sweep's :class:`~repro.eval.service.ProgressLog`
    both hang off this stream.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        retries: int = 1,
        on_event: Optional[Callable[[SweepEvent], None]] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.cache = cache
        self.retries = retries
        self.on_event = on_event

    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Run every spec, preserving input order in the result list.

        Raises :class:`SweepFailure` — *after* every runnable spec has
        completed and been cached — if any spec failed all its attempts.
        """
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending: List[int] = []
        for i, spec in enumerate(specs):
            hit = self.cache.get(spec.key()) if self.cache else None
            if hit is not None:
                results[i] = hit
                self._emit("cached", spec)
            else:
                pending.append(i)

        in_process = self.jobs == 1 or len(pending) == 1
        attempts = dict.fromkeys(pending, 0)
        failures: Dict[int, SpecFailure] = {}
        while pending:
            retry: List[int] = []
            for i, outcome in self._round(specs, pending, attempts,
                                          in_process):
                spec = specs[i]
                try:
                    result = outcome()
                except Exception as exc:  # per-spec isolation
                    error = repr(exc)
                    if attempts[i] <= self.retries:
                        self._emit("retry", spec, attempts[i], error)
                        retry.append(i)
                    else:
                        failures[i] = SpecFailure(spec, attempts[i], error)
                        self._emit("failed", spec, attempts[i], error)
                    continue
                if self.cache is not None:
                    self.cache.put(spec.key(), result)
                results[i] = result
                self._emit("done", spec, attempts[i])
            pending = sorted(retry)
        if failures:
            raise SweepFailure(
                [failures[i] for i in sorted(failures)], results
            )
        return results  # type: ignore[return-value]

    def _round(
        self,
        specs: Sequence[ScenarioSpec],
        pending: Sequence[int],
        attempts: Dict[int, int],
        in_process: bool,
    ) -> Iterator[Tuple[int, Callable[[], RunResult]]]:
        """One attempt at each pending spec, as ``(index, outcome)`` pairs:
        ``outcome()`` returns the result or raises.  In-process, a spec
        runs when its outcome is called, before the next one starts; on
        a pool, all are submitted up front and yielded as they finish."""
        def started() -> Iterator[int]:
            for i in pending:
                attempts[i] += 1
                self._emit("start", specs[i], attempts[i])
                yield i

        if in_process:
            for i in started():
                yield i, partial(run_spec, specs[i])
            return
        # Imported here: a process that never builds a pool never loads
        # multiprocessing.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending))) as pool:
            futures = {pool.submit(run_spec, specs[i]): i for i in started()}
            for future in as_completed(futures):
                yield futures[future], future.result

    def _emit(
        self,
        kind: str,
        spec: ScenarioSpec,
        attempt: int = 0,
        error: Optional[str] = None,
    ) -> None:
        if self.on_event is not None:
            self.on_event(SweepEvent(kind, spec, attempt, error))

    def run_points(
        self,
        specs: Sequence[ScenarioSpec],
        seeds: int = 1,
        title: str = "",
    ) -> SweepResult:
        """Run each spec under ``seeds`` consecutive seeds
        (:func:`expand_seeds`) and aggregate each point's replications."""
        runs = self.run(expand_seeds(specs, seeds))
        points = [
            PointResult.from_runs(runs[i: i + seeds])
            for i in range(0, len(runs), seeds)
        ]
        return SweepResult(
            title=title,
            points=points,
            # Only facts that describe *what* was computed belong here:
            # execution strategy (job count, cache use) must not leak into
            # the payload, or the bit-identical-across---jobs guarantee —
            # and with it cache/JSON comparisons — would break.
            meta={
                "seeds": seeds,
                "code_version": CACHE_SALT,
            },
        )
