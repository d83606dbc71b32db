"""The registries: the paper's simulated artifacts, and curated scenarios.

:data:`FIGURES` holds one :class:`FigureDef` per simulated artifact:
Figures 8–11 and the Section 3.8 reboot experiment.  It is the only place
their defaults live; the CLI's figure subcommands, ``report`` and
``sweep`` are generated from it.

Each :class:`ScenarioDef` is a stable name, a description and a template
:class:`~repro.eval.runner.ScenarioSpec`: a declarative topology (see
:mod:`repro.sim.topospec`), the attack class run on it, and the tuned
experiment knobs.  ``repro scenario --list`` prints
the registry; ``repro scenario --name <x>`` runs one entry through the
same :class:`~repro.eval.runner.ScenarioSpec` path as every figure, so
curated runs cache, parallelize, inject faults, and export metrics like
any other spec — and stay bit-identical across worker counts and
``PYTHONHASHSEED``.

The library spans the regimes a single dumbbell cannot show: congestion
at several tree levels at once, attack ingress spread over an AS graph,
asymmetric forward/return routing, partial (mixed) deployment, and a
10^4-sender flood whose senders share one node, one access trunk and one
routing range entry per router for each group (see
:class:`~repro.transport.AggregateSender`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from .eval.dynamics import DynamicsResult, build_dynamics_spec
from .eval.experiments import SCHEMES, ExperimentConfig, Fig11Result
from .eval.results import metrics_lines
from .eval.runner import (
    ScenarioSpec,
    SweepRunner,
    build_fig11_spec,
    build_flood_specs,
)
from .sim.topospec import (
    TopologySpec,
    as_graph_spec,
    asymmetric_spec,
    fat_tree_spec,
    partial_deployment_spec,
    tree_spec,
)


@dataclass(frozen=True)
class ScenarioDef:
    """One curated scenario: a name, a description, and the template
    spec it runs (TVA, seed 1, the tuned duration, no faults)."""

    name: str
    description: str
    template: ScenarioSpec

    @property
    def topology(self) -> TopologySpec:
        return self.template.topology

    @property
    def n_hosts(self) -> int:
        return self.topology.n_hosts()

    @property
    def n_attackers(self) -> int:
        return self.template.n_attackers

    @property
    def aggregate(self) -> bool:
        return self.template.aggregate

    def spec(self, duration: Optional[float] = None, **fields) -> ScenarioSpec:
        """The template with ``fields`` (any :class:`ScenarioSpec` field:
        ``scheme``, ``seed``, ``faults``, ...) replaced; ``duration`` sets
        the config's.  The definition itself is immutable."""
        if duration is not None:
            fields["config"] = replace(self.template.config, duration=duration)
        return replace(self.template, **fields)


def _scenario(name: str, description: str, topology: TopologySpec,
              attack: str = "legacy",
              config: Optional[ExperimentConfig] = None,
              **fields) -> ScenarioDef:
    """A library entry: ``attack`` from every attacker ``topology``
    declares, for 10 simulated seconds unless ``config`` says otherwise."""
    return ScenarioDef(name, description, ScenarioSpec(
        scheme="tva", attack=attack,
        n_attackers=topology.role_count("attacker"),
        config=config or ExperimentConfig(duration=10.0),
        topology=topology, **fields))


def _curated() -> List[ScenarioDef]:
    return [
        _scenario(
            name="tree-flood",
            description=(
                "Legacy floods from every leaf of an aggregation tree whose "
                "capacity shrinks toward the root: congestion forms at "
                "several levels at once, the regime where single-bottleneck "
                "results are known to flip."
            ),
            topology=tree_spec(),
        ),
        _scenario(
            name="tree-flash-crowd",
            description=(
                "The same tree under a flash crowd: ten legitimate users per "
                "leaf, no attackers.  The contrast with tree-flood separates "
                "overload (which capabilities should admit fairly) from "
                "attack (which they should exclude)."
            ),
            topology=tree_spec(users_per_leaf=10, attackers_per_leaf=0),
        ),
        _scenario(
            name="as-colluders",
            description=(
                "Colluder-authorized floods entering an AS-like transit/stub "
                "graph at five different stub ASes: every attack packet is "
                "capability-authorized, and ingress is spread so no single "
                "edge tag covers the attack."
            ),
            topology=as_graph_spec(attackers_per_stub=5, with_colluder=True),
            attack="colluder",
            aggregate=True,
        ),
        _scenario(
            name="asymmetric-paths",
            description=(
                "Forward data and return grants ride different unidirectional "
                "router paths with different latency, stressing the scheme's "
                "assumption that return information retraces the request."
            ),
            topology=asymmetric_spec(),
        ),
        _scenario(
            name="partial-tva",
            description=(
                "A router chain with the scheme deployed on the edge hops "
                "only (the middle router forwards like the legacy Internet): "
                "the incremental-deployment story of Section 8."
            ),
            topology=partial_deployment_spec(),
        ),
        _scenario(
            name="fat-tree-flood",
            description=(
                "A k=4 fat-tree datacenter fabric with a full-bisection core; "
                "the only queue that builds is the victim's edge downlink — "
                "the incast regime."
            ),
            topology=fat_tree_spec(),
        ),
        _scenario(
            name="flood-10k",
            description=(
                "Ten thousand flood sources — four aggregated groups of 2500 "
                "senders behind separate tree leaves — each at 50 kb/s "
                "against a 10 Mb/s victim link.  Aggregated senders keep the "
                "whole run in one process."
            ),
            topology=tree_spec(
                branches=4,
                leaves_per_branch=1,
                users_per_leaf=2,
                attackers_per_leaf=2500,
            ),
            aggregate=True,
            config=ExperimentConfig(duration=5.0, attack_rate_bps=50_000.0),
        ),
    ]


#: The registry, in curated order (insertion order is presentation order).
SCENARIOS: Dict[str, ScenarioDef] = {s.name: s for s in _curated()}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioDef:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        ) from None


def format_scenario_table() -> str:
    """The ``repro scenario --list`` table."""
    rows = [
        (s.name, s.topology.name, str(s.n_hosts), s.template.attack,
         s.description)
        # repro: allow-unordered-iter — curated order IS the presentation order
        for s in SCENARIOS.values()
    ]
    name_w = max(len(r[0]) for r in rows)
    topo_w = max(len(r[1]) for r in rows)
    host_w = max(len(r[2]) for r in rows)
    atk_w = max(len(r[3]) for r in rows)
    lines = [
        f"{'name':{name_w}s}  {'topology':{topo_w}s}  "
        f"{'hosts':>{host_w}s}  {'attack':{atk_w}s}  description"
    ]
    for name, topo, hosts, attack, desc in rows:
        lines.append(
            f"{name:{name_w}s}  {topo:{topo_w}s}  "
            f"{hosts:>{host_w}s}  {attack:{atk_w}s}  {desc}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The paper's simulated artifacts
# ---------------------------------------------------------------------------

def _sparkline(series, t_max: float, buckets: int = 60) -> str:
    """A terminal rendering of the Figure 11 time series: worst transfer
    time per time bucket."""
    glyphs = " .:-=+*#%@"
    worst = [0.0] * buckets
    for start, duration in series:
        idx = min(buckets - 1, int(start / t_max * buckets))
        worst[idx] = max(worst[idx], duration)
    top = max(max(worst), 1.0)
    return "".join(
        glyphs[min(len(glyphs) - 1, int(w / top * (len(glyphs) - 1)))]
        for w in worst
    )


def _flood_grid(attack, schemes, sweep, duration, seed, **options):
    config = ExperimentConfig(duration=duration)
    return build_flood_specs(attack, schemes, sweep, config, seed, **options)


def _dynamics_grid(schemes, attackers, keep_secret, **options):
    return [build_dynamics_spec(scheme, n_attackers=attackers,
                                rotate_secret=not keep_secret, **options)
            for scheme in schemes]


def _fig11_text(title: str, params: Dict, result: Fig11Result) -> str:
    duration = params["duration"]
    gaps = [(round(a, 1), round(b, 1)) for a, b in result.completion_gaps()]
    lines = [
        f"Figure 11 — {result.scheme}, {result.pattern} "
        f"(attack starts at t={result.attack_start:g} s)",
        f"  completed transfers : {len(result.series)}",
        f"  max transfer time   : {result.max_transfer_time():.2f} s",
        f"  disruption ends at  : {result.disruption_end():.1f} s",
        f"  completion gaps     : {gaps}",
        f"  transfer-time sketch (0..{duration:.0f} s, darker = slower):",
        f"  [{_sparkline(result.series, duration)}]",
    ]
    if result.metrics is not None:
        lines.append("  metrics:")
        lines += [f"  {line}" for line in metrics_lines(result.metrics)]
    return "\n".join(lines)


def _dynamics_text(title: str, params: Dict, result: DynamicsResult) -> str:
    return "\n".join([
        title, result.table(), "",
        "recovery(s): time after the reboot until the completion rate",
        "is back to 90% of its pre-fault level ('never' = not within",
        "the run; 0.0 = no visible degradation).",
    ])


@dataclass(frozen=True)
class FigureDef:
    """One simulated paper artifact, ``repro <name>``, as data.

    ``params`` (name, default) become its flags; ``fixed`` are ``grid``
    arguments no flag reaches.  ``view(params, specs, sweep)`` is the
    result record: its ``to_json()`` is the JSON rendering,
    ``text(title, params, record)`` the text one.
    """

    name: str
    title: str
    params: Tuple[Tuple[str, object], ...]
    grid: Callable[..., List[ScenarioSpec]]
    fixed: Tuple[Tuple[str, object], ...] = ()
    view: Callable[..., object] = lambda params, specs, sweep: sweep
    text: Callable[..., str] = lambda title, params, sweep: sweep.table()
    seeds: bool = False

    @property
    def defaults(self) -> Dict[str, object]:
        return dict(self.params)

    def specs(self, metrics: bool = False, metrics_interval: float = 0.5,
              **params) -> List[ScenarioSpec]:
        """The grid at ``params``, ``fixed`` ones included; the rest
        keep their defaults."""
        return self.grid(**{**dict(self.fixed), **self.defaults, **params},
                         metrics=metrics, metrics_interval=metrics_interval)

    def run(self, runner: Optional[SweepRunner] = None,
            metrics: bool = False, **params):
        """The record ``repro <name>`` renders, for ``params``; runs
        in-process unless a ``runner`` is given."""
        params = {**self.defaults, **params}
        specs = self.specs(metrics, **params)
        sweep = (runner or SweepRunner(jobs=1)).run_points(
            specs, title=self.title)
        return self.view(params, specs, sweep)


#: Figures 8–10 share their parameters; the paper sweeps 1..100
#: attackers on a log axis.
_FLOOD = dict(seeds=True, grid=_flood_grid, params=(
    ("schemes", SCHEMES), ("sweep", (1, 2, 4, 10, 20, 40, 100)),
    ("duration", ExperimentConfig().duration), ("seed", 1)))

#: The simulated artifacts, in paper order (the subcommand order).
FIGURES: Dict[str, FigureDef] = {f.name: f for f in (
    FigureDef("fig8", "Figure 8 — legacy packet floods",
              fixed=(("attack", "legacy"),), **_FLOOD),
    FigureDef("fig9", "Figure 9 — request packet floods",
              fixed=(("attack", "request"),), **_FLOOD),
    FigureDef("fig10", "Figure 10 — authorized floods at a colluder",
              fixed=(("attack", "colluder"),), **_FLOOD),
    FigureDef(
        "fig11", "Figure 11 — imprecise authorization policies",
        params=(("scheme", "tva"), ("pattern", "all_at_once"),
                ("duration", 50.0)),
        fixed=(("n_attackers", 100), ("attack_start", 10.0)),
        grid=lambda **kw: [build_fig11_spec(**kw)],
        view=lambda params, specs, sweep: Fig11Result.from_run(
            specs[0], sweep.points[0].runs[0]),
        text=_fig11_text,
    ),
    FigureDef(
        "dynamics", "Dynamics — recovery after a router reboot",
        # TVA, SIFF and NetFence keep per-router state; the stateless
        # Internet is the control.  R1, the trust boundary, reboots with
        # no attack traffic, isolating the dynamics response.
        params=(("schemes", ("tva", "siff", "internet", "netfence")),
                ("reboot_at", 8.0), ("duration", 20.0), ("attackers", 0),
                ("router", "R1"), ("keep_secret", False), ("seed", 1)),
        grid=_dynamics_grid,
        view=lambda params, specs, sweep: DynamicsResult.from_runs(
            params["reboot_at"], params["duration"],
            [point.runs[0] for point in sweep.points]),
        text=_dynamics_text,
    ),
)}

#: The flood figures by attack class: ``repro sweep --attack``'s choices.
FLOOD_FIGURES: Dict[str, FigureDef] = {
    dict(FIGURES[name].fixed)["attack"]: FIGURES[name]
    for name in FIGURES if FIGURES[name].grid is _flood_grid
}
