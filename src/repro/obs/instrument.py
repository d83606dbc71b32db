"""Wiring the metric registry into a built network.

:class:`Observation` bundles one run's registry and sampler and knows how
to instrument a :class:`~repro.sim.topology.Network`:

* the bottleneck links get total and per-traffic-class transmit tallies
  plus derived per-interval utilization gauges (the Figure 2 view of the
  link: requests vs regular vs legacy/demoted bytes);
* every queue discipline in the bottleneck schedulers exports its backlog
  and its drop tallies broken down by drop reason;
* the scheme contributes its own tallies through
  :meth:`~repro.sim.topology.SchemeFactory.metric_items` — TVA's router
  pipeline tallies and flow-state occupancy (the Section 3.6 bound),
  SIFF's verification tallies, pushback's filter activity;
* the shared :class:`~repro.transport.tcp.TcpStats` tallies cover the
  transport view (retransmits, aborts, completions).

Every source speaks the same protocol — ``metric_items()`` yielding
``(suffix, read)`` pairs over plain ``int`` attributes — so wiring one in
is a single :meth:`~repro.obs.metrics.MetricRegistry.gauges` call.

The export format is plain data (dicts, tuples, numbers) so it embeds in
:class:`~repro.eval.results.RunResult` and round-trips through the JSON
cache losslessly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..core.header import figure2_class
from .metrics import MetricRegistry, MetricValue
from .sampler import Sampler

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.link import Link
    from ..sim.packet import Packet
    from ..sim.queues import Qdisc
    from ..sim.topology import Network, SchemeFactory
    from ..transport.tcp import TcpStats

#: The three output classes of Figure 2, indexed by
#: :func:`~repro.core.header.figure2_class`.
TRAFFIC_CLASSES = ("request", "regular", "legacy")


def traffic_class(pkt: "Packet") -> str:
    """Map a packet to its Figure 2 class on the wire."""
    return TRAFFIC_CLASSES[figure2_class(pkt)]


def _rate_gauge(total: Callable[[], int], scale: float) -> Callable[[], float]:
    """A gauge turning a cumulative byte tally into a per-interval rate.

    Each read returns ``delta_since_last_read * scale`` — with ``scale =
    8 / (bandwidth * interval)`` that is the fraction of link capacity
    used during the sampling interval.  The sampler reads every gauge
    exactly once per tick, so the kept mark is well-defined.
    """
    state = {"last": 0}

    def read() -> float:
        current = total()
        delta = current - state["last"]
        state["last"] = current
        return delta * scale

    return read


class Observation:
    """Registry + sampler + export for one simulation run."""

    def __init__(self, interval: float = 0.5) -> None:
        if interval <= 0:
            raise ValueError("metrics interval must be positive")
        self.interval = interval
        self.registry = MetricRegistry()
        self.sampler: Optional[Sampler] = None

    # ------------------------------------------------------------------
    def install(
        self,
        sim: "Simulator",
        net: "Network",
        scheme: "SchemeFactory",
        tcp_stats: Optional["TcpStats"] = None,
        injector=None,
    ) -> None:
        """Instrument a built network and start the periodic sampler.

        Must run before ``sim.run`` so the first tick lands at
        ``interval`` and every series has full length.  ``injector`` is
        an optional :class:`~repro.faults.FaultInjector`; its tallies
        are registered under the ``faults.`` scope.
        """
        for label, link in (
            ("bottleneck", net.bottleneck),
            ("reverse", net.reverse_bottleneck),
        ):
            if link is not None:
                self.instrument_link(label, link)
        self.registry.gauges("scheme", scheme.metric_items())
        if tcp_stats is not None:
            self.registry.gauges("transport", tcp_stats.metric_items())
        if injector is not None:
            self.registry.gauges("faults", injector.metric_items())
        self.instrument_hosts(net)
        self.sampler = Sampler(sim, self.registry, self.interval)

    # ------------------------------------------------------------------
    def instrument_hosts(self, net: "Network") -> None:
        """Aggregate host-shim activity: capability re-requests and
        demotion sightings, summed over all hosts.

        These are the dynamics signals of Section 3.8 — after a fault, a
        recovery shows up as a burst of ``hosts.requests_sent`` (TVA) or
        ``hosts.explorers_sent`` (SIFF)."""
        from ..sim.node import AggregateHost, Host

        shims = []
        for node in net.nodes:
            if isinstance(node, AggregateHost):
                shims.extend(s for s in node.shims if s is not None)
            elif isinstance(node, Host) and node.shim is not None:
                shims.append(node.shim)
        for attr in (
            "requests_sent",
            "explorers_sent",
            "grants_received",
            "demotions_seen",
        ):
            self.registry.gauge(
                f"hosts.{attr}",
                lambda shims=shims, attr=attr: sum(
                    getattr(shim, attr, 0) for shim in shims
                ),
            )

    # ------------------------------------------------------------------
    def instrument_link(self, label: str, link: "Link") -> None:
        prefix = f"link.{label}"
        self.registry.gauges(prefix, link.metric_items())
        # Turn per-class accounting on: every class exists (at zero) from
        # the start, so each has a full-length series even if it never
        # transmits.
        link.classify = traffic_class
        link.class_bytes = dict.fromkeys(TRAFFIC_CLASSES, 0)
        scale = 8.0 / (link.bandwidth_bps * self.interval)
        self.registry.gauge(
            f"{prefix}.util", _rate_gauge(lambda: link.tx_bytes, scale)
        )
        for cls in TRAFFIC_CLASSES:
            def read(cls: str = cls) -> int:
                return link.class_bytes[cls]

            self.registry.gauge(f"{prefix}.tx_bytes.{cls}", read)
            self.registry.gauge(f"{prefix}.util.{cls}", _rate_gauge(read, scale))
        self.instrument_qdisc(f"{prefix}.qdisc", link.qdisc)

    def instrument_qdisc(self, prefix: str, qdisc: "Qdisc") -> None:
        self.registry.gauges(prefix, qdisc.metric_items())
        for i, child in enumerate(getattr(qdisc, "children", ())):
            label = child.label or f"class{i}"
            self.instrument_qdisc(f"{prefix}.{label}", child)

    # ------------------------------------------------------------------
    def export(self) -> Dict:
        """Plain-data summary: final values plus the sampled series.

        ``finals`` re-reads every metric once; for rate gauges that is
        the partial interval since the last tick, which is still fully
        deterministic.
        """
        finals: Dict[str, MetricValue] = self.registry.sample()
        series = self.sampler.series() if self.sampler is not None else {}
        return {
            "interval": self.interval,
            "finals": finals,
            "series": {name: tuple(points)
                       for name, points in sorted(series.items())},
        }
