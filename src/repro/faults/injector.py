"""Driving fault schedules through the simulator event loop.

The :class:`FaultInjector` turns a declarative :class:`FaultSchedule` into
ordinary calendar events on the shared :class:`~repro.sim.engine.Simulator`,
so faults interleave deterministically with traffic — same heap, same seq
tie-breaking, bit-identical across seeds and worker counts.

All state mutation goes through the public surface the sim and core layers
already expose: ``Link.set_down``/``set_up``, ``SchemeFactory.reboot_router``
and ``build_static_routes(strict=False)``.  The injector itself only keeps
tallies, which the observability layer registers under ``faults.``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..obs.metrics import MetricItem, tally_items
from ..sim.routing import build_static_routes
from .events import FaultEvent, LinkDown, LinkUp, RouteChange, RouterReboot
from .schedule import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator
    from ..sim.topology import Dumbbell, SchemeFactory


class FaultInjectionError(ValueError):
    """A schedule references a router/link the topology does not have."""


class FaultInjector:
    """Schedules and fires the events of one :class:`FaultSchedule`."""

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._sim: "Simulator" = None  # set by install()
        self._net: "Dumbbell" = None
        self._scheme: "SchemeFactory" = None
        self.applied = 0
        self.link_downs = 0
        self.link_ups = 0
        self.reboots = 0
        self.route_changes = 0
        self.drained_packets = 0
        self.drained_bytes = 0

    # ------------------------------------------------------------------
    def check(self, net: "Dumbbell") -> None:
        """Raise :class:`FaultInjectionError`, naming the fault, if an
        event names a router or link ``net`` lacks.  A
        :class:`~repro.eval.runner.ScenarioSpec` with faults runs this at
        construction, so a typo is rejected before any run starts."""
        for ev in self.schedule:
            try:
                if isinstance(ev, (LinkDown, LinkUp)):
                    net.links_by_name(ev.link)
                elif isinstance(ev, RouterReboot):
                    net.router_by_name(ev.router)
            except KeyError as exc:
                raise FaultInjectionError(
                    f"fault {ev.kind} at t={ev.at:g}: {exc.args[0]}") from None

    def install(self, sim: "Simulator", net: "Dumbbell", scheme: "SchemeFactory") -> None:
        """:meth:`check` the schedule against the topology and book
        every event."""
        self.check(net)
        self._sim = sim
        self._net = net
        self._scheme = scheme
        for ev in self.schedule:
            sim.call_at(ev.at, self._fire, ev)

    # ------------------------------------------------------------------
    def _fire(self, ev: FaultEvent) -> None:
        self.applied += 1
        if isinstance(ev, LinkDown):
            self.link_downs += 1
            for link in self._net.links_by_name(ev.link):
                drained = link.set_down()
                self.drained_packets += len(drained)
                self.drained_bytes += sum(pkt.size for pkt in drained)
        elif isinstance(ev, LinkUp):
            self.link_ups += 1
            for link in self._net.links_by_name(ev.link):
                link.set_up()
        elif isinstance(ev, RouterReboot):
            self.reboots += 1
            self._scheme.reboot_router(
                ev.router, self._sim.now, rotate_secret=ev.rotate_secret
            )
        elif isinstance(ev, RouteChange):
            self.route_changes += 1
            # Non-strict: a partition is a valid mid-experiment state.
            build_static_routes(self._net.nodes, strict=False)
        else:  # pragma: no cover - registry and isinstance stay in sync
            raise FaultInjectionError(f"unhandled fault event {ev!r}")

    # ------------------------------------------------------------------
    def metric_items(self) -> List[MetricItem]:
        """``(name, read)`` pairs for the metric registry (``faults.`` scope)."""
        return tally_items(self, (
            "applied", "link_downs", "link_ups", "reboots", "route_changes",
            "drained_packets", "drained_bytes",
        ))
