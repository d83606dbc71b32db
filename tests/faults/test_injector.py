"""The fault injector against live topologies."""

import pytest

from repro.faults import (
    FaultInjectionError,
    FaultInjector,
    FaultSchedule,
    LinkDown,
    LinkUp,
    RouteChange,
    RouterReboot,
)
from repro.sim import Simulator, chain_spec, instantiate, parallel_spec
from repro.sim.packet import Packet
from repro.sim.topology import LegacyDefaults
from repro.transport import PacketSink


def make_legacy_chain(link_bps=1e6):
    sim = Simulator()
    scheme = LegacyDefaults()  # legacy Internet defaults
    net = instantiate(chain_spec(n_routers=2, link_bps=link_bps), sim, scheme)
    return sim, scheme, net


def flood(sim, net, n=30, size=1000):
    """Push n packets at the source host in one instant, swamping the
    slow chain bottleneck so a backlog builds."""
    src = net.users[0]
    for _ in range(n):
        pkt = Packet(src=src.address, dst=net.destination.address,
                     size=size, proto="cbr", created=sim.now)
        src.send(pkt)


class TestLinkDown:
    def test_drain_empties_queue_and_accounts_bytes(self):
        sim, scheme, net = make_legacy_chain()
        PacketSink(net.destination, "cbr")
        flood(sim, net)
        sim.run(until=0.01)  # backlog forms at the bottleneck
        link = net.bottleneck
        backlog_pkts = link.qdisc.backlog_pkts
        backlog_bytes = link.qdisc.backlog_bytes
        assert backlog_pkts > 0
        drained = link.set_down()
        # Drain is complete and leak-free: queue accounting returns to
        # zero and every drained byte lands on the fault counters.
        assert len(drained) == backlog_pkts
        assert sum(p.size for p in drained) == backlog_bytes
        assert link.qdisc.backlog_pkts == 0
        assert link.qdisc.backlog_bytes == 0
        assert link.fault_drops == backlog_pkts
        assert link.fault_drop_bytes == backlog_bytes

    def test_down_link_refuses_arrivals(self):
        sim, scheme, net = make_legacy_chain()
        link = net.bottleneck
        link.set_down()
        pkt = Packet(src=1, dst=2, size=500, proto="cbr", created=0.0)
        assert link.send(pkt) is False
        assert link.fault_drops == 1
        assert link.fault_drop_bytes == 500

    def test_set_down_is_idempotent(self):
        sim, scheme, net = make_legacy_chain()
        flood(sim, net)
        sim.run(until=0.01)
        link = net.bottleneck
        first = link.set_down()
        assert link.set_down() == []
        assert link.fault_drops == len(first)

    def test_traffic_resumes_after_link_up(self):
        sim, scheme, net = make_legacy_chain()
        sink = PacketSink(net.destination, "cbr")
        injector = FaultInjector(FaultSchedule((
            LinkDown(at=0.5, link="bottleneck"),
            LinkUp(at=1.0, link="bottleneck"),
        )))
        injector.install(sim, net, scheme)
        sim.at(1.5, flood, sim, net, 5)
        sim.run(until=3.0)
        assert injector.link_downs == 1
        assert injector.link_ups == 1
        assert sink.packets == 5

    def test_queue_drop_accounting_untouched_by_drain(self):
        # Drained packets are fault losses, not queue decisions: the
        # qdisc's own drop counter must not move.
        sim, scheme, net = make_legacy_chain()
        flood(sim, net)
        sim.run(until=0.01)
        link = net.bottleneck
        qdisc_drops_before = link.qdisc.drops
        link.set_down()
        assert link.qdisc.drops == qdisc_drops_before


class TestRouteChange:
    def test_reroutes_around_down_link(self):
        sim = Simulator()
        scheme = LegacyDefaults()
        net = instantiate(parallel_spec(), sim, scheme)
        r1 = net.router_by_name("R1")
        dst = net.destination.address
        via_ra = net.links_by_name("R1->RA")[0]
        via_rb = net.links_by_name("R1->RB")[0]
        assert r1.routing[dst] is via_ra  # deterministic tie-break
        injector = FaultInjector(FaultSchedule((
            LinkDown(at=1.0, link="R1<->RA"),
            RouteChange(at=1.001),
        )))
        injector.install(sim, net, scheme)
        sim.run(until=2.0)
        assert injector.route_changes == 1
        assert r1.routing[dst] is via_rb

    def test_partition_clears_routes_instead_of_raising(self):
        sim = Simulator()
        scheme = LegacyDefaults()
        net = instantiate(parallel_spec(), sim, scheme)
        r1 = net.router_by_name("R1")
        dst = net.destination.address
        injector = FaultInjector(FaultSchedule((
            LinkDown(at=1.0, link="R1<->RA"),
            LinkDown(at=1.0, link="R1<->RB"),
            RouteChange(at=1.001),
        )))
        injector.install(sim, net, scheme)
        sim.run(until=2.0)
        # Fully partitioned: the stale route through RA must be gone.
        assert dst not in r1.routing


class TestValidation:
    def test_unknown_router_fails_at_install(self):
        sim, scheme, net = make_legacy_chain()
        injector = FaultInjector(FaultSchedule((RouterReboot(at=1.0, router="R99"),)))
        with pytest.raises(FaultInjectionError):
            injector.install(sim, net, scheme)

    def test_unknown_link_fails_at_install(self):
        sim, scheme, net = make_legacy_chain()
        injector = FaultInjector(FaultSchedule((LinkDown(at=1.0, link="Rx->Ry"),)))
        with pytest.raises(FaultInjectionError):
            injector.install(sim, net, scheme)

    def test_legacy_scheme_reports_no_reboot_state(self):
        sim, scheme, net = make_legacy_chain()
        assert scheme.reboot_router("R1", 0.0) is False
        injector = FaultInjector(FaultSchedule((RouterReboot(at=1.0, router="R1"),)))
        injector.install(sim, net, scheme)
        sim.run(until=2.0)
        assert injector.reboots == 1  # counted even when stateless

    def test_metric_items_names_are_stable(self):
        injector = FaultInjector(FaultSchedule())
        names = [name for name, _ in injector.metric_items()]
        assert names == [
            "applied", "link_downs", "link_ups", "reboots",
            "route_changes", "drained_packets", "drained_bytes",
        ]
