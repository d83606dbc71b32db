"""Tests for the SIFF baseline."""

import pytest

from repro.baselines import SiffKnobs, SiffScheme
from repro.baselines.siff import SiffData, SiffExplorer, SiffRouterProcessor
from repro.sim import Packet, Simulator, chain_spec, instantiate
from repro.transport import TcpListener, TcpSender


class FakeRouter:
    """Just enough router for processor unit tests."""

    def __init__(self, sim):
        self.sim = sim


class TestRouterProcessor:
    def setup_method(self):
        self.sim = Simulator()
        self.router = FakeRouter(self.sim)
        self.proc = SiffRouterProcessor(
            "R1", SiffKnobs(secret_period=3.0, mark_bits=8))

    def pkt(self, shim, src=1, dst=2):
        return Packet(src=src, dst=dst, size=100, proto="raw", shim=shim)

    def test_explorer_collects_mark(self):
        shim = SiffExplorer()
        assert self.proc.process(self.pkt(shim), self.router, None, None)
        assert len(shim.marks) == 1

    def test_data_with_correct_mark_verified(self):
        explorer = SiffExplorer()
        self.proc.process(self.pkt(explorer), self.router, None, None)
        data = SiffData(marks=list(explorer.marks))
        assert self.proc.process(self.pkt(data), self.router, None, None)
        assert self.proc.data_verified == 1

    def test_data_with_wrong_mark_dropped(self):
        data = SiffData(marks=[0xFF])
        explorer = SiffExplorer()
        self.proc.process(self.pkt(explorer), self.router, None, None)
        if explorer.marks[0] == 0xFF:  # pragma: no cover - improbable
            data.marks = [0x00]
        assert not self.proc.process(self.pkt(data), self.router, None, None)
        assert self.proc.data_dropped == 1

    def test_data_with_missing_mark_dropped(self):
        data = SiffData(marks=[])
        assert not self.proc.process(self.pkt(data), self.router, None, None)

    def test_marks_die_at_rotation_without_grace(self):
        explorer = SiffExplorer()
        self.proc.process(self.pkt(explorer), self.router, None, None)
        data = SiffData(marks=list(explorer.marks))
        self.sim.at(4.0, lambda: None)
        self.sim.run()  # advance past the 3 s rotation
        self.proc.accept_previous = False
        assert not self.proc.process(self.pkt(data), self.router, None, None)

    def test_previous_secret_grace_accepts_across_one_rotation(self):
        explorer = SiffExplorer()
        self.proc.process(self.pkt(explorer), self.router, None, None)
        data = SiffData(marks=list(explorer.marks))
        self.sim.at(4.0, lambda: None)
        self.sim.run()
        self.proc.accept_previous = True
        assert self.proc.process(self.pkt(data), self.router, None, None)

    def test_two_bit_marks_collide_across_rotations(self):
        """With the real 2-bit marks, ~1/4 of flows keep validating after a
        rotation by collision — the brute-force weakness the paper notes."""
        proc = SiffRouterProcessor("R1", SiffKnobs(
            secret_period=3.0, accept_previous=False, mark_bits=2))
        survivors = 0
        for src in range(200):
            mark_old = proc._mark(src, 2, epoch=0)
            mark_new = proc._mark(src, 2, epoch=1)
            survivors += mark_old == mark_new
        assert 20 <= survivors <= 90  # ~50 expected out of 200

    def test_legacy_traffic_passes(self):
        assert self.proc.process(self.pkt(None), self.router, None, None)


class TestSiffEndToEnd:
    def test_transfer_completes_over_siff_chain(self):
        sim = Simulator()
        scheme = SiffScheme()
        net = instantiate(chain_spec(n_routers=2), sim, scheme)
        TcpListener(sim, net.destination, 80)
        done = []
        TcpSender(sim, net.users[0], net.destination.address, 80, 20_000,
                  on_complete=done.append).start()
        sim.run(until=5.0)
        assert done
        # The explorer exchange marked and then verified data at routers.
        for proc in scheme.processors.values():
            assert proc.data_verified > 0

    def test_per_connection_exploration(self):
        """Each TCP connection explores anew (Section 3.10's contrast)."""
        sim = Simulator()
        scheme = SiffScheme()
        net = instantiate(chain_spec(n_routers=2), sim, scheme)
        TcpListener(sim, net.destination, 80)
        user = net.users[0]
        done = []
        TcpSender(sim, user, net.destination.address, 80, 5_000,
                  on_complete=done.append).start()
        sim.run(until=2.0)
        explorers_after_first = user.shim.explorers_sent
        TcpSender(sim, user, net.destination.address, 80, 5_000,
                  on_complete=done.append).start()
        sim.run(until=4.0)
        assert len(done) == 2
        assert user.shim.explorers_sent > explorers_after_first

    def test_requests_share_low_priority_with_legacy(self):
        """SIFF's explorers are classified with legacy traffic."""
        scheme = SiffScheme()
        qdisc = scheme.make_qdisc("bottleneck", 10e6)
        explorer_pkt = Packet(1, 2, 100, "raw", shim=SiffExplorer())
        legacy_pkt = Packet(1, 2, 100, "raw")
        data_pkt = Packet(1, 2, 100, "raw", shim=SiffData(marks=[1]))
        qdisc.enqueue(explorer_pkt)
        qdisc.enqueue(legacy_pkt)
        qdisc.enqueue(data_pkt)
        # Verified data dequeues first; explorer and legacy follow FIFO.
        assert qdisc.dequeue(0.0) is data_pkt
        assert qdisc.dequeue(0.0) is explorer_pkt
        assert qdisc.dequeue(0.0) is legacy_pkt
