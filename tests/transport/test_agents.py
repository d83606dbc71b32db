"""Tests for traffic agents."""

import random

import pytest

from repro.sim import (
    DropTailQueue,
    Host,
    Link,
    Simulator,
    TransferLog,
    build_static_routes,
)
from repro.core.header import RequestHeader
from repro.transport import CbrFlood, PacketSink, RepeatingTransferClient, TcpListener
from repro.transport.agents import JitterStream


def two_hosts(bandwidth_bps=10e6, delay=0.03):
    sim = Simulator()
    a = Host(sim, "a", 1)
    b = Host(sim, "b", 2)
    ab = Link(sim, a, b, bandwidth_bps, delay, DropTailQueue(limit_bytes=None, limit_pkts=100))
    ba = Link(sim, b, a, bandwidth_bps, delay, DropTailQueue(limit_bytes=None, limit_pkts=100))
    a.add_link(ab)
    b.add_link(ba)
    build_static_routes([a, b])
    return sim, a, b


class TestRepeatingTransferClient:
    def test_back_to_back_transfers(self):
        sim, a, b = two_hosts()
        TcpListener(sim, b, 80)
        log = TransferLog()
        client = RepeatingTransferClient(sim, a, 2, 80, nbytes=20_000, log=log,
                                         stop_at=3.0)
        sim.run(until=4.0)
        # ~0.31 s per transfer -> about 9-10 transfers in 3 s.
        assert client.completed >= 8
        assert log.fraction_completed() == 1.0

    def test_max_transfers_cap(self):
        sim, a, b = two_hosts()
        TcpListener(sim, b, 80)
        client = RepeatingTransferClient(sim, a, 2, 80, nbytes=1000,
                                         max_transfers=3)
        sim.run(until=10.0)
        assert client.transfers_started == 3
        assert client.completed == 3

    def test_failed_transfer_restarts(self):
        sim = Simulator()
        a = Host(sim, "a", 1)  # linkless: everything fails
        log = TransferLog()
        client = RepeatingTransferClient(sim, a, 2, 80, nbytes=1000, log=log,
                                         max_transfers=2)
        sim.run(until=60.0)
        assert client.failed == 2
        assert log.fraction_completed() == 0.0

    def test_records_have_durations(self):
        sim, a, b = two_hosts()
        TcpListener(sim, b, 80)
        log = TransferLog()
        RepeatingTransferClient(sim, a, 2, 80, nbytes=20_000, log=log,
                                max_transfers=2)
        sim.run(until=5.0)
        series = log.time_series()
        assert len(series) == 2
        for _, duration in series:
            assert 0.2 < duration < 0.5


class TestCbrFlood:
    def test_rate_is_approximately_honoured(self):
        sim, a, b = two_hosts(bandwidth_bps=100e6)
        sink = PacketSink(b, "cbr")
        CbrFlood(sim, a, 2, rate_bps=1e6, pkt_size=1000, mode="legacy")
        sim.run(until=10.0)
        rate = sink.bytes * 8 / 10.0
        assert rate == pytest.approx(1e6, rel=0.1)

    def test_jitter_keeps_long_term_rate(self):
        sim, a, b = two_hosts(bandwidth_bps=100e6)
        sink = PacketSink(b, "cbr")
        CbrFlood(sim, a, 2, rate_bps=1e6, pkt_size=1000, mode="legacy", jitter=0.3)
        sim.run(until=10.0)
        rate = sink.bytes * 8 / 10.0
        assert rate == pytest.approx(1e6, rel=0.15)

    def test_stop_at(self):
        sim, a, b = two_hosts()
        flood = CbrFlood(sim, a, 2, rate_bps=1e6, pkt_size=1000, stop_at=1.0)
        sim.run(until=5.0)
        sent_at_1s = flood.packets_sent
        assert 100 <= sent_at_1s <= 135  # ~125 pps for 1 s

    def test_request_mode_attaches_blank_requests(self):
        sim, a, b = two_hosts()
        # Packets are pool-recycled after dispatch, so capture the shim
        # at delivery time rather than retaining the packet object.
        shims = []
        b.bind("cbr", 0, lambda p: shims.append(p.shim))
        CbrFlood(sim, a, 2, rate_bps=1e6, pkt_size=1000, mode="request",
                 stop_at=0.1)
        sim.run(until=1.0)
        assert shims
        assert all(isinstance(s, RequestHeader) for s in shims)

    def test_legacy_mode_has_no_shim(self):
        sim, a, b = two_hosts()
        seen = []
        b.bind("cbr", 0, seen.append)
        CbrFlood(sim, a, 2, rate_bps=1e6, pkt_size=1000, mode="legacy",
                 stop_at=0.1)
        sim.run(until=1.0)
        assert seen and all(p.shim is None for p in seen)

    def test_shim_mode_without_shim_floods_immediately(self):
        """With no capability layer there is nothing to handshake with."""
        sim, a, b = two_hosts()
        sink = PacketSink(b, "cbr")
        CbrFlood(sim, a, 2, rate_bps=1e6, pkt_size=1000, mode="shim",
                 stop_at=1.0)
        sim.run(until=2.0)
        assert sink.packets > 100

    def test_rejects_bad_parameters(self):
        sim, a, b = two_hosts()
        with pytest.raises(ValueError):
            CbrFlood(sim, a, 2, rate_bps=0)
        with pytest.raises(ValueError):
            CbrFlood(sim, a, 2, mode="nonsense")


class TestJitterStream:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 10**12 + 7])
    def test_draws_equal_random_uniform(self, seed):
        """3 000 draws cross every refill (after 32, 64, 128 and 256
        draws) and the switch to a kept generator at 512; the jitter
        bound varies so the stored values must be ``random()`` itself."""
        stream, reference = JitterStream(seed), random.Random(seed)
        for n in range(3_000):
            j = 0.05 * (1 + n % 7)
            assert stream.uniform(-j, j) == reference.uniform(-j, j), n


class TestPacketSink:
    def test_counts_arrivals(self):
        sim, a, b = two_hosts()
        sink = PacketSink(b, "cbr")
        CbrFlood(sim, a, 2, rate_bps=1e6, pkt_size=500, stop_at=0.5)
        sim.run(until=1.0)
        assert sink.packets > 0
        assert sink.bytes == sink.packets * 500
