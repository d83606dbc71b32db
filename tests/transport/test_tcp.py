"""Tests for the paper-modified TCP."""

import pytest

from repro.sim import (
    DropTailQueue,
    Host,
    Link,
    Qdisc,
    Simulator,
    build_static_routes,
)
from repro.transport import TcpListener, TcpParams, TcpSender


def two_hosts(bandwidth_bps=10e6, delay=0.03, limit_pkts=50):
    """A client and a server joined by a duplex link (60 ms RTT default)."""
    sim = Simulator()
    client = Host(sim, "client", 1)
    server = Host(sim, "server", 2)
    ab = Link(sim, client, server, bandwidth_bps, delay,
              DropTailQueue(limit_bytes=None, limit_pkts=limit_pkts))
    ba = Link(sim, server, client, bandwidth_bps, delay,
              DropTailQueue(limit_bytes=None, limit_pkts=limit_pkts))
    client.add_link(ab)
    server.add_link(ba)
    build_static_routes([client, server])
    return sim, client, server


def patch_enqueue(link, enqueue):
    """Replace ``link``'s queue ``enqueue`` with ``enqueue(pkt)``.

    Queues are slotted, so the override lives on a throwaway subclass the
    queue is moved to.  Redefining ``enqueue`` there also hands the
    subclass the default ``admit_idle`` (``enqueue`` + ``dequeue``), so
    packets reaching an idle link go through the replacement too."""
    qdisc = link.qdisc

    class Patched(type(qdisc)):
        __slots__ = ()

        def enqueue(self, pkt):
            return enqueue(pkt)

    qdisc.__class__ = Patched
    assert Patched.admit_idle is Qdisc.admit_idle


class Outcome:
    def __init__(self):
        self.completed_at = None
        self.failed_at = None
        self.reason = None

    def on_complete(self, now):
        self.completed_at = now

    def on_fail(self, now, reason):
        self.failed_at = now
        self.reason = reason


def transfer(sim, client, server, nbytes=20_000, params=None, port=80):
    TcpListener(sim, server, port)
    outcome = Outcome()
    sender = TcpSender(sim, client, server.address, port, nbytes,
                       params=params, on_complete=outcome.on_complete,
                       on_fail=outcome.on_fail)
    sender.start()
    return sender, outcome


class TestHappyPath:
    def test_20kb_transfer_completes_in_about_310ms(self):
        """The paper's Section 5.3 number: 0.31 s for 20 KB over 60 ms RTT."""
        sim, client, server = two_hosts()
        _, outcome = transfer(sim, client, server)
        sim.run(until=5.0)
        assert outcome.completed_at is not None
        assert 0.25 < outcome.completed_at < 0.40

    def test_single_segment_transfer(self):
        sim, client, server = two_hosts()
        _, outcome = transfer(sim, client, server, nbytes=500)
        sim.run(until=2.0)
        assert outcome.completed_at == pytest.approx(0.12, abs=0.05)

    def test_large_transfer_completes(self):
        sim, client, server = two_hosts()
        _, outcome = transfer(sim, client, server, nbytes=500_000)
        sim.run(until=30.0)
        assert outcome.completed_at is not None

    def test_effective_throughput_at_most_533kbps(self):
        """TCP inefficiencies cap a 20 KB / 60 ms-RTT transfer at about
        533 Kb/s (Section 5)."""
        sim, client, server = two_hosts()
        _, outcome = transfer(sim, client, server)
        sim.run(until=5.0)
        throughput = 20_000 * 8 / outcome.completed_at
        assert throughput <= 533_000 * 1.05

    def test_concurrent_transfers_all_complete(self):
        sim, client, server = two_hosts()
        TcpListener(sim, server, 80)
        outcomes = [Outcome() for _ in range(5)]
        for outcome in outcomes:
            TcpSender(sim, client, server.address, 80, 20_000,
                      on_complete=outcome.on_complete,
                      on_fail=outcome.on_fail).start()
        sim.run(until=10.0)
        assert all(o.completed_at is not None for o in outcomes)

    def test_port_released_after_completion(self):
        sim, client, server = two_hosts()
        sender, outcome = transfer(sim, client, server, nbytes=1000)
        sim.run(until=2.0)
        assert outcome.completed_at is not None
        assert ("tcp", sender.src_port) not in client._handlers


class TestSynBehaviour:
    def test_syn_timeout_is_fixed_one_second(self):
        """No exponential backoff on SYNs (the paper's modification)."""
        sim = Simulator()
        client = Host(sim, "client", 1)  # no links: SYNs vanish
        outcome = Outcome()
        sender = TcpSender(sim, client, 2, 80, 1000,
                           on_fail=outcome.on_fail)
        sender.start()
        sim.run(until=20.0)
        # 1 original + 8 retries, 1 s apart -> failure at ~9 s.
        assert outcome.failed_at == pytest.approx(9.0, abs=0.1)
        assert outcome.reason == "syn-retries-exhausted"

    def test_syn_loss_recovers_on_retry(self):
        sim, client, server = two_hosts()
        # Drop the very first packet by filling the queue momentarily.
        dropped = []
        orig = client.links_out[0].qdisc.enqueue
        def drop_first(pkt):
            if not dropped:
                dropped.append(pkt)
                return False
            return orig(pkt)
        patch_enqueue(client.links_out[0], drop_first)
        _, outcome = transfer(sim, client, server)
        sim.run(until=5.0)
        assert outcome.completed_at is not None
        assert outcome.completed_at > 1.0  # paid one SYN timeout


class TestLossRecovery:
    def _lossy_link(self, link, lose_indices):
        """Deterministically drop the packets at the given send indices."""
        counter = {"i": -1}
        orig = link.qdisc.enqueue
        def enqueue(pkt):
            counter["i"] += 1
            if counter["i"] in lose_indices:
                return False
            return orig(pkt)
        patch_enqueue(link, enqueue)

    def test_fast_retransmit_recovers_quickly(self):
        sim, client, server = two_hosts()
        # Drop one mid-window data packet (index 3 = seg after SYN+2 data).
        self._lossy_link(client.links_out[0], {3})
        _, outcome = transfer(sim, client, server)
        sim.run(until=10.0)
        assert outcome.completed_at is not None

    def test_timeout_recovery(self):
        sim, client, server = two_hosts()
        # Drop a burst so dupacks cannot trigger fast retransmit.
        self._lossy_link(client.links_out[0], {1, 2, 3, 4})
        _, outcome = transfer(sim, client, server)
        sim.run(until=10.0)
        assert outcome.completed_at is not None
        assert outcome.completed_at > 1.0  # paid at least one RTO

    def test_total_blackhole_aborts(self):
        sim, client, server = two_hosts()
        # Let the handshake through, then drop all client data.
        counter = {"i": -1}
        orig = client.links_out[0].qdisc.enqueue
        def enqueue(pkt):
            counter["i"] += 1
            if counter["i"] >= 1:
                return False
            return orig(pkt)
        patch_enqueue(client.links_out[0], enqueue)
        _, outcome = transfer(sim, client, server)
        sim.run(until=300.0)
        assert outcome.failed_at is not None
        assert outcome.reason in ("max-transmissions", "rto-exceeded")

    def test_abort_conditions_match_paper(self):
        """Abort when RTO backoff exceeds 64 s or a packet is transmitted
        more than 10 times (Section 5)."""
        params = TcpParams()
        assert params.abort_rto == 64.0
        assert params.max_transmissions == 10
        assert params.syn_retries == 8
        assert params.syn_timeout == 1.0


class TestReceiver:
    def test_out_of_order_segments_reassembled(self):
        sim, client, server = two_hosts()
        listener = TcpListener(sim, server, 80)
        outcome = Outcome()
        TcpSender(sim, client, server.address, 80, 10_000,
                  on_complete=outcome.on_complete).start()
        sim.run(until=5.0)
        assert outcome.completed_at is not None
        assert listener.segments_received >= 10

    def test_duplicate_syn_keeps_one_connection(self):
        sim, client, server = two_hosts()
        listener = TcpListener(sim, server, 80)
        from repro.sim import Packet
        from repro.transport.tcp import FLAG_SYN, TcpSegment

        for _ in range(3):
            syn = Packet(src=1, dst=2, size=40, proto="tcp",
                         tcp=TcpSegment(1234, 80, flags=FLAG_SYN))
            client.send(syn)
        sim.run(until=1.0)
        assert listener.accepted == 1

    def test_data_for_unknown_connection_ignored(self):
        sim, client, server = two_hosts()
        listener = TcpListener(sim, server, 80)
        from repro.sim import Packet
        from repro.transport.tcp import FLAG_ACK, TcpSegment

        data = Packet(src=1, dst=2, size=1040, proto="tcp",
                      tcp=TcpSegment(999, 80, flags=FLAG_ACK, seq=0, length=1000))
        client.send(data)
        sim.run(until=1.0)
        assert listener.segments_received == 0


class TestCongestionControl:
    def test_cwnd_grows_in_slow_start(self):
        sim, client, server = two_hosts()
        sender, outcome = transfer(sim, client, server, nbytes=50_000)
        sim.run(until=0.5)
        assert sender.cwnd > sender.params.initial_cwnd

    def test_bottleneck_limits_are_respected(self):
        """Over a slow link the transfer is pacing-bound, not instant."""
        sim, client, server = two_hosts(bandwidth_bps=1e6)
        _, outcome = transfer(sim, client, server, nbytes=100_000)
        sim.run(until=30.0)
        assert outcome.completed_at is not None
        # 100 KB over 1 Mb/s is at least 0.8 s of pure serialization.
        assert outcome.completed_at > 0.8

    def test_rejects_empty_transfer(self):
        sim, client, server = two_hosts()
        with pytest.raises(ValueError):
            TcpSender(sim, client, 2, 80, 0)

    def test_start_twice_raises(self):
        sim, client, server = two_hosts()
        sender, _ = transfer(sim, client, server)
        with pytest.raises(RuntimeError):
            sender.start()
