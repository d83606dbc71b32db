"""End-to-end recovery from scheduled router reboots (Section 3.8).

These drive the reboot through the fault-injection subsystem — schedule,
injector, scheme hook — rather than poking ``core.restart`` directly, so
they pin the whole path a ``repro dynamics`` run exercises.
"""

from repro.core import TvaKnobs, TvaScheme
from repro.faults import FaultInjector, FaultSchedule, RouterReboot
from repro.sim import Simulator, TransferLog, chain_spec, instantiate
from repro.transport import RepeatingTransferClient, TcpListener


def make_tva_net():
    sim = Simulator()
    scheme = TvaScheme(TvaKnobs(request_fraction=0.05,
                                server_grant=(256 * 1024, 10)))
    net = instantiate(chain_spec(n_routers=2, link_bps=10e6), sim, scheme)
    return sim, scheme, net


def test_demoted_sender_rerequests_and_recovers():
    """A reboot that rotates the secret kills the sender's capabilities.
    The sender sees the demotion echo, falls back to a fresh request, and
    re-establishes service well within the run."""
    sim, scheme, net = make_tva_net()
    TcpListener(sim, net.destination, 80)
    log = TransferLog()
    client = RepeatingTransferClient(sim, net.users[0],
                                     net.destination.address, 80,
                                     nbytes=20_000, log=log, stop_at=8.0)
    injector = FaultInjector(FaultSchedule((
        RouterReboot(at=2.0, router="R1", rotate_secret=True),
    )))
    injector.install(sim, net, scheme)
    sim.run(until=8.0)

    assert injector.reboots == 1
    core = scheme.router_cores["R1"]
    assert core.restarts == 1

    user_shim = net.users[0].shim
    # The reboot demoted in-flight traffic and the destination echoed it.
    assert user_shim.demotions_seen >= 1
    # Recovery went through a fresh request, not just cap revalidation.
    assert user_shim.requests_sent >= 2
    # Service resumed: transfers keep completing after the fault...
    assert client.completed > 10
    # ...and the post-recovery tail runs at pre-fault speed.  20 kB over
    # a 10 Mb/s chain takes ~32 ms unloaded; anything under 0.4 s means
    # capabilities are back (demoted traffic under load would crawl).
    tail = [d for s, d in log.time_series() if s > 4.0]
    assert tail and sum(tail) / len(tail) < 0.4


def test_reboot_keeping_secret_needs_no_new_request():
    """Flow-cache loss alone demotes one packet; the sender's next
    caps-bearing packet revalidates without a fresh handshake."""
    sim, scheme, net = make_tva_net()
    TcpListener(sim, net.destination, 80)
    log = TransferLog()
    RepeatingTransferClient(sim, net.users[0], net.destination.address, 80,
                            nbytes=20_000, log=log, stop_at=6.0)
    injector = FaultInjector(FaultSchedule((
        RouterReboot(at=2.0, router="R1", rotate_secret=False),
    )))
    injector.install(sim, net, scheme)
    sim.run(until=6.0)

    assert scheme.router_cores["R1"].restarts == 1
    assert log.fraction_completed(4.0) == 1.0
    assert log.average_completion_time() < 0.6


def test_reboot_seed_rotation_is_deterministic():
    """Two identical runs derive the identical post-reboot secret: the
    rotation seed comes from the scheme seed and restart count, never
    from wall-clock or ids."""
    def run_once():
        sim, scheme, net = make_tva_net()
        TcpListener(sim, net.destination, 80)
        log = TransferLog()
        RepeatingTransferClient(sim, net.users[0], net.destination.address,
                                80, nbytes=20_000, log=log, stop_at=6.0)
        injector = FaultInjector(FaultSchedule((
            RouterReboot(at=2.0, router="R1"),
        )))
        injector.install(sim, net, scheme)
        sim.run(until=6.0)
        return log.time_series()

    assert run_once() == run_once()
