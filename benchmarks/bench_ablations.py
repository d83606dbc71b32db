"""Ablations of TVA's design choices (DESIGN.md's list).

Each ablation removes one mechanism from TVA and re-runs the relevant
attack, showing the mechanism is load-bearing:

* request channel fraction (1% vs 5%) — Section 3.2's knob;
* path-identifier fair queuing of requests vs one FIFO request queue —
  without per-path queues a request flood starves legitimate requests;
* per-destination vs per-source fair queuing of authorized traffic under
  the Section 7 spoofed-source attack;
* fine-grained (N, T) capabilities vs effectively-unbounded grants under
  the Figure 11 imprecise-policy attack.
"""

import random

from conftest import DURATION, horizon

from repro.api import ExperimentConfig, ScenarioSpec, run_spec
from repro.core import OraclePolicy, ServerPolicy, TvaScheme
from repro.core.params import SERVER_GRANT_BYTES
from repro.sim import Simulator, TransferLog, build_dumbbell
from repro.transport import CbrFlood, PacketSink, RepeatingTransferClient, TcpListener


def _tva_run(n_attackers, attack, scheme_kwargs, duration=None,
             destination_policy=None, seed=1):
    """Run a dumbbell attack scenario against a customized TvaScheme."""
    duration = duration or DURATION
    sim = Simulator()
    policy = destination_policy or (
        lambda: ServerPolicy(default_grant=(SERVER_GRANT_BYTES, 10))
    )
    scheme = TvaScheme(request_fraction=0.01, destination_policy=policy,
                       seed=seed, **scheme_kwargs)
    net = build_dumbbell(sim, scheme, n_users=10, n_attackers=n_attackers)
    log = TransferLog()
    TcpListener(sim, net.destination, 80)
    PacketSink(net.destination, "cbr")
    PacketSink(net.colluder, "cbr")
    rng = random.Random(seed)
    for user in net.users:
        RepeatingTransferClient(sim, user, net.destination.address, 80,
                                nbytes=20_000, log=log,
                                start_at=rng.uniform(0, 0.3), stop_at=duration)
    target = net.colluder if attack == "colluder" else net.destination
    mode = {"legacy": "legacy", "request": "request",
            "colluder": "shim", "authorized": "shim"}[attack]
    for i, attacker in enumerate(net.attackers):
        CbrFlood(sim, attacker, target.address, rate_bps=1e6, pkt_size=1000,
                 mode=mode, start_at=rng.uniform(0, 0.01), jitter=0.3,
                 rng=random.Random(seed * 100 + i))
    sim.run(until=duration)
    return scheme, net, log


def test_ablation_request_fraction(bench_once, benchmark):
    """1% vs 5% request channel: both keep request floods harmless; the
    bigger channel admits more requests but also burns more bandwidth."""
    def run():
        out = {}
        for fraction in (0.01, 0.05):
            config = ExperimentConfig(duration=DURATION,
                                      request_fraction=fraction)
            run = run_spec(ScenarioSpec("tva", "request", 40, config=config))
            out[fraction] = (run.fraction_completed, run.avg_transfer_time)
        return out

    out = bench_once(run)
    print()
    print("Ablation: request channel fraction under a 40-attacker request flood")
    for fraction, (frac, avg) in sorted(out.items()):
        print(f"  {fraction:.0%} channel: completion {frac:.2f}, avg {avg:.2f}s")
    assert all(frac == 1.0 for frac, _ in out.values())


class _NoRenewalPolicy(ServerPolicy):
    """Grants small budgets and refuses renewals, forcing senders back to
    the request channel regularly — which is what makes the request
    channel's internals observable."""

    def authorize(self, src, now, renewal=False):
        if renewal:
            return None
        return super().authorize(src, now, renewal)


def test_ablation_request_fair_queuing(bench_once, benchmark):
    """Without per-path-identifier fair queuing, a request flood crowds
    legitimate requests out of the (rate-limited) FIFO request queue.
    Users here must re-request every couple of transfers (small grants,
    no renewals), so request-channel health shows in their times."""
    def run(fair):
        # Dead-caps inference off: with tiny no-renewal grants, budget-edge
        # demotions would otherwise trip it and muddy the comparison.
        _, _, log = _tva_run(
            40, "request",
            {"request_fair_queue": fair, "infer_dead_caps": False},
            destination_policy=lambda: _NoRenewalPolicy(
                default_grant=(24 * 1024, 10)),
        )
        return log.fraction_completed(horizon()), log.average_completion_time()

    with_fq = bench_once(run, True)
    without_fq = run(False)
    print()
    print("Ablation: request fair queuing under a 40-attacker request flood")
    print(f"  per-path-id DRR : completion {with_fq[0]:.2f}, avg {with_fq[1]:.2f}s")
    print(f"  single FIFO     : completion {without_fq[0]:.2f}, "
          f"avg {'-' if without_fq[1] is None else f'{without_fq[1]:.2f}'}s")
    # Even fair-queued, re-requesting users pay real delay (the 1% channel
    # is round-robined over ~40 attacker queues), but they complete far
    # more often than through a FIFO the flood owns.  (Average times are
    # survivor-biased here: the FIFO's slowest transfers never complete.)
    assert with_fq[0] > without_fq[0] + 0.1


def test_ablation_queue_key_under_spoofing(bench_once, benchmark):
    """Section 7's attack on per-source queuing: attackers spoof a victim
    sender's address toward a colluder, so per-source fair queuing lumps
    the victim with the flood.  Per-destination queuing (the default)
    isolates by where traffic is *going* and is unaffected."""
    def run(key):
        sim = Simulator()
        scheme = TvaScheme(request_fraction=0.01, regular_queue_key=key,
                           destination_policy=lambda: ServerPolicy(
                               default_grant=(SERVER_GRANT_BYTES, 10)))
        net = build_dumbbell(sim, scheme, n_users=10, n_attackers=20)
        log = TransferLog()
        TcpListener(sim, net.destination, 80)
        PacketSink(net.colluder, "cbr")
        rng = random.Random(1)
        victim = net.users[0]
        for user in net.users:
            RepeatingTransferClient(sim, user, net.destination.address, 80,
                                    nbytes=20_000, log=log,
                                    start_at=rng.uniform(0, 0.3),
                                    stop_at=DURATION)
        # Attackers flood the colluder *spoofing the victim's address*.
        # Section 7: "the attacker sends requests to the colluder with S's
        # address as the source address, and the colluder returns the list
        # of capabilities to the attacker's real address."  The collusion
        # is out of band, so we model the colluder continuously
        # re-authorizing (the paper lets colluders authorize attackers "at
        # their maximum rate"): every 0.3 s fresh capabilities for
        # (victim -> colluder) are installed into the attackers' shims.
        from repro.core import capability_from_precapability, mint_precapability
        from repro.core.host import _SenderState

        grant_n, grant_t = 1023 * 1024, 10

        def sync_collusion():
            caps = []
            for name in ("R1", "R2"):  # path order victim -> colluder
                core = scheme.router_cores[name]
                pre = mint_precapability(core.secrets, victim.address,
                                         net.colluder.address, sim.now)
                caps.append(capability_from_precapability(pre, grant_n, grant_t))
            nonce = rng.getrandbits(48)
            for attacker in net.attackers:
                state = _SenderState()
                state.caps = list(caps)
                state.n_bytes = grant_n
                state.t_seconds = grant_t
                state.granted_at = sim.now
                state.nonce = nonce
                state.need_caps = True
                attacker.shim._sender[net.colluder.address] = state
            sim.after(0.3, sync_collusion)

        sim.at(0.2, sync_collusion)

        for i, attacker in enumerate(net.attackers):
            flood = CbrFlood(sim, attacker, net.colluder.address,
                             rate_bps=1e6, pkt_size=1000, mode="shim",
                             start_at=0.3 + rng.uniform(0, 0.01), jitter=0.3,
                             rng=random.Random(100 + i))
            original = flood._packet

            def spoofed(size, shim=None, _orig=original, _victim=victim):
                pkt = _orig(size, shim)
                pkt.src = _victim.address
                return pkt

            flood._packet = spoofed
        sim.run(until=DURATION)
        victim_records = [r for r in log.records if r.src == victim.address]
        done = [r for r in victim_records if r.completed]
        frac = len(done) / max(1, len(
            [r for r in victim_records
             if r.end is not None or r.aborted or r.start <= horizon()]))
        return frac

    per_destination = bench_once(run, "destination")
    per_source = run("source")
    print()
    print("Ablation: fair-queuing key under the spoofed-source attack")
    print(f"  per-destination (default): victim completion {per_destination:.2f}")
    print(f"  per-source               : victim completion {per_source:.2f}")
    # "This attack has little effect ... if per-destination queueing is
    # used, which is TVA's default."
    assert per_destination > per_source or per_destination == 1.0


def test_ablation_fine_grained_vs_unbounded_grants(bench_once, benchmark):
    """Figure 11's mechanism isolated: with the paper's 32 KB grants an
    authorized flood self-limits in seconds; grant ~1 MB (the field max)
    instead and the same attack starves users for most of the run."""
    suspects = set(range(11, 51))

    def run(grant_bytes):
        policy = lambda: OraclePolicy(suspects, default_grant=(grant_bytes, 10))
        _, _, log = _tva_run(40, "authorized", {}, duration=20.0,
                             destination_policy=policy)
        return log.completed, log.average_completion_time()

    fine = bench_once(run, 32 * 1024)
    coarse = run(1023 * 1024)
    print()
    print("Ablation: grant size under the imprecise-policy attack (40 attackers)")
    print(f"  32 KB grants   : {fine[0]} transfers completed, avg {fine[1]:.2f}s")
    print(f"  1023 KB grants : {coarse[0]} transfers completed, avg {coarse[1]:.2f}s")
    # Fine-grained budgets choke the attack in ~2 s; near-unbounded grants
    # let it squat on the shared destination queue for most of the run.
    assert fine[0] > coarse[0] * 1.5
    assert fine[1] < coarse[1]
