"""Figure 11 — imprecise authorization policies.

Paper result: when a destination grants all first requests (32 KB / 10 s)
but stops renewing flooders, TVA's fine-grained byte budget makes both the
high-intensity (100 at once) and low-intensity (10 groups, one after the
other) attacks "effective for less than 5 seconds".  SIFF, whose
authorizations die only with the (3-second) router secret, suffers ~4 s
extra transfer time under the high-intensity attack and ~30 seconds of
disruption under the staggered one — within each 3 s window "all
legitimate requests are blocked until the next transition".
"""

from repro.api import FIGURES

#: ``repro fig11``'s attack start (a fixed argument of its grid).
ATTACK_START = dict(FIGURES["fig11"].fixed)["attack_start"]


def _run(scheme, pattern):
    # The repro fig11 run at its defaults: 100 attackers, a 50 s window.
    return FIGURES["fig11"].run(scheme=scheme, pattern=pattern)


def _report(result):
    print()
    print(f"Figure 11 — {result.scheme}, {result.pattern}")
    print(f"  completed transfers : {len(result.series)}")
    print(f"  max transfer time   : {result.max_transfer_time():.2f} s")
    print(f"  disruption ends at  : {result.disruption_end():.1f} s "
          f"(attack starts at {ATTACK_START:.0f} s)")
    gaps = [(round(a, 1), round(b, 1)) for a, b in result.completion_gaps()]
    print(f"  completion gaps     : {gaps}")


def test_fig11_tva_all_at_once(bench_once, benchmark):
    result = bench_once(_run, "tva", "all_at_once")
    _report(result)
    benchmark.extra_info["effective_s"] = round(result.effective_attack_seconds(), 2)
    # The 2N byte bound drains the whole attack in a few seconds.
    gaps = [g for g in result.completion_gaps() if g[0] >= ATTACK_START]
    assert gaps, "the attack should cause one visible outage"
    outage = gaps[0][1] - gaps[0][0]
    assert outage < 5.0
    # Service is fully restored afterwards.
    post = [d for s, d in result.series if s > ATTACK_START + 15]
    assert post and sum(post) / len(post) < 0.5


def test_fig11_tva_staggered(bench_once, benchmark):
    result = bench_once(_run, "tva", "staggered")
    _report(result)
    benchmark.extra_info["effective_s"] = round(result.effective_attack_seconds(), 2)
    gaps = [g for g in result.completion_gaps() if g[0] >= ATTACK_START]
    total_outage = sum(b - a for a, b in gaps)
    assert total_outage < 5.0


def test_fig11_siff_all_at_once(bench_once, benchmark):
    result = bench_once(_run, "siff", "all_at_once")
    _report(result)
    benchmark.extra_info["max_t"] = round(result.max_transfer_time(), 2)
    # One secret-rotation window of total blocking, several seconds of
    # elevated transfer times.
    assert result.max_transfer_time() > 3.0


def test_fig11_siff_staggered(bench_once, benchmark):
    result = bench_once(_run, "siff", "staggered")
    _report(result)
    end = result.disruption_end()
    benchmark.extra_info["disruption_end_s"] = round(end, 2)
    # Ten groups x one 3 s secret window each: disruption persists for
    # tens of seconds (the paper reports ~30 s).
    assert end - ATTACK_START > 20.0
