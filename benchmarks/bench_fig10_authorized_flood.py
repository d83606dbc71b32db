"""Figure 10 — authorized floods via a colluder.

Paper result: TVA's per-destination fair queuing splits the bottleneck
between the colluder and the destination, so all transfers complete and
the time rises only slightly (0.31 s -> 0.33 s in the paper).  SIFF's
legitimate users are "completely starved when the intensity of the attack
exceeds the bottleneck bandwidth".  Pushback and the Internet behave as
under legacy floods.
"""

from conftest import DURATION, SWEEP, print_flood_table, sweep_rows

from repro.api import ExperimentConfig, SweepRunner, build_flood_specs


def _sweep(scheme):
    specs = build_flood_specs("colluder", (scheme,), SWEEP,
                              ExperimentConfig(duration=DURATION))
    return sweep_rows(SweepRunner(jobs=1).run(specs))


def _bench(bench_once, benchmark, scheme):
    rows = bench_once(_sweep, scheme)
    print_flood_table(f"Figure 10 (authorized flood at colluder) — {scheme}", rows)
    benchmark.extra_info["rows"] = [
        (k, round(frac, 3), None if avg is None else round(avg, 3))
        for _, k, frac, avg in rows
    ]
    return rows


def test_fig10_tva(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "tva")
    assert all(frac == 1.0 for _, _, frac, _ in rows)
    # Slight increase from the halved share, never starvation.
    assert all(avg < 0.8 for _, _, _, avg in rows)


def test_fig10_siff(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "siff")
    by_k = {k: frac for _, k, frac, _ in rows}
    assert by_k[1] == 1.0          # 1 Mb/s attack: under the bottleneck
    assert by_k[10] < 0.2          # at the bottleneck rate: starved
    assert by_k[100] < 0.2


def test_fig10_internet(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "internet")
    by_k = {k: frac for _, k, frac, _ in rows}
    assert by_k[100] < 0.2


def test_fig10_pushback(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "pushback")
    by_k = {k: frac for _, k, frac, _ in rows}
    assert by_k[100] < 0.3
