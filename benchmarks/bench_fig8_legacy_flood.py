"""Figure 8 — legacy packet floods.

Paper result: TVA keeps the completion fraction at ~100% and the transfer
time ~0.31 s across 1-100 attackers.  SIFF's transfer times rise and its
completion fraction falls once the flood exceeds the bottleneck (requests
are legacy-priority; completion ~= 1 - p^9).  Pushback holds until the
attack is too diffuse to identify (~40 attackers), then collapses.  The
legacy Internet's completion fraction "quickly approaches zero".
"""

from conftest import DURATION, SWEEP, print_flood_table, sweep_rows

from repro.api import ExperimentConfig, SweepRunner, build_flood_specs


def _sweep(scheme):
    specs = build_flood_specs("legacy", (scheme,), SWEEP,
                              ExperimentConfig(duration=DURATION))
    return sweep_rows(SweepRunner(jobs=1).run(specs))


def _bench(bench_once, benchmark, scheme):
    rows = bench_once(_sweep, scheme)
    print_flood_table(f"Figure 8 (legacy flood) — {scheme}", rows)
    benchmark.extra_info["rows"] = [
        (k, round(frac, 3), None if avg is None else round(avg, 3))
        for _, k, frac, avg in rows
    ]
    return rows


def test_fig8_tva(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "tva")
    assert all(frac == 1.0 for _, _, frac, _ in rows)
    assert all(avg < 0.45 for _, _, _, avg in rows)


def test_fig8_siff(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "siff")
    by_k = {k: (frac, avg) for _, k, frac, avg in rows}
    # Under the bottleneck rate SIFF is fine; at 10x it degrades sharply.
    assert by_k[1][0] == 1.0
    assert by_k[100][0] < 0.8
    assert by_k[100][1] is None or by_k[100][1] > 1.0


def test_fig8_pushback(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "pushback")
    by_k = {k: (frac, avg) for _, k, frac, avg in rows}
    assert by_k[10][0] > 0.8       # effective while identifiable
    assert by_k[100][0] < 0.3      # collapses when diffuse


def test_fig8_internet(bench_once, benchmark):
    rows = _bench(bench_once, benchmark, "internet")
    by_k = {k: (frac, avg) for _, k, frac, avg in rows}
    assert by_k[1][0] == 1.0
    assert by_k[40][0] < 0.2
    assert by_k[100][0] < 0.1
