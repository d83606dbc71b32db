"""Shared benchmark scale knobs.

Every figure benchmark runs the paper's scenario at reduced scale by
default so the whole suite regenerates in minutes.  Set
``REPRO_BENCH_SCALE=full`` for longer measurement windows and the full
attacker sweep (closer to the paper's 1000-transfers-per-user runs).
"""

import os

import pytest

FULL = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "full"

#: Simulated seconds of measurement per sweep point.
DURATION = 40.0 if FULL else 12.0

#: Attacker counts for the Figure 8-10 sweeps.
SWEEP = (1, 2, 4, 10, 20, 40, 100) if FULL else (1, 10, 40, 100)


@pytest.fixture
def bench_once(benchmark):
    """Run a scenario exactly once under pytest-benchmark timing."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run


def sweep_rows(runs):
    """RunResults -> the (scheme, k, fraction, avg_time) rows the
    figure benchmarks print and assert on."""
    return [(r.scheme, r.n_attackers, r.fraction_completed,
             r.avg_transfer_time) for r in runs]


def print_flood_table(title, rows):
    """rows: iterable of (scheme, k, fraction, avg_time)."""
    print()
    print(title)
    print(f"{'scheme':9s} {'k':>4s} {'frac':>6s} {'avg(s)':>8s}")
    for scheme, k, frac, avg in rows:
        avg_s = "   -  " if avg is None else f"{avg:6.2f}"
        print(f"{scheme:9s} {k:4d} {frac:6.2f} {avg_s:>8s}")
