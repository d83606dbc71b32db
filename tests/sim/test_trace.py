"""Tests for the measurement instrumentation."""

import pytest

from repro.sim import TransferLog


def test_empty_log():
    log = TransferLog()
    assert log.attempted == 0
    assert log.fraction_completed() == 0.0
    assert log.average_completion_time() is None
    assert log.time_series() == []
    assert len(log) == 0


def test_completed_transfer_metrics():
    log = TransferLog()
    rec = log.open(1, 2, 20_000, start=1.0)
    rec.end = 1.31
    assert log.completed == 1
    assert log.fraction_completed() == 1.0
    assert log.average_completion_time() == pytest.approx(0.31)
    series = log.time_series()
    assert len(series) == 1
    assert series[0][0] == 1.0
    assert series[0][1] == pytest.approx(0.31)


def test_aborted_transfer_counts_against():
    log = TransferLog()
    rec = log.open(1, 2, 20_000, start=1.0)
    rec.aborted = True
    ok = log.open(1, 2, 20_000, start=2.0)
    ok.end = 2.3
    assert log.attempted == 2
    assert log.fraction_completed() == 0.5


def test_in_flight_ignored_without_horizon():
    log = TransferLog()
    log.open(1, 2, 20_000, start=1.0)  # never finishes
    assert log.attempted == 0
    assert log.fraction_completed() == 0.0


def test_horizon_counts_hanging_transfers_as_denied():
    log = TransferLog()
    log.open(1, 2, 20_000, start=1.0)   # hung, started early
    log.open(1, 2, 20_000, start=9.9)   # hung, started at window edge
    ok = log.open(1, 2, 20_000, start=2.0)
    ok.end = 2.31
    assert log.attempted_by(8.0) == 2   # early-hung + completed
    assert log.fraction_completed(8.0) == 0.5


def test_average_over_completed_only():
    log = TransferLog()
    a = log.open(1, 2, 1, start=0.0)
    a.end = 1.0
    b = log.open(1, 2, 1, start=0.0)
    b.aborted = True
    assert log.average_completion_time() == 1.0


def test_time_series_sorted_by_start():
    log = TransferLog()
    late = log.open(1, 2, 1, start=5.0)
    late.end = 5.5
    early = log.open(1, 2, 1, start=1.0)
    early.end = 1.2
    series = log.time_series()
    assert [s for s, _ in series] == [1.0, 5.0]
    assert series[0][1] == pytest.approx(0.2)
    assert series[1][1] == pytest.approx(0.5)
