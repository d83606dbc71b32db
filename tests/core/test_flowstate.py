"""Tests for the bounded router state table — the Section 3.6 algorithm.

The key invariants, each proven in the paper and checked here:

* a capability is charged at most N bytes while a single record lives;
* across record reclamations, at most 2N bytes total can be charged
  within the capability's T-second lifetime;
* the table never holds more than C/(N/T)min live records.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Capability, FlowStateTable, TvaParams


CAP = Capability(0, 1234)


def make_table(capacity=100):
    return FlowStateTable(capacity)


def create(table, flow=(1, 2), nonce=7, n=10_000, t=10, now=0.0):
    return table.create(flow, nonce, CAP, n, t, now)


class TestBasics:
    def test_create_and_lookup(self):
        table = make_table()
        entry = create(table)
        assert table.lookup((1, 2), 0.0) is entry
        assert len(table) == 1

    def test_lookup_missing(self):
        assert make_table().lookup((9, 9), 0.0) is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlowStateTable(0)

    def test_charge_within_budget(self):
        table = make_table()
        entry = create(table, n=3000)
        assert table.charge(entry, 1000, 0.0)
        assert table.charge(entry, 2000, 0.0)
        assert entry.byte_count == 3000

    def test_charge_beyond_n_refused(self):
        """Routers check that the capability is not used for more than N
        bytes (Section 3.5)."""
        table = make_table()
        entry = create(table, n=2500)
        assert table.charge(entry, 1000, 0.0)
        assert table.charge(entry, 1000, 0.0)
        assert not table.charge(entry, 1000, 0.0)
        assert entry.byte_count == 2000

    def test_replace_resets_budget(self):
        table = make_table()
        entry = create(table, n=2000)
        table.charge(entry, 2000, 0.0)
        fresh = table.replace(entry, nonce=8, capability=CAP, n_bytes=2000,
                              t_seconds=10, now=1.0)
        assert fresh.byte_count == 0
        assert table.lookup((1, 2), 1.0) is fresh

    def test_remove(self):
        table = make_table()
        create(table)
        table.remove((1, 2))
        assert table.lookup((1, 2), 0.0) is None


class TestTtl:
    def test_ttl_is_time_equivalent_of_bytes(self):
        """ttl grows by L * T / N per charged packet (Section 3.6)."""
        table = make_table()
        entry = create(table, n=10_000, t=10, now=0.0)
        table.charge(entry, 1000, 0.0)  # 1000 * 10 / 10000 = 1 second
        assert entry.ttl_expiry == pytest.approx(1.0)
        table.charge(entry, 2000, 0.0)
        assert entry.ttl_expiry == pytest.approx(3.0)

    def test_slow_flow_state_expires(self):
        """A flow sending slower than N/T loses its record — by design."""
        table = make_table()
        entry = create(table, n=10_000, t=10, now=0.0)
        table.charge(entry, 1000, 0.0)  # ttl until t=1
        assert table.lookup((1, 2), 0.5) is entry
        assert table.lookup((1, 2), 1.5) is None

    def test_fast_flow_state_persists(self):
        """A flow sending faster than N/T keeps extending its ttl."""
        table = make_table()
        entry = create(table, n=10_000, t=10, now=0.0)
        now = 0.0
        for _ in range(5):
            assert table.charge(entry, 2000, now)  # +2 s of ttl each
            now += 1.0
            assert table.lookup((1, 2), now) is entry

    def test_ttl_extends_from_now_after_idle(self):
        """After idling below the expiry the ttl extends from now, not from
        the stale expiry, matching the decrement-as-time-passes model."""
        table = make_table()
        entry = create(table, n=10_000, t=10, now=0.0)
        table.charge(entry, 1000, 0.0)  # expiry 1.0
        table.charge(entry, 1000, 0.5)  # expiry 2.0 (max(1.0, 0.5) + 1)
        assert entry.ttl_expiry == pytest.approx(2.0)


class TestCapacity:
    def test_expired_records_are_reclaimed_under_pressure(self):
        table = make_table(capacity=2)
        a = create(table, flow=(1, 2), n=10_000, t=10, now=0.0)
        table.charge(a, 1000, 0.0)  # expires at 1.0
        b = create(table, flow=(3, 4), n=10_000, t=10, now=0.0)
        table.charge(b, 5000, 0.0)  # expires at 5.0
        # At t=2, a's record is reclaimable and c fits.
        c = table.create((5, 6), 9, CAP, 10_000, 10, 2.0)
        assert c is not None
        assert table.lookup((1, 2), 2.0) is None
        assert table.lookup((3, 4), 2.0) is b

    def test_create_fails_when_all_records_live(self):
        table = make_table(capacity=1)
        a = create(table, flow=(1, 2), n=10_000, t=10, now=0.0)
        table.charge(a, 10_000, 0.0)  # ttl 10 s: live until t=10
        assert table.create((3, 4), 9, CAP, 10_000, 10, 1.0) is None
        assert table.create_failures == 1

    def test_state_bound_formula(self):
        """Section 3.6's example: gigabit link, (N/T)min = 4KB/10s ->
        312,500 records; 100 B each fits in 32 MB."""
        params = TvaParams()
        records = params.state_bound_records(1e9)
        assert records == 312_500
        assert records * 100 <= 32 * 1024 * 1024


class TestExpiryHeap:
    """Regression: the lazy-deletion expiry heap used to grow with every
    charge — O(packets) memory on a table meant to bound router state."""

    def _bound(self, table):
        return max(table._HEAP_FLOOR, table._HEAP_RATIO * len(table))

    def test_heap_stays_bounded_under_sustained_charging(self):
        table = make_table(capacity=10)
        entries = [
            create(table, flow=(i, i + 1), n=10**9, t=10, now=0.0)
            for i in range(3)
        ]
        now = 0.0
        for _ in range(2000):
            for entry in entries:
                assert table.charge(entry, 1500, now)
            now += 0.001
            assert table.heap_size <= self._bound(table)

    def test_reclamation_still_works_after_compaction(self):
        table = make_table(capacity=2)
        a = create(table, flow=(1, 2), n=10_000, t=10, now=0.0)
        # Enough charges to exercise the heap maintenance; a's ttl reaches
        # ~10 s (10 kB * 10 s / 10 kB), so it stays live below.
        for i in range(100):
            assert table.charge(a, 100, i * 0.001)
        b = create(table, flow=(3, 4), n=10_000, t=10, now=1.0)
        table.charge(b, 1000, 1.0)  # b expires at 2.0
        # At t=3, b is reclaimable; a (huge ttl) is not.
        c = table.create((5, 6), 9, CAP, 10_000, 10, 3.0)
        assert c is not None
        assert table.lookup((3, 4), 3.0) is None
        assert table.lookup((1, 2), 3.0) is a
        assert table.reclaimed_total >= 1

    def test_metric_counters_track_lifecycle(self):
        table = make_table(capacity=1)
        a = create(table, flow=(1, 2), n=10_000, t=10, now=0.0)
        table.charge(a, 10_000, 0.0)  # live until t=10
        assert table.create((3, 4), 9, CAP, 10_000, 10, 1.0) is None
        assert table.created_total == 1
        assert table.create_failures == 1
        assert table.heap_size >= 1


class TestTwoNBound:
    """The paper's theorem: at most 2N bytes can be charged to one
    capability before it expires, no matter how state is reclaimed."""

    def _drive(self, sends, n=10_000, t=10):
        """Simulate a router charging ``sends`` = [(time, nbytes)] for one
        capability; state is recreated whenever it lapsed.  Returns total
        bytes accepted within the capability's lifetime [0, t]."""
        table = make_table(capacity=4)
        total = 0
        entry = None
        for now, nbytes in sends:
            if now > t:
                break  # capability expired; router would refuse anyway
            if entry is not None and table.lookup(entry.flow, now) is None:
                entry = None
            if entry is None:
                entry = table.create((1, 2), 7, CAP, n, t, now)
                if entry is None:
                    continue
            if table.charge(entry, nbytes, now):
                total += nbytes
        return total

    def test_greedy_sender_bounded_by_2n(self):
        # Blast as fast as possible: get N quickly, state persists, no more.
        sends = [(i * 0.01, 1500) for i in range(2000)]
        assert self._drive(sends) <= 2 * 10_000

    def test_stop_and_go_sender_bounded_by_2n(self):
        # Alternate bursts with idle gaps that let the record lapse.
        sends = []
        now = 0.0
        for _ in range(20):
            for _ in range(4):
                sends.append((now, 1500))
                now += 0.001
            now += 2.0  # idle long enough to lapse
        assert self._drive(sends) <= 2 * 10_000

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
                st.integers(40, 1500),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_2n_bound_property(self, raw_sends):
        sends = sorted(raw_sends)
        assert self._drive(sends) <= 2 * 10_000
