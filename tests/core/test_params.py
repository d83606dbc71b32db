"""Tests pinning the paper's architectural constants."""

from repro.core import TvaParams
from repro.core.params import (
    DEFAULT_GRANT_BYTES,
    DEFAULT_GRANT_SECONDS,
    HASH_BITS,
    N_FIELD_BITS,
    N_MAX_BYTES,
    NT_MIN_BYTES,
    NT_MIN_SECONDS,
    REQUEST_FRACTION_SIM,
    SECRET_PERIOD,
    T_FIELD_BITS,
    T_MAX_SECONDS,
    TIMESTAMP_BITS,
    TIMESTAMP_MODULO,
)


def test_capability_is_64_bits_per_router():
    assert TIMESTAMP_BITS + HASH_BITS == 64


def test_timestamp_is_modulo_256_seconds_clock():
    assert TIMESTAMP_MODULO == 256


def test_secret_changes_at_twice_timestamp_rollover_rate():
    assert SECRET_PERIOD == TIMESTAMP_MODULO / 2


def test_t_max_at_most_half_rollover():
    """Required so modulo time comparison is unambiguous (Section 3.5)."""
    assert T_MAX_SECONDS <= TIMESTAMP_MODULO / 2


def test_field_widths_match_figure5():
    assert N_FIELD_BITS == 10
    assert T_FIELD_BITS == 6
    assert N_MAX_BYTES == 1023 * 1024


def test_request_fractions():
    # Section 5's simulations, not Section 3.2's 5 % cap.
    assert REQUEST_FRACTION_SIM == 0.01


def test_default_grant_is_section54s():
    assert DEFAULT_GRANT_BYTES == 32 * 1024
    assert DEFAULT_GRANT_SECONDS == 10


def test_state_bound_gigabit_example():
    """Section 3.6: gigabit line, 4 KB / 10 s floor -> 312,500 records."""
    params = TvaParams()
    assert NT_MIN_BYTES == 4000
    assert NT_MIN_SECONDS == 10.0
    assert params.state_bound_records(1e9) == 312_500


def test_state_bound_scales_linearly():
    params = TvaParams()
    assert params.state_bound_records(1e8) == 31_250
