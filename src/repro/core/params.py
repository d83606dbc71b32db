"""Architectural constants of TVA (Sections 3-4 of the paper).

Everything here is a paper-stated value.  Where Section 3's design and
Section 5's simulations differ, the simulations' value is the default: a
scheme knob has one default, and every run — library or harness — starts
from it (e.g. requests get 1% of each link, not the 5% cap).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fraction of each link's capacity reserved for (and limiting) request
#: traffic.  Section 3.2 caps it at "no more than 5% of the capacity of
#: each link"; the Section 5 simulations use 1% "to stress our design",
#: and so does every run here unless the ``request_fraction`` knob says
#: otherwise.
REQUEST_FRACTION_SIM = 0.01

#: Router secret lifetime in seconds.  The timestamp is an 8-bit modulo-256
#: seconds clock and the secret changes "at twice the rate of the timestamp
#: rollover" (Section 3.4), i.e. every 128 seconds.
SECRET_PERIOD = 128.0

#: Bits in the pre-capability / capability router timestamp.
TIMESTAMP_BITS = 8
TIMESTAMP_MODULO = 1 << TIMESTAMP_BITS  # 256 second clock

#: Bits of keyed hash in a (pre-)capability; 8 + 56 = 64 bits per router.
HASH_BITS = 56

#: Field widths from Figure 5.
FLOW_NONCE_BITS = 48
N_FIELD_BITS = 10  # N is expressed in KB
T_FIELD_BITS = 6   # T is expressed in seconds
PATH_ID_BITS = 16

#: Units: the N field counts kilobytes (Figure 5 caption).
N_UNIT_BYTES = 1024

#: Maximum encodable N (bytes) and T (seconds).
N_MAX_BYTES = ((1 << N_FIELD_BITS) - 1) * N_UNIT_BYTES
T_MAX_SECONDS = (1 << T_FIELD_BITS) - 1

#: The architectural floor on a capability's sending rate (Section 3.6's
#: example: "the minimum sending rate is 4K bytes in 10 seconds").  This is
#: what bounds router state to C/(N/T)min records.
NT_MIN_BYTES = 4000
NT_MIN_SECONDS = 10.0
NT_MIN_RATE_BPS = NT_MIN_BYTES * 8 / NT_MIN_SECONDS  # bytes->bits per second

#: Estimated bytes per flow-state record (Section 3.6: "if each record
#: requires 100 bytes ... a line card with 32MB of memory").
RECORD_BYTES = 100

#: Default capability grant used by the public-server policy in the
#: imprecise-authorization experiment (Section 5.4): 32 KB over 10 seconds.
DEFAULT_GRANT_BYTES = 32 * 1024
DEFAULT_GRANT_SECONDS = 10

#: Grant a server hands well-behaved clients in the steady-state
#: experiments.  Large enough that renewals complete with ample byte
#: headroom (no packet is ever demoted for racing its own renewal), small
#: enough to stay well under the 10-bit N field's 1023 KB ceiling.
SERVER_GRANT_BYTES = 256 * 1024
SERVER_GRANT_SECONDS = 10

#: Sender-side renewal threshold: renew once this fraction of the byte or
#: time budget is consumed (Section 3.5: "the sender should renew these
#: capabilities before they reach their limits").
RENEWAL_THRESHOLD = 0.5


@dataclass(frozen=True)
class TvaParams:
    """Tunable knobs bundled for schemes and routers."""

    secret_period: float = SECRET_PERIOD
    nt_min_bytes: int = NT_MIN_BYTES
    nt_min_seconds: float = NT_MIN_SECONDS
    renewal_threshold: float = RENEWAL_THRESHOLD

    @property
    def nt_min_rate_bytes_per_s(self) -> float:
        return self.nt_min_bytes / self.nt_min_seconds

    def state_bound_records(self, capacity_bps: float) -> int:
        """Maximum simultaneously live records for an input link of
        ``capacity_bps``: C / (N/T)min (Section 3.6)."""
        return int((capacity_bps / 8.0) / self.nt_min_rate_bytes_per_s)
