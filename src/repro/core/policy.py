"""Destination authorization policies (Sections 3.3 and 5.4).

A policy answers one question — should this request be granted, and with
what (N, T) budget — and consumes one signal: misbehaviour reports about a
sender.  The paper sketches two ends of the spectrum:

* :class:`ClientPolicy` — a host that initiates but should not be freely
  contactable (firewall/NAT behaviour): accept requests only from peers we
  have ourselves contacted.
* :class:`ServerPolicy` — a public server: grant every first request a
  default budget, fairly served via path identifiers; blacklist senders
  that misbehave (unexpected packets or floods) so their capabilities
  simply expire and are never renewed.

:class:`OraclePolicy` reproduces the Figure 11 experiment exactly: the
paper *sets* the destination to stop renewing the (known) attackers, so
the oracle variant takes the suspect set as input.  :class:`AlwaysGrant`
is the colluder of Section 5.3.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, Optional, Set, Tuple

from .capability import quantize_grant
from .params import (
    DEFAULT_GRANT_BYTES,
    DEFAULT_GRANT_SECONDS,
    SERVER_GRANT_BYTES,
    SERVER_GRANT_SECONDS,
)

Grant = Tuple[int, int]  # (N bytes, T whole seconds)

#: The ``server_grant`` a steady-state experiment's public server issues.
DEFAULT_SERVER_GRANT = (SERVER_GRANT_BYTES, SERVER_GRANT_SECONDS)

#: What :func:`is_grant` accepts, as an error message says it.
GRANT_NEEDS = "[bytes, seconds], two positive numbers"


def as_grant(value: Any) -> Any:
    """``value`` with a JSON list folded back to a tuple."""
    return tuple(value) if isinstance(value, list) else value


def is_grant(value: Any) -> bool:
    """Whether ``value`` is a ``(bytes, seconds)`` grant a destination can
    issue: two positive finite numbers (booleans are not numbers here)."""
    return isinstance(value, tuple) and len(value) == 2 and all(
        type(v) in (int, float) and 0 < v < math.inf for v in value
    )


class DestinationPolicy:
    """Interface: authorize requests, absorb misbehaviour reports."""

    def authorize(self, src: int, now: float, renewal: bool = False) -> Optional[Grant]:
        raise NotImplementedError

    def report_misbehavior(self, src: int, now: float) -> None:
        """Called when the destination sees unexpected packets or floods
        from ``src`` (Section 3.3)."""

    def note_outgoing_request(self, dst: int, now: float) -> None:
        """Called when this host itself requests to ``dst``; client-style
        policies use it to whitelist the return direction."""


class ServerPolicy(DestinationPolicy):
    """Public-server policy with blacklisting.

    First requests are granted ``default_grant``; a sender reported as
    misbehaving is blacklisted for ``blacklist_seconds`` (infinite by
    default, matching the paper's experiments) and gets nothing — its
    outstanding capability simply runs out.

    A built-in flood detector also reports senders whose received-byte
    rate, measured over ``detector_window`` seconds, exceeds
    ``flood_rate_bps``.  Disable it (``flood_rate_bps=None``) when the
    experiment provides oracle knowledge instead.
    """

    def __init__(
        self,
        default_grant: Grant = (DEFAULT_GRANT_BYTES, DEFAULT_GRANT_SECONDS),
        blacklist_seconds: Optional[float] = None,
        flood_rate_bps: Optional[float] = None,
        detector_window: float = 2.0,
    ) -> None:
        n, t = quantize_grant(*default_grant)
        self.default_grant: Grant = (n, t)
        self.blacklist_seconds = blacklist_seconds
        self.flood_rate_bps = flood_rate_bps
        self.detector_window = detector_window
        self._blacklist: Dict[int, float] = {}  # src -> blacklisted-at
        self._recent_bytes: Dict[int, Deque[Tuple[float, int]]] = {}
        self.grants = 0
        self.refusals = 0

    # -- authorization ----------------------------------------------------
    def authorize(self, src: int, now: float, renewal: bool = False) -> Optional[Grant]:
        if self.is_blacklisted(src, now):
            self.refusals += 1
            return None
        self.grants += 1
        return self.default_grant

    def is_blacklisted(self, src: int, now: float) -> bool:
        since = self._blacklist.get(src)
        if since is None:
            return False
        if self.blacklist_seconds is not None and now - since > self.blacklist_seconds:
            del self._blacklist[src]
            return False
        return True

    # -- misbehaviour -----------------------------------------------------
    def report_misbehavior(self, src: int, now: float) -> None:
        self._blacklist.setdefault(src, now)

    def observe_bytes(self, src: int, nbytes: int, now: float) -> None:
        """Feed the optional rate-based flood detector."""
        if self.flood_rate_bps is None:
            return
        window = self._recent_bytes.setdefault(src, deque())
        window.append((now, nbytes))
        horizon = now - self.detector_window
        while window and window[0][0] < horizon:
            window.popleft()
        rate = sum(b for _, b in window) * 8 / self.detector_window
        if rate > self.flood_rate_bps:
            self.report_misbehavior(src, now)


class ClientPolicy(DestinationPolicy):
    """Accept requests only from destinations we have contacted ourselves
    (the firewall/NAT default of Section 3.3)."""

    def __init__(
        self,
        default_grant: Grant = (DEFAULT_GRANT_BYTES, DEFAULT_GRANT_SECONDS),
        expected_window: float = 60.0,
    ) -> None:
        n, t = quantize_grant(*default_grant)
        self.default_grant: Grant = (n, t)
        self.expected_window = expected_window
        self._expected: Dict[int, float] = {}
        self.refused = 0

    def note_outgoing_request(self, dst: int, now: float) -> None:
        self._expected[dst] = now

    def authorize(self, src: int, now: float, renewal: bool = False) -> Optional[Grant]:
        asked_at = self._expected.get(src)
        if asked_at is None or now - asked_at > self.expected_window:
            self.refused += 1
            return None
        return self.default_grant


class OraclePolicy(ServerPolicy):
    """Figure 11's destination: "initially grants all requests, but stops
    renewing capabilities for senders that misbehave by flooding traffic".

    ``suspects`` is the oracle part — the experiment tells the policy which
    senders will turn out to be attackers (the paper stipulates the
    destination can identify them once they flood).  A suspect's *first*
    request is granted the default budget — "a destination initially
    grants all requests" — but it is never renewed or re-granted, so its
    one capability simply runs out.  Legitimate senders are granted and
    renewed unconditionally."""

    def __init__(
        self,
        suspects: Set[int],
        default_grant: Grant = (DEFAULT_GRANT_BYTES, DEFAULT_GRANT_SECONDS),
    ) -> None:
        super().__init__(default_grant=default_grant)
        self.suspects = set(suspects)
        self._granted_once: Set[int] = set()

    def authorize(self, src: int, now: float, renewal: bool = False) -> Optional[Grant]:
        if src in self.suspects:
            if renewal or src in self._granted_once:
                self.refusals += 1
                return None
            self._granted_once.add(src)
            self.grants += 1
            return self.default_grant
        self.grants += 1
        return self.default_grant


class AlwaysGrant(DestinationPolicy):
    """The colluder of Section 5.3: authorizes everything, generously."""

    def __init__(self, default_grant: Grant = (1020 * 1024, 10)) -> None:
        n, t = quantize_grant(*default_grant)
        self.default_grant: Grant = (n, t)

    def authorize(self, src: int, now: float, renewal: bool = False) -> Optional[Grant]:
        return self.default_grant


class ReturningCustomerPolicy(ServerPolicy):
    """Section 3.3's "more sophisticated policies may be based on HTTP
    cookies that identify returning customers": first-time senders get a
    small probationary budget; senders with a history of well-behaved,
    completed exchanges are promoted to a generous one.

    "Well-behaved" is tracked by byte-observations: a sender that stayed
    within every budget it was granted accumulates reputation; one that is
    ever reported misbehaving is blacklisted as usual."""

    def __init__(
        self,
        probation_grant: Grant = (16 * 1024, 10),
        trusted_grant: Grant = (512 * 1024, 10),
        promotion_grants: int = 3,
    ) -> None:
        super().__init__(default_grant=probation_grant)
        n, t = quantize_grant(*trusted_grant)
        self.trusted_grant: Grant = (n, t)
        self.promotion_grants = promotion_grants
        self._good_grants: Dict[int, int] = {}

    def authorize(self, src: int, now: float, renewal: bool = False) -> Optional[Grant]:
        if self.is_blacklisted(src, now):
            self.refusals += 1
            return None
        self.grants += 1
        count = self._good_grants.get(src, 0) + 1
        self._good_grants[src] = count
        if count > self.promotion_grants:
            return self.trusted_grant
        return self.default_grant

    def is_trusted(self, src: int) -> bool:
        return self._good_grants.get(src, 0) > self.promotion_grants

    def report_misbehavior(self, src: int, now: float) -> None:
        super().report_misbehavior(src, now)
        self._good_grants.pop(src, None)  # reputation resets


class RefuseAll(DestinationPolicy):
    """Figure 9's destination towards attackers: requests are identified as
    attack requests and never granted."""

    def authorize(self, src: int, now: float, renewal: bool = False) -> Optional[Grant]:
        return None


class FilteringPolicy(DestinationPolicy):
    """Wraps another policy but refuses a fixed suspect set outright.

    Used by the request-flood experiment, where the paper assumes "the
    destination was able to distinguish requests from legitimate users and
    those from attackers"."""

    def __init__(self, inner: DestinationPolicy, suspects: Set[int]) -> None:
        self.inner = inner
        self.suspects = set(suspects)

    def authorize(self, src: int, now: float, renewal: bool = False) -> Optional[Grant]:
        if src in self.suspects:
            return None
        return self.inner.authorize(src, now, renewal)

    def report_misbehavior(self, src: int, now: float) -> None:
        self.inner.report_misbehavior(src, now)

    def note_outgoing_request(self, dst: int, now: float) -> None:
        self.inner.note_outgoing_request(dst, now)
