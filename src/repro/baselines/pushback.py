"""Pushback baseline (Mahajan et al., CCR 2002), as the paper models it.

"Pushback is implemented as described in [16].  It recursively pushes
destination-based network filters backwards across the incoming link that
contributes most of the flood" (Section 5).

Our implementation follows the aggregate-based congestion control design:

* every router monitors drops on each of its output links over a review
  window;
* when an output link is congested (drop fraction above a threshold), the
  router identifies the *aggregate* — the destination whose packets were
  dropped most — and computes a rate limit that would bring total arrivals
  down to ~95% of the link capacity;
* the limit is divided equally among the incoming links contributing to
  the aggregate, and enforced with per-(in-link, destination) token-bucket
  filters at the router input.  In the Figure 7 dumbbell the congested
  router's incoming links are exactly the per-host access links, so this
  one-hop push is equivalent to the full recursive propagation.

Identification is what fails at scale — "attack traffic becomes harder to
identify as the number of attackers increases since each incoming link
contributes a small fraction of the overall attack" (Section 5.1).  We
model identification the way the pushback design does: a contributing link
is singled out only when its arrival rate clearly exceeds the mean
contribution to the aggregate.  With few attackers each attack link
dominates the mean and is cleanly rate-limited, leaving legitimate traffic
untouched; with many attackers every link's contribution approaches the
mean, nothing can be singled out, no filters are installed, and the
network degenerates to DropTail — the sharp knee of Figure 8.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..sim.link import Link
from ..sim.node import HostShim, Router, RouterProcessor
from ..sim.packet import Packet
from ..sim.queues import DropTailQueue, Qdisc, TokenBucket
from ..sim.topology import LegacyDefaults, Network, SchemeKnobs


@dataclass(frozen=True)
class PushbackKnobs(SchemeKnobs):
    """Pushback knobs (aggregate congestion control baseline)."""

    #: Seconds between a router's drop reviews (the monitoring window).
    review_interval: float = 2.0
    #: Drop fraction above which an output link counts as congested.
    drop_fraction_threshold: float = 0.02

    def __post_init__(self) -> None:
        self._require("review_interval", self.review_interval > 0,
                      "review_interval > 0")
        self._require("drop_fraction_threshold",
                      0 <= self.drop_fraction_threshold < 1,
                      "0 <= drop_fraction_threshold < 1")


class PushbackProcessor(RouterProcessor):
    """Aggregate detection and rate-limit filters for one router."""

    def __init__(
        self,
        name: str,
        knobs: PushbackKnobs,
        target_utilization: float = 0.95,
        min_share_bps: float = 20e3,
        identification_ratio: float = 1.1,
        filter_idle_periods: int = 2,
    ) -> None:
        self.name = name
        self.review_interval = knobs.review_interval
        self.drop_fraction_threshold = knobs.drop_fraction_threshold
        self.target_utilization = target_utilization
        self.min_share_bps = min_share_bps
        #: A link is identified as an attack contributor when its arrival
        #: rate toward the aggregate exceeds this multiple of the mean
        #: contribution.  Near 1.0, identification degrades exactly when
        #: attackers are numerous enough to *be* the mean.
        self.identification_ratio = identification_ratio
        self.filter_idle_periods = filter_idle_periods
        self.identification_failures = 0
        self.router: Optional[Router] = None
        # (in_link name, destination) -> token bucket
        self.filters: Dict[Tuple[str, int], TokenBucket] = {}
        self._filter_age: Dict[Tuple[str, int], int] = {}
        # Window accounting.
        self._arrival_bytes: Dict[Tuple[str, int], int] = defaultdict(int)
        self._drop_bytes: Dict[Link, Dict[int, int]] = {}
        self._link_tx_mark: Dict[Link, int] = {}
        self.filter_drops = 0
        self.reviews = 0
        self.congested_reviews = 0
        self.restarts = 0

    def restart(self, now: float) -> None:
        """Reboot: installed filters and window accounting are lost.  The
        review timer keeps ticking (re-arming it would desynchronize the
        calendar); the next review starts from the fresh window."""
        self.restarts += 1
        self.filters.clear()
        self._filter_age.clear()
        self._arrival_bytes.clear()
        # Per-link resets are independent and Link keys have no order;
        # insertion order is links_out construction order (deterministic).
        # repro: allow-unordered-iter — independent per-link window reset
        for link, drops in self._drop_bytes.items():
            drops.clear()
            self._link_tx_mark[link] = link.tx_bytes

    # ------------------------------------------------------------------
    def attach(self, router: Router) -> None:
        """Register output links for drop monitoring and start the review
        timer.  Called by the scheme's :meth:`wire` hook."""
        self.router = router
        for link in router.links_out:
            drops: Dict[int, int] = defaultdict(int)
            self._drop_bytes[link] = drops
            self._link_tx_mark[link] = 0
            link.qdisc.drop_hook = self._make_drop_hook(drops)
        router.sim.after(self.review_interval, self._review)

    @staticmethod
    def _make_drop_hook(table: Dict[int, int]):
        def hook(pkt: Packet) -> None:
            table[pkt.dst] += pkt.size

        return hook

    # ------------------------------------------------------------------
    def process(
        self, pkt: Packet, router: Router, in_link: Optional[Link], out_link: Link
    ) -> bool:
        in_name = in_link.name if in_link is not None else "local"
        self._arrival_bytes[(in_name, pkt.dst)] += pkt.size
        bucket = self.filters.get((in_name, pkt.dst))
        if bucket is not None and not bucket.try_consume(pkt.size, router.sim.now):
            self.filter_drops += 1
            return False
        return True

    # ------------------------------------------------------------------
    def _review(self) -> None:
        assert self.router is not None
        self.reviews += 1
        now = self.router.sim.now
        refreshed = set()
        # Review links in name order: filter installation order (and with it
        # the filters dict) becomes canonical rather than construction-order.
        for link, drops in sorted(self._drop_bytes.items(),
                                  key=lambda kv: kv[0].name):
            aggregate = self._congested_aggregate(link, drops)
            if aggregate is None:
                continue
            self.congested_reviews += 1
            refreshed.update(self._install_filters(link, aggregate))
        self._expire_filters(refreshed)
        # Reset window accounting.
        self._arrival_bytes.clear()
        # repro: allow-unordered-iter — same independent reset as restart()
        for link, drops in self._drop_bytes.items():
            drops.clear()
            self._link_tx_mark[link] = link.tx_bytes
        self.router.sim.after(self.review_interval, self._review)

    def _congested_aggregate(self, link: Link, drops: Dict[int, int]) -> Optional[int]:
        dropped = sum(drops.values())
        if not dropped:
            return None
        sent = link.tx_bytes - self._link_tx_mark[link]
        if dropped / max(1, dropped + sent) < self.drop_fraction_threshold:
            return None
        return max(drops, key=drops.get)

    def _install_filters(self, link: Link, aggregate: int):
        """Identify the links flooding the aggregate and rate-limit them.

        Only links whose contribution clearly exceeds the mean are
        identified; the residual limit (95% of capacity minus everything
        unidentified) is split equally among them.  When nothing stands
        out — the many-attackers regime — identification fails and no
        filter is installed."""
        window = self.review_interval
        aggregate_arrivals = {
            in_name: nbytes * 8.0 / window
            for (in_name, dst), nbytes in sorted(self._arrival_bytes.items())
            if dst == aggregate and nbytes > 0
        }
        if not aggregate_arrivals:
            return []
        mean_bps = sum(aggregate_arrivals.values()) / len(aggregate_arrivals)
        cutoff = self.identification_ratio * mean_bps
        identified = {
            in_name: bps
            for in_name, bps in sorted(aggregate_arrivals.items())
            if bps > cutoff
        }
        if not identified:
            self.identification_failures += 1
            return []
        # Cap each identified link at the aggregate's max-min fair share of
        # the link: target capacity divided over every contributing link.
        # (Computing the share from *measured* unidentified demand would
        # never converge — congestion suppresses the very demand being
        # measured.)
        share_bps = max(
            self.min_share_bps,
            link.bandwidth_bps * self.target_utilization / len(aggregate_arrivals),
        )
        keys = []
        for in_name in identified:
            key = (in_name, aggregate)
            burst = max(3000, int(share_bps / 8 * 0.25))
            self.filters[key] = TokenBucket(rate_bps=share_bps, burst_bytes=burst)
            self._filter_age[key] = 0
            keys.append(key)
        return keys

    def _expire_filters(self, refreshed) -> None:
        stale = []
        for key in self.filters:
            if key in refreshed:
                continue
            self._filter_age[key] = self._filter_age.get(key, 0) + 1
            if self._filter_age[key] >= self.filter_idle_periods:
                stale.append(key)
        for key in stale:
            del self.filters[key]
            del self._filter_age[key]


class PushbackScheme(LegacyDefaults):
    """Factory wiring pushback into a topology: FIFO queues plus the
    aggregate-filtering processor on every router."""

    name = "pushback"
    Knobs = PushbackKnobs

    def __init__(
        self,
        knobs: Optional[PushbackKnobs] = None,
        *,
        seed: int = 42,
        destination_policy: Optional[Callable] = None,
    ) -> None:
        # Pushback draws no randomness and runs no destination policy;
        # it takes both keywords for the constructor every scheme shares.
        self.knobs = knobs or PushbackKnobs()
        self.processors: Dict[str, PushbackProcessor] = {}

    def make_qdisc(self, link_kind: str, bandwidth_bps: float) -> Qdisc:
        return DropTailQueue(limit_bytes=None, limit_pkts=50)

    def make_router_processor(self, router_name: str, trust_boundary: bool):
        proc = PushbackProcessor(router_name, self.knobs)
        self.processors[router_name] = proc
        return proc

    def make_host_shim(self, role: str) -> Optional[HostShim]:
        return None  # pushback needs no host changes

    def wire(self, net: Network) -> None:
        for node in net.nodes:
            if isinstance(node, Router) and node.processor in self.processors.values():
                node.processor.attach(node)

    def reboot_router(
        self, router_name: str, now: float, rotate_secret: bool = True
    ) -> bool:
        # Pushback has no secrets; rotate_secret is accepted for interface
        # uniformity and ignored.
        proc = self.processors.get(router_name)
        if proc is None:
            return False
        proc.restart(now)
        return True

    def metric_items(self):
        for name in sorted(self.processors):
            proc = self.processors[name]
            prefix = f"router.{name}"
            yield f"{prefix}.filter_drops", (lambda p=proc: p.filter_drops)
            yield f"{prefix}.reviews", (lambda p=proc: p.reviews)
            yield f"{prefix}.congested_reviews", (
                lambda p=proc: p.congested_reviews
            )
            yield f"{prefix}.identification_failures", (
                lambda p=proc: p.identification_failures
            )
            yield f"{prefix}.active_filters", (lambda p=proc: len(p.filters))
            yield f"{prefix}.restarts", (lambda p=proc: p.restarts)
