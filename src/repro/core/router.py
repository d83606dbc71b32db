"""The TVA capability router (Figure 6, Section 4.3).

:class:`TvaRouterCore` is simulator-independent: it implements the exact
pipeline of the paper's pseudo-code against abstract (src, dst, size, shim,
now) inputs.  The same object backs three consumers:

* :class:`TvaRouterProcessor` adapts it to the discrete-event simulator;
* the packet-processing benchmarks (Table 1, Figure 12) drive it directly;
* unit and property tests exercise the pipeline without a network.

Verdicts map to the three output classes of Figure 2: ``REQUEST`` packets
go to the rate-limited per-path-identifier queues, ``REGULAR`` packets to
the per-destination fair queues, and ``LEGACY`` covers legacy plus demoted
traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, Optional, Tuple

from ..obs.metrics import MetricItem, tally_items
from ..perf.counters import PERF
from ..sim.link import Link
from ..sim.node import Router, RouterProcessor
from ..sim.packet import Packet
from .capability import (
    capability_expired,
    check_capability_hashes,
    mint_precapability,
)
from .crypto import SecretManager
from .flowstate import FlowEntry, FlowStateTable
from .header import RegularHeader, RequestHeader
from .params import TvaParams
from .pathid import interface_tag

# Verdicts.
REQUEST = "request"
REGULAR = "regular"
LEGACY = "legacy"

#: Wire growth per hop: 16-bit path id + 64-bit pre-capability on requests,
#: one 64-bit pre-capability on renewals.
REQUEST_BYTES_PER_HOP = 10
RENEWAL_BYTES_PER_HOP = 8


class TvaRouterCore:
    """Capability verification and state management for one router."""

    #: Bound on the per-router validation cache (verdict memo, below).
    #: A class constant rather than a ``TvaParams`` field on purpose: the
    #: cache is behaviour-invisible, so it must not enter scenario
    #: serialization or cache keys.
    _VALCACHE_SIZE = 1024

    def __init__(
        self,
        name: str,
        secrets: SecretManager,
        state: FlowStateTable,
        trust_boundary: bool = False,
        params: Optional[TvaParams] = None,
    ) -> None:
        self.name = name
        self.secrets = secrets
        self.state = state
        self.trust_boundary = trust_boundary
        self.params = params or TvaParams()
        # Tallies mirrored in EXPERIMENTS.md sanity checks; the obs
        # registry reads them through metric_items().
        self.requests_processed = 0
        self.regular_validated = 0
        self.regular_cached = 0
        self.renewals = 0
        self.demotions = 0
        self.restarts = 0
        self.valcache_hits = 0
        self.valcache_misses = 0
        # The Table 1 "cached" validation path: a bounded LRU memo of the
        # two-hash verdict, keyed on everything the hashes depend on
        # (including the secret epoch, so rotation invalidates naturally).
        # Expiry is NOT cached — it depends on ``now`` and is re-checked
        # per packet.  OrderedDict + move_to_end/popitem(last=False) keeps
        # eviction order deterministic across hash seeds.
        self._valcache: "OrderedDict[tuple, bool]" = OrderedDict()

    def metric_items(self) -> List[MetricItem]:
        return tally_items(self, (
            "requests_processed", "regular_validated", "regular_cached",
            "renewals", "demotions", "restarts",
            "valcache_hits", "valcache_misses",
        ))

    # ------------------------------------------------------------------
    def restart(self, now: float, new_seed: bytes = b"") -> None:
        """Simulate a router restart (Section 3.8).

        All cached flow state is lost and, if ``new_seed`` is given, so is
        the router secret — outstanding capabilities through this router
        die with it.  In-flight flows are demoted until their senders
        re-acquire capabilities; the demotion-echo path recovers them.
        """
        self.restarts += 1
        self.state = FlowStateTable(self.state.capacity, self.params)
        # Cached verdicts are keyed on the secret epoch, but a reseed
        # changes the secret *within* an epoch — drop everything.  (Also
        # cleared on seedless restarts: verdicts would still be correct,
        # but a restarted router plausibly loses this cache too, and the
        # cache never affects behaviour either way.)
        self._valcache.clear()
        if new_seed:
            self.secrets = SecretManager(new_seed, period=self.secrets.period)

    # ------------------------------------------------------------------
    def process(
        self,
        src: int,
        dst: int,
        size: int,
        shim,
        now: float,
        ingress_id: Optional[str] = None,
    ) -> Tuple[str, int]:
        """Run one packet through the Figure 6 pipeline.

        Returns ``(verdict, added_bytes)`` where ``added_bytes`` is wire
        growth from stamping (pre-capabilities / path identifiers).  The
        shim is mutated in place, exactly as the real header would be.
        """
        if isinstance(shim, RequestHeader):
            return REQUEST, self.process_request(src, dst, shim, now, ingress_id)
        if isinstance(shim, RegularHeader):
            return self.process_regular(src, dst, size, shim, now)
        return LEGACY, 0

    # ------------------------------------------------------------------
    def process_wire(
        self,
        src: int,
        dst: int,
        size: int,
        raw: bytes,
        now: float,
        ingress_id: Optional[str] = None,
        cap_ptr: int = 0,
    ) -> Tuple[str, bytes]:
        """Byte-level variant of :meth:`process`: decode the Figure 5
        header, run the pipeline, re-encode.

        This is what a real forwarding path does per packet; the
        implementation benchmarks use it to include serialization costs.
        Undecodable headers are treated as legacy traffic (the shim layer
        is above IP; garbage above IP is just unauthorized bytes).
        Returns ``(verdict, re-encoded header bytes)``.
        """
        from .header import unpack_header  # local import avoids a cycle

        try:
            shim = unpack_header(raw)
        except ValueError:
            return LEGACY, raw
        if isinstance(shim, RegularHeader):
            shim.cap_ptr = cap_ptr
        verdict, _ = self.process(src, dst, size, shim, now, ingress_id)
        return verdict, shim.pack()

    # ------------------------------------------------------------------
    def process_request(
        self,
        src: int,
        dst: int,
        shim: RequestHeader,
        now: float,
        ingress_id: Optional[str] = None,
    ) -> int:
        """Stamp a request: path identifier at trust boundaries, then our
        pre-capability (Section 4.3)."""
        self.requests_processed += 1
        added = 0
        if self.trust_boundary and ingress_id is not None:
            shim.path_ids.append(interface_tag(self.name, ingress_id))
            added += 2
        shim.precapabilities.append(mint_precapability(self.secrets, src, dst, now))
        added += 8
        return added

    # ------------------------------------------------------------------
    def process_regular(
        self, src: int, dst: int, size: int, shim: RegularHeader, now: float
    ) -> Tuple[str, int]:
        """Validate / charge a regular or renewal packet (Figure 6)."""
        flow = (src, dst)
        # The capability pointer advances at *every* capability router the
        # packet traverses, whether or not this router ends up validating —
        # exactly like the wire format's ptr field.  Consuming it lazily
        # would desynchronize downstream routers whenever an upstream one
        # answered from cache.
        my_cap = self._consume_capability(shim)
        entry = self.state.lookup(flow, now)
        is_valid = False
        if entry is not None:
            if shim.flow_nonce == entry.nonce:
                # Common case: nonce matches the cached flow.
                is_valid = self.state.charge(entry, size, now)
                if is_valid:
                    self.regular_cached += 1
            elif my_cap is not None:
                # First packet with a renewed capability: check and replace.
                entry = self._validate_and_install(
                    flow, src, dst, shim, my_cap, now, replace=entry
                )
                is_valid = entry is not None and self.state.charge(entry, size, now)
        else:
            if my_cap is not None:
                entry = self._validate_and_install(flow, src, dst, shim, my_cap, now)
                is_valid = entry is not None and self.state.charge(entry, size, now)

        if not is_valid:
            self.demotions += 1
            shim.demoted = True
            return LEGACY, 0

        added = 0
        if shim.renewal:
            # Mint a fresh pre-capability into the packet for the
            # destination to convert and return (Section 4.3).
            shim.new_precapabilities.append(
                mint_precapability(self.secrets, src, dst, now)
            )
            self.renewals += 1
            added = RENEWAL_BYTES_PER_HOP
        return REGULAR, added

    # ------------------------------------------------------------------
    def _validate_and_install(
        self,
        flow: Hashable,
        src: int,
        dst: int,
        shim: RegularHeader,
        cap,
        now: float,
        replace: Optional[FlowEntry] = None,
    ) -> Optional[FlowEntry]:
        if not self._check_capability(src, dst, cap, shim.n_bytes, shim.t_seconds, now):
            return None
        self.regular_validated += 1
        if replace is not None:
            return self.state.replace(
                replace, shim.flow_nonce, cap, shim.n_bytes, shim.t_seconds, now
            )
        return self.state.create(
            flow, shim.flow_nonce, cap, shim.n_bytes, shim.t_seconds, now
        )

    def clear_validation_cache(self) -> None:
        """Drop every memoized validation verdict.

        The Table 1 benchmarks call this to measure the genuinely uncached
        path; :meth:`restart` clears it as part of losing router state."""
        self._valcache.clear()

    def _check_capability(
        self, src: int, dst: int, cap, n_bytes: int, t_seconds: int, now: float
    ) -> bool:
        """``validate_capability`` with the two-hash verdict memoized.

        Returns exactly what :func:`validate_capability` would — the memo
        key covers every hash input (src, dst, timestamp, hash, N, T, and
        the resolved secret epoch), and the ``now``-dependent pieces
        (timestamp freshness, expiry) are evaluated per call."""
        epoch = self.secrets.epoch_for_timestamp(cap.timestamp, now)
        if epoch is None:
            return False
        if capability_expired(cap.timestamp, t_seconds, now):
            return False
        key = (src, dst, cap.timestamp, cap.hash56, n_bytes, t_seconds, epoch)
        cache = self._valcache
        verdict = cache.get(key)
        if verdict is not None:
            cache.move_to_end(key)
            self.valcache_hits += 1
            PERF.valcache_hits += 1
            return verdict
        self.valcache_misses += 1
        PERF.valcache_misses += 1
        verdict = check_capability_hashes(
            self.secrets.secret_for_epoch(epoch), src, dst, cap, n_bytes, t_seconds
        )
        cache[key] = verdict
        if len(cache) > self._VALCACHE_SIZE:
            cache.popitem(last=False)
        return verdict

    def _consume_capability(self, shim: RegularHeader):
        """Advance this router's position in the capability list and return
        the capability at it (``None`` when the packet carries no list or
        the list is exhausted).

        The wire format's capability pointer advances hop by hop; we model
        it with ``cap_ptr`` stored on the shim (reset by the sender)."""
        caps = shim.capabilities
        if not caps:
            return None
        ptr = shim.cap_ptr  # class-level default 0 until a hop advances it
        if ptr >= len(caps):
            return None
        shim.cap_ptr = ptr + 1
        return caps[ptr]


class TvaRouterProcessor(RouterProcessor):
    """Adapter running :class:`TvaRouterCore` inside the simulator."""

    def __init__(self, core: TvaRouterCore) -> None:
        self.core = core

    def process(
        self, pkt: Packet, router: Router, in_link: Optional[Link], out_link: Link
    ) -> bool:
        shim = pkt.shim
        if shim is None:
            # Plain IP needs no capability processing at all (Section 3.2):
            # the core would answer (LEGACY, 0) and touch no tally.
            return True
        core = self.core
        # Tag requests only at the trust-boundary ingress ("Routers not at
        # trust boundaries do not tag requests as the upstream has already
        # tagged", Section 3.2).  Which links are boundary ingress is
        # topology knowledge: host access links and inter-domain links.
        # (ingress_of lets an AggregateLink report the per-member wire a
        # packet arrived on, so aggregated senders tag like expanded ones.)
        # Only a request at such a router reads the tag, so only it pays
        # for resolving one.
        ingress = None
        if (
            core.trust_boundary
            and in_link is not None
            and in_link.boundary_ingress
            and isinstance(shim, RequestHeader)
        ):
            ingress = in_link.ingress_of(pkt)
        verdict, added = core.process(
            pkt.src, pkt.dst, pkt.size, shim, router.sim.now, ingress
        )
        pkt.size += added
        if verdict == LEGACY and getattr(shim, "demoted", False):
            pkt.demoted = True
        return True
