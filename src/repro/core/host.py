"""The TVA host capability layer (Sections 4.2 and 6).

The paper deploys the host side as an inline user-space proxy so legacy
applications run unmodified; :class:`TvaHostShim` plays that role in the
simulator.  It transparently rewrites every outgoing packet — attaching a
request when it holds no valid capability for the destination, the
capability list on the first authorized packet, then just the flow nonce —
and interprets every incoming one: pre-capability lists are handed to the
authorization policy, grants are installed, demotions are echoed.

The sender side also models router cache and budget state ("hosts model
router cache eviction ... optimistic, assuming that loss is infrequent",
Section 3.7): it renews before the byte or time budget runs out, and falls
back to re-sending capabilities (or a fresh request) on demotion signals
and transport timeouts.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..sim.node import HostShim
from ..sim.packet import Packet
from .capability import capability_from_precapability
from .header import RegularHeader, RequestHeader, ReturnInfo
from .params import FLOW_NONCE_BITS, RENEWAL_THRESHOLD
from .policy import DestinationPolicy, ServerPolicy

_NONCE_MAX = (1 << FLOW_NONCE_BITS) - 1

#: How long the destination waits for a transport packet to piggyback a
#: grant on before emitting a bare control packet (seconds).
CONTROL_REPLY_DELAY = 0.002

#: Control packets are a bare IP + capability header.
CONTROL_PACKET_SIZE = 40


class _SenderState:
    """What we know about our authorization to send to one peer.

    Besides the grant itself, this mirrors two pieces of router state the
    paper says senders must model (Section 3.7): the byte budget the
    routers are charging, and the cache ttl — ``cache_expiry`` runs the
    same L*T/N time-equivalent algorithm as the routers' flow state table,
    so the sender re-attaches its capability list whenever routers may
    have evicted the entry (low-rate flows, idle gaps)."""

    __slots__ = (
        "caps",
        "n_bytes",
        "t_seconds",
        "granted_at",
        "nonce",
        "bytes_charged",
        "need_caps",
        "renewal_outstanding",
        "renewal_sent_at",
        "cache_expiry",
        "caps_sent_at",
        "dead_caps_strikes",
    )

    #: A demotion notice arriving within this window of a packet that
    #: already carried the full capability list is a strike against the
    #: capabilities themselves (e.g. a router restarted and lost its
    #: secret, Section 3.8).
    CAPS_DEAD_WINDOW = 0.5

    #: Transient demotions happen (cache races under load); only after
    #: this many consecutive strikes does the sender conclude the
    #: capabilities are dead and fall back to a fresh request.
    CAPS_DEAD_STRIKES = 3

    #: Re-send a renewal if no fresh grant arrived within this long; the
    #: first renewal packet may have been lost to congestion.
    RENEWAL_RETRY = 0.25

    #: Safety margin on the cache model: attach capabilities when the
    #: modelled ttl will be within this many seconds of expiring by the
    #: time the packet reaches the routers (conservative: extra
    #: capability bytes, never a wrongly demoted packet).
    CACHE_MARGIN = 0.05

    def __init__(self) -> None:
        self.caps = None
        self.n_bytes = 0
        self.t_seconds = 0
        self.granted_at = 0.0
        self.nonce = 0
        self.bytes_charged = 0
        self.need_caps = True
        self.renewal_outstanding = False
        self.renewal_sent_at = 0.0
        self.cache_expiry = 0.0
        self.caps_sent_at = -1e9
        self.dead_caps_strikes = 0

    def valid_for(self, nbytes: int, now: float) -> bool:
        if not self.caps:
            return False
        if now - self.granted_at >= self.t_seconds:
            return False
        return self.bytes_charged + nbytes <= self.n_bytes

    def should_renew(self, now: float, threshold: float) -> bool:
        if not self.caps:
            return False
        if self.renewal_outstanding and now - self.renewal_sent_at < self.RENEWAL_RETRY:
            return False
        return (
            self.bytes_charged >= threshold * self.n_bytes
            or now - self.granted_at >= threshold * self.t_seconds
        )

    def routers_may_have_evicted(self, now: float) -> bool:
        """The Section 3.7 cache model: has the modelled ttl run out?"""
        return now >= self.cache_expiry - self.CACHE_MARGIN

    def charge(self, nbytes: int, now: float) -> None:
        """Mirror the routers' budget and ttl accounting for a sent packet."""
        self.bytes_charged += nbytes
        delta = nbytes * self.t_seconds / max(1, self.n_bytes)
        self.cache_expiry = max(self.cache_expiry, now) + delta


class _DestState:
    """What we owe a peer that sends to us."""

    __slots__ = ("grant_info", "demote_echo")

    def __init__(self) -> None:
        self.grant_info = None  # a ReturnInfo awaiting delivery
        self.demote_echo = False


class TvaHostShim(HostShim):
    """Capability processing for one host, both as sender and destination."""

    def __init__(
        self,
        policy: Optional[DestinationPolicy] = None,
        seed: int = 0,
        renewal_threshold: float = RENEWAL_THRESHOLD,
        infer_dead_caps: bool = True,
    ) -> None:
        self.policy = policy or ServerPolicy()
        #: Seed of the flow-nonce stream.  The generator itself (2.5 KB of
        #: Mersenne-Twister state) is built at the first grant received:
        #: a sender that is never authorized — every member of a legacy
        #: flood — draws no nonce and so never pays for one.
        self.seed = seed
        self._rng: Optional[random.Random] = None
        self.renewal_threshold = renewal_threshold
        #: Whether repeated demote echoes right after caps-bearing sends
        #: make the sender conclude its capabilities are dead (router
        #: secret loss, Section 3.8) and fall back to a fresh request.
        #: Honest senders want this; modelled attackers keep blasting
        #: their valid capabilities instead of politely re-requesting.
        self.infer_dead_caps = infer_dead_caps
        self._sender: Dict[int, _SenderState] = {}
        self._dest: Dict[int, _DestState] = {}
        # Observability counters.
        self.requests_sent = 0
        self.grants_sent = 0
        self.grants_received = 0
        self.demotions_seen = 0

    # ------------------------------------------------------------------
    def _sender_state(self, peer: int) -> _SenderState:
        state = self._sender.get(peer)
        if state is None:
            state = self._sender[peer] = _SenderState()
        return state

    def _dest_state(self, peer: int) -> _DestState:
        state = self._dest.get(peer)
        if state is None:
            state = self._dest[peer] = _DestState()
        return state

    # ------------------------------------------------------------------
    # Outgoing path
    # ------------------------------------------------------------------
    def on_send(self, pkt: Packet) -> None:
        now = self.host.sim.now
        peer = pkt.dst
        header = self._make_forward_header(peer, pkt, now)
        header.return_info = self._make_return_info(peer, now)
        pkt.shim = header
        pkt.size += header.wire_size()
        # Charge our local model with the final wire size, mirroring what
        # routers will charge (budget and cache ttl alike).
        if isinstance(header, RegularHeader):
            self._sender_state(peer).charge(pkt.size, now)

    def _make_forward_header(self, peer: int, pkt: Packet, now: float):
        state = self._sender_state(peer)
        if not state.valid_for(pkt.size + 64, now):
            # No usable authorization: this packet is a request.
            self.policy.note_outgoing_request(peer, now)
            self.requests_sent += 1
            state.need_caps = True
            return RequestHeader()
        renewing = state.should_renew(now, self.renewal_threshold)
        if renewing:
            state.renewal_outstanding = True
            state.renewal_sent_at = now
        include_caps = (
            state.need_caps or renewing or state.routers_may_have_evicted(now)
        )
        if include_caps:
            state.caps_sent_at = now
        header = RegularHeader(
            flow_nonce=state.nonce,
            n_bytes=state.n_bytes,
            t_seconds=state.t_seconds,
            capabilities=list(state.caps) if include_caps else None,
            renewal=renewing,
        )
        header.cap_ptr = 0
        state.need_caps = False
        return header

    def _make_return_info(self, peer: int, now: float) -> Optional[ReturnInfo]:
        dest = self._dest.get(peer)
        if dest is None:
            return None
        info = dest.grant_info
        dest.grant_info = None
        if dest.demote_echo:
            if info is None:
                info = ReturnInfo()
            info.demotion = True
            dest.demote_echo = False
        if info is not None and info.has_grant:
            self.grants_sent += 1
        return info

    def _decide_grant(self, peer: int, precaps, renewal: bool, now: float) -> None:
        """Authorize a request the moment it arrives; a positive decision is
        stored for the next packet toward ``peer`` (or a control packet).
        Refusals produce no reply at all — crucially, no reverse-channel
        traffic an attacker could solicit by flooding requests."""
        grant = self.policy.authorize(peer, now, renewal=renewal)
        if grant is None:
            return
        n_bytes, t_seconds = grant
        dest = self._dest_state(peer)
        dest.grant_info = ReturnInfo(
            n_bytes=n_bytes,
            t_seconds=t_seconds,
            capabilities=[
                capability_from_precapability(pre, n_bytes, t_seconds)
                for pre in precaps
            ],
        )
        self._schedule_control(peer)

    # ------------------------------------------------------------------
    # Incoming path
    # ------------------------------------------------------------------
    def on_receive(self, pkt: Packet) -> bool:
        now = self.host.sim.now
        peer = pkt.src
        shim = pkt.shim
        if shim is None:
            return True  # legacy traffic goes straight to the transport

        if pkt.demoted:
            # Echo demotion events back to the sender (Section 3.8).
            self.demotions_seen += 1
            dest = self._dest_state(peer)
            dest.demote_echo = True
            self._schedule_control(peer)

        if isinstance(shim, RequestHeader):
            if shim.precapabilities:
                self._decide_grant(peer, list(shim.precapabilities), False, now)
        elif isinstance(shim, RegularHeader):
            if isinstance(self.policy, ServerPolicy):
                self.policy.observe_bytes(peer, pkt.size, now)
            if shim.renewal and shim.new_precapabilities:
                self._decide_grant(peer, list(shim.new_precapabilities), True, now)

        info = getattr(shim, "return_info", None)
        if info is not None:
            self._consume_return_info(peer, info, now)

        return pkt.proto != "tva-ctl"

    def _consume_return_info(self, peer: int, info: ReturnInfo, now: float) -> None:
        state = self._sender_state(peer)
        if info.demotion:
            if (self.infer_dead_caps
                    and now - state.caps_sent_at < state.CAPS_DEAD_WINDOW):
                # We were already sending the full list and still got
                # demoted.  Repeated strikes mean the capabilities
                # themselves no longer validate (router restart / secret
                # loss): fall back to a request.
                state.dead_caps_strikes += 1
                if state.dead_caps_strikes >= state.CAPS_DEAD_STRIKES:
                    state.caps = None
            else:
                # Routers lost our cached state: carry capabilities again.
                state.need_caps = True
                state.dead_caps_strikes = 0
        if info.has_grant:
            state.caps = list(info.capabilities)
            state.n_bytes = info.n_bytes
            state.t_seconds = info.t_seconds
            state.granted_at = now
            if self._rng is None:
                self._rng = random.Random(self.seed)
            state.nonce = self._rng.randint(0, _NONCE_MAX)
            state.bytes_charged = 0
            state.need_caps = True
            state.renewal_outstanding = False
            state.cache_expiry = now  # routers will create fresh state
            state.dead_caps_strikes = 0
            self.grants_received += 1

    # ------------------------------------------------------------------
    # Host feedback hooks
    # ------------------------------------------------------------------
    def on_unexpected(self, pkt: Packet) -> None:
        """The host delivered nothing for this packet — the "unexpected
        packets" misbehaviour signal of Section 3.3."""
        self.policy.report_misbehavior(pkt.src, self.host.sim.now)

    def on_transport_timeout(self, peer: int) -> None:
        """A transport retransmission timeout: assume in-network capability
        state was lost and re-send capabilities with the next packet."""
        self._sender_state(peer).need_caps = True

    def authorized(self, peer: int) -> bool:
        state = self._sender.get(peer)
        return state is not None and state.valid_for(1500 + 64, self.host.sim.now)

    # ------------------------------------------------------------------
    # Control packets: deliver grants/demote echoes with no transport ride
    # ------------------------------------------------------------------
    def _schedule_control(self, peer: int) -> None:
        self.host.sim.call_after(CONTROL_REPLY_DELAY, self._maybe_send_control, peer)

    def _maybe_send_control(self, peer: int) -> None:
        dest = self._dest.get(peer)
        if dest is None or (dest.grant_info is None and not dest.demote_echo):
            return  # already piggybacked on a transport packet
        pkt = self.host.sim.alloc_packet(
            src=self.host.address,
            dst=peer,
            size=CONTROL_PACKET_SIZE,
            proto="tva-ctl",
            created=self.host.sim.now,
        )
        self.host.send(pkt)
