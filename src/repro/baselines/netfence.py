"""NetFence baseline (Liu, Yang & Xia, SIGCOMM 2010): closed-loop
congestion policing instead of per-destination capabilities.

Where TVA gates traffic on destination-granted capabilities, NetFence
polices it on *secure congestion policing feedback*:

* Every packet entering the network at its access router is stamped with
  feedback — a ``mono`` (no congestion) or ``cong`` (congested) mark,
  an 8-bit timestamp, and a 56-bit keyed MAC over ``(src, ts, mark,
  bottleneck)`` so neither hosts nor colluders can forge or upgrade it.
  The MAC reuses the same rotating-secret machinery as TVA's
  pre-capabilities (:class:`~repro.core.crypto.SecretManager`), so
  ``reboot_router`` fault injection invalidates outstanding feedback
  exactly like it invalidates capabilities.
* A congested bottleneck queue flips ``mono`` stamps to ``cong`` as
  packets cross it (:class:`MarkingFifo`, the queue this scheme installs
  on every link); domain routers share keys, so the bottleneck re-MACs
  with the stamper's secret.
* Receivers echo the freshest feedback back to the sender in periodic
  ``nf-ctl`` control packets; senders present the echoed feedback on
  subsequent packets.  The access router verifies it and runs a robust
  AIMD rate limiter per (sender, bottleneck) leaky bucket: fresh
  ``cong`` feedback halves the limiter, fresh ``mono`` feedback grows
  it additively and eventually releases it.
* The robustness rule that makes the loop DoS-proof: **absence of fresh
  valid feedback is treated as congestion**.  A sender whose receiver
  refuses to echo (an attack victim), whose feedback is stale, or who
  simply floods without participating gets a default limiter that keeps
  halving — it cannot do better by breaking the protocol.  The limiter
  never blocks outright, so small control packets still trickle through
  and can re-establish the loop once the sender behaves.

The scheme needs no destination authorization to *start* sending
(``authorized`` is always true); the destination policy instead gates
the feedback echo, which is what starves attackers of fresh feedback in
the Figure 9/11 experiments.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..core.crypto import SecretManager, keyed_hash56
from ..core.params import TIMESTAMP_MODULO
from ..core.policy import (
    AlwaysGrant,
    ClientPolicy,
    DestinationPolicy,
    ServerPolicy,
)
from ..sim.link import Link
from ..sim.node import HostShim, Router, RouterProcessor
from ..sim.packet import Packet
from ..sim.queues import DropTailQueue, TokenBucket
from ..sim.topology import LegacyDefaults, Network

#: Flat shim overhead charged once per packet for the feedback header
#: (mark + timestamp + MAC), same budget as TVA's capability shim.
NETFENCE_HEADER_BYTES = 20

#: Protocol tag of receiver-to-sender feedback echo packets.
NF_CTL_PROTO = "nf-ctl"

#: Router secret turnover for feedback MACs — half the modulo-256
#: timestamp rollover, like TVA's pre-capability secrets, so the
#: current/previous-epoch resolution trick applies unchanged.
NETFENCE_SECRET_PERIOD = 128.0

#: Echoed feedback whose stamp is older than this no longer counts as
#: fresh; the robustness rule then treats the sender as congested.
FEEDBACK_EXPIRY = 2.0

_MONO = 0
_CONG = 1
_MARK_CODES = {"mono": _MONO, "cong": _CONG}


def _feedback_mac(secret: bytes, src: int, mark: str, ts: int, bottleneck: str) -> int:
    """56-bit keyed MAC binding feedback to sender, time, mark, and
    bottleneck identity.  The bottleneck link name is folded to a stable
    32-bit value with crc32 (NOT the salted ``hash()`` builtin — see lint
    rule D001) so the MAC is reproducible across processes."""
    return keyed_hash56(
        secret, src, ts, _MARK_CODES[mark], zlib.crc32(bottleneck.encode("utf-8"))
    )


@dataclass
class NetFenceFeedback:
    """One unit of congestion policing feedback.

    ``stamper`` names the access router whose secret minted the MAC;
    ``bottleneck`` is the congested link's name ("" while ``mono``)."""

    mark: str
    ts: int
    stamper: str
    bottleneck: str
    mac: int

    def clone(self) -> "NetFenceFeedback":
        return NetFenceFeedback(self.mark, self.ts, self.stamper, self.bottleneck, self.mac)


@dataclass
class NetFenceHeader:
    """Per-packet NetFence shim.

    ``feedback`` is the forward-path stamp (written by the access
    router, possibly upgraded to ``cong`` by a bottleneck);
    ``presented`` is the sender's freshest echoed feedback, what the
    access router polices on; ``echo`` rides on ``nf-ctl`` packets from
    receiver back to sender; ``inner`` preserves whatever shim the
    packet already carried so host-side consumers still see it."""

    feedback: Optional[NetFenceFeedback] = None
    presented: Optional[NetFenceFeedback] = None
    echo: Optional[NetFenceFeedback] = None
    inner: object = None


def ensure_header(pkt: Packet) -> NetFenceHeader:
    """Wrap ``pkt`` in a :class:`NetFenceHeader` exactly once, charging
    the header bytes on first wrap."""
    hdr = pkt.shim
    if isinstance(hdr, NetFenceHeader):
        return hdr
    hdr = NetFenceHeader(inner=pkt.shim)
    pkt.shim = hdr
    pkt.size += NETFENCE_HEADER_BYTES
    return hdr


class _Limiter:
    """Per-(sender, bottleneck) leaky bucket plus its AIMD rate."""

    __slots__ = ("bucket", "rate_bps", "quiet")

    def __init__(self, rate_bps: float, burst_bytes: int) -> None:
        self.bucket = TokenBucket(rate_bps, burst_bytes=burst_bytes)
        self.rate_bps = rate_bps
        #: Consecutive control intervals with mono-only evidence; the
        #: limiter is released once this reaches the scheme's
        #: ``release_intervals`` (hysteresis against shrew-style pulsing).
        self.quiet = 0


class _SenderState:
    """Access-router state for one policed sender."""

    __slots__ = ("first_seen", "last_tick", "last_fresh", "mono_seen",
                 "cong_seen", "limiters")

    def __init__(self, now: float) -> None:
        self.first_seen = now
        self.last_tick = now
        #: Sim time of the last *fresh, valid* feedback evidence (presented
        #: or snooped); ``None`` until the loop first closes.
        self.last_fresh: Optional[float] = None
        self.mono_seen = False
        #: Bottleneck names with fresh ``cong`` evidence this interval.
        self.cong_seen: Set[str] = set()
        #: bottleneck name ("" = robustness default) -> limiter.
        self.limiters: Dict[str, _Limiter] = {}


class MarkingFifo(DropTailQueue):
    """NetFence's byte-limited FIFO with a congestion-mark threshold.

    Every *accepted* enqueue that leaves ``backlog_bytes`` at or above
    ``mark_threshold_bytes`` invokes ``mark_hook(pkt)`` — the hook
    :meth:`NetFenceScheme.wire` installs on router-egress links flips the
    packet's feedback stamp to ``cong`` there.  Dropped packets never fire
    it (they carry no feedback onward), and a queue nobody wired (host
    uplinks) never marks.
    """

    __slots__ = ("mark_threshold_bytes", "mark_hook")

    def __init__(self, limit_bytes: int, mark_threshold_bytes: int) -> None:
        super().__init__(limit_bytes=limit_bytes, limit_pkts=None)
        self.mark_threshold_bytes = mark_threshold_bytes
        self.mark_hook: Optional[Callable[[Packet], None]] = None

    def enqueue(self, pkt: Packet) -> bool:
        if not super().enqueue(pkt):
            return False
        if self.mark_hook is not None and self.backlog_bytes >= self.mark_threshold_bytes:
            self.mark_hook(pkt)
        return True

    def admit_idle(self, pkt: Packet, now: float) -> Optional[Packet]:
        head = super().admit_idle(pkt, now)
        # An accepted packet alone in the FIFO is the whole backlog.
        if (head is not None and self.mark_hook is not None
                and head.size >= self.mark_threshold_bytes):
            self.mark_hook(head)
        return head


class NetFenceRouterProcessor(RouterProcessor):
    """One NetFence router core.

    At the trust boundary (access router) it stamps MAC'd ``mono``
    feedback into every packet entering the domain, validates whatever
    feedback the sender presents, and enforces the sender's AIMD rate
    limiters.  In the core it is passive except for snooping validated
    feedback echoes travelling back toward its own senders — this is
    what lets it police raw flooders that never present anything.
    """

    def __init__(self, name: str, scheme: "NetFenceScheme", trust_boundary: bool) -> None:
        self.name = name
        self.scheme = scheme
        self.trust_boundary = trust_boundary
        self.secrets = SecretManager(
            seed=f"netfence-{name}-{scheme.seed}".encode(),
            period=scheme.secret_period,
        )
        self.restarts = 0
        #: Senders whose packets this core stamps; echoes addressed to
        #: them are snooped on the way through.
        self.local_senders: Set[int] = set()
        self._senders: Dict[int, _SenderState] = {}
        self.stamped = 0
        self.presented_valid = 0
        self.presented_invalid = 0
        self.echoes_snooped = 0
        self.cong_marks = 0
        self.policed_drops = 0

    # -- lifecycle -------------------------------------------------------
    def restart(self, now: float, new_seed: bytes = b"") -> None:
        """Reboot: limiter and feedback state is lost; a rotated secret
        invalidates every outstanding feedback MAC, exactly like TVA's
        capability secrets."""
        self.restarts += 1
        self._senders.clear()
        self.local_senders.clear()
        if new_seed:
            self.secrets = SecretManager(new_seed, period=self.secrets.period)

    @property
    def limiters_active(self) -> int:
        return sum(len(self._senders[src].limiters) for src in sorted(self._senders))

    # -- datapath --------------------------------------------------------
    def process(self, pkt: Packet, router: Router, in_link: Optional[Link],
                out_link: Optional[Link]) -> bool:
        now = router.sim.now
        if in_link is None or not in_link.boundary_ingress:
            # Core/transit direction: snoop feedback echoes flowing back
            # toward the senders this core stamps for.
            if pkt.proto == NF_CTL_PROTO and pkt.dst in self.local_senders:
                self._snoop(pkt, now)
            return True

        st = self._senders.get(pkt.src)
        if st is None:
            st = self._senders[pkt.src] = _SenderState(now)
        hdr = ensure_header(pkt)

        presented = hdr.presented
        if presented is not None:
            if self._validate(presented, pkt.src, now):
                self.presented_valid += 1
                self._note_evidence(st, presented, now)
            else:
                self.presented_invalid += 1

        self._tick(st, now)

        # Enforce every active limiter for this sender (typically one).
        # sorted() for deterministic order; consuming from earlier buckets
        # when a later one rejects slightly overcharges, which only makes
        # the policer stricter.
        for key in sorted(st.limiters):
            if not st.limiters[key].bucket.try_consume(pkt.size, now):
                self.policed_drops += 1
                return False

        # Stamp fresh mono feedback for the rest of the path.
        ts = self.secrets.timestamp(now)
        hdr.feedback = NetFenceFeedback(
            mark="mono", ts=ts, stamper=self.name, bottleneck="",
            mac=_feedback_mac(self.secrets.current_secret(now), pkt.src, "mono", ts, ""),
        )
        self.stamped += 1
        self.local_senders.add(pkt.src)
        return True

    def mark_cong(self, pkt: Packet, fb: NetFenceFeedback, bottleneck: str,
                  now: float) -> None:
        """Upgrade a ``mono`` stamp to ``cong`` at a congested bottleneck.

        Domain routers share keys, so the bottleneck re-MACs with the
        stamper's secret for the stamp's original timestamp.  If that
        secret has already rotated out the stamp is left alone — it will
        go stale on its own, which the robustness rule also reads as
        congestion."""
        secret = self.secrets.secret_for_timestamp(fb.ts, now)
        if secret is None:
            return
        fb.mark = "cong"
        fb.bottleneck = bottleneck
        fb.mac = _feedback_mac(secret, pkt.src, "cong", fb.ts, bottleneck)
        self.cong_marks += 1

    # -- internals -------------------------------------------------------
    def _validate(self, fb: NetFenceFeedback, src: int, now: float) -> bool:
        """MAC-check feedback against this core's rotating secrets and
        refuse anything older than ``feedback_expiry`` — stale feedback
        must never prove the absence of congestion."""
        if fb.stamper != self.name or fb.mark not in _MARK_CODES:
            return False
        age = (int(now) - fb.ts) % TIMESTAMP_MODULO
        if age > self.scheme.feedback_expiry:
            return False
        secret = self.secrets.secret_for_timestamp(fb.ts, now)
        if secret is None:
            return False
        return fb.mac == _feedback_mac(secret, src, fb.mark, fb.ts, fb.bottleneck)

    def _snoop(self, pkt: Packet, now: float) -> None:
        hdr = pkt.shim
        if not isinstance(hdr, NetFenceHeader) or hdr.echo is None:
            return
        st = self._senders.get(pkt.dst)
        if st is None:
            return
        if self._validate(hdr.echo, pkt.dst, now):
            self.echoes_snooped += 1
            self._note_evidence(st, hdr.echo, now)

    def _note_evidence(self, st: _SenderState, fb: NetFenceFeedback,
                       now: float) -> None:
        st.last_fresh = now
        if fb.mark == "cong":
            st.cong_seen.add(fb.bottleneck)
        else:
            st.mono_seen = True

    def _tick(self, st: _SenderState, now: float) -> None:
        """Advance the sender's AIMD control loop by at most one interval.

        Ticks are evaluated lazily on the sender's own packets, so an
        idle sender consumes no timer events and a returning one takes a
        single step, not one per elapsed interval."""
        k = self.scheme
        if now - st.last_tick < k.control_interval:
            return
        st.last_tick = now
        has_fresh = st.last_fresh is not None and now - st.last_fresh <= k.feedback_expiry

        decreased: Set[str] = set()
        for bneck in sorted(st.cong_seen):
            lim = st.limiters.get(bneck)
            if lim is None:
                lim = st.limiters[bneck] = self._new_limiter()
            self._decrease(lim, now)
            decreased.add(bneck)

        if not has_fresh:
            # Robustness rule: no fresh valid feedback at all is treated
            # as congestion, once the sender has been around long enough
            # for the echo loop to have plausibly closed.
            if now - st.first_seen >= k.grace:
                lim = st.limiters.get("")
                if lim is None:
                    lim = st.limiters[""] = self._new_limiter()
                if "" not in decreased:
                    self._decrease(lim, now)
                    decreased.add("")
        elif "" in st.limiters and "" not in decreased:
            # Valid feedback reappeared; evidence-keyed limiters take over.
            del st.limiters[""]

        if st.mono_seen:
            # sorted() snapshots the keys, so releases below are safe.
            for bneck in sorted(st.limiters):
                if bneck in decreased or bneck == "":
                    continue
                lim = st.limiters[bneck]
                lim.quiet += 1
                if lim.quiet >= k.release_intervals:
                    del st.limiters[bneck]
                else:
                    self._increase(lim, now)

        st.mono_seen = False
        st.cong_seen.clear()

    def _new_limiter(self) -> _Limiter:
        k = self.scheme
        return _Limiter(k.init_rate_bps, burst_bytes=self._burst_for(k.init_rate_bps))

    @staticmethod
    def _burst_for(rate_bps: float) -> int:
        """Burst allowance: 100 ms at the current rate, floored so an MTU
        packet always fits even at the minimum rate."""
        return max(3000, int(rate_bps / 8 * 0.1))

    def _decrease(self, lim: _Limiter, now: float) -> None:
        k = self.scheme
        rate = max(k.min_rate_bps, lim.rate_bps * (1.0 - k.beta))
        lim.rate_bps = rate
        lim.quiet = 0
        lim.bucket.set_rate(rate, now, burst_bytes=self._burst_for(rate))

    def _increase(self, lim: _Limiter, now: float) -> None:
        k = self.scheme
        rate = min(k.max_rate_bps, lim.rate_bps + k.alpha_bps)
        lim.rate_bps = rate
        lim.bucket.set_rate(rate, now, burst_bytes=self._burst_for(rate))


class NetFenceHostShim(HostShim):
    """Host side of NetFence.

    On receive it unwraps the stamped feedback and echoes the freshest
    one back to the sender on a bounded cadence — but only if the
    destination policy authorizes that sender, which is how Figure 9/11
    destinations starve attackers of fresh feedback.  On send it
    presents the freshest echo it holds for the destination."""

    #: Processing delay before an echo leaves the host.
    CONTROL_REPLY_DELAY = 0.002
    #: Minimum spacing between echoes to the same peer.  Data packets
    #: (not ``nf-ctl``) trigger echoes, so two idle hosts never ping-pong
    #: control packets at each other.
    ECHO_INTERVAL = 0.5

    def __init__(self, policy: Optional[DestinationPolicy] = None) -> None:
        self.policy = policy or ServerPolicy()
        self._present: Dict[int, NetFenceFeedback] = {}   # peer -> echo to present
        self._to_echo: Dict[int, NetFenceFeedback] = {}   # peer -> their freshest stamp
        self._last_echo: Dict[int, float] = {}
        self.echoes_sent = 0
        self.feedback_seen = 0

    def on_send(self, pkt: Packet) -> None:
        now = self.host.sim.now
        self.policy.note_outgoing_request(pkt.dst, now)
        hdr = ensure_header(pkt)
        fb = self._present.get(pkt.dst)
        if fb is not None:
            hdr.presented = fb.clone()

    def on_receive(self, pkt: Packet) -> bool:
        hdr = pkt.shim
        if not isinstance(hdr, NetFenceHeader):
            return True
        now = self.host.sim.now
        if hdr.feedback is not None:
            self.feedback_seen += 1
            if pkt.proto != NF_CTL_PROTO:
                self._to_echo[pkt.src] = hdr.feedback.clone()
                self._maybe_schedule_echo(pkt.src, now)
        if hdr.echo is not None:
            self._present[pkt.src] = hdr.echo.clone()
        # Unwrap so transports and policies see the original shim.
        pkt.shim = hdr.inner
        return pkt.proto != NF_CTL_PROTO

    # -- echo path -------------------------------------------------------
    def _maybe_schedule_echo(self, peer: int, now: float) -> None:
        last = self._last_echo.get(peer)
        if last is not None and now - last < self.ECHO_INTERVAL:
            return
        if self.policy.authorize(peer, now) is None:
            return
        self._last_echo[peer] = now
        self.host.sim.after(self.CONTROL_REPLY_DELAY, self._send_echo, peer)

    def _send_echo(self, peer: int) -> None:
        fb = self._to_echo.get(peer)
        if fb is None:
            return
        pkt = self.host.sim.alloc_packet(
            src=self.host.address, dst=peer, size=40 + NETFENCE_HEADER_BYTES,
            proto=NF_CTL_PROTO, created=self.host.sim.now,
        )
        pkt.shim = NetFenceHeader(echo=fb.clone())
        self.echoes_sent += 1
        self.host.send(pkt)


class NetFenceScheme(LegacyDefaults):
    """Factory wiring NetFence into a topology.

    Queues on router egress links are byte-limited (sized by
    :meth:`queue_limit`) with a congestion-mark threshold at
    ``mark_threshold_fraction`` of the limit; every router gets a
    :class:`NetFenceRouterProcessor` core sharing per-scheme keys."""

    name = "netfence"

    def __init__(
        self,
        secret_period: float = NETFENCE_SECRET_PERIOD,
        control_interval: float = 1.0,
        init_rate_bps: float = 2e6,
        min_rate_bps: float = 20e3,
        max_rate_bps: float = 10e6,
        alpha_bps: float = 200e3,
        beta: float = 0.5,
        feedback_expiry: float = FEEDBACK_EXPIRY,
        grace: float = 1.0,
        release_intervals: int = 4,
        mark_threshold_fraction: float = 0.25,
        destination_policy: Optional[Callable[[], DestinationPolicy]] = None,
        seed: int = 42,
    ) -> None:
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if min_rate_bps <= 0 or init_rate_bps < min_rate_bps:
            raise ValueError("need 0 < min_rate_bps <= init_rate_bps")
        self.secret_period = secret_period
        self.control_interval = control_interval
        self.init_rate_bps = init_rate_bps
        self.min_rate_bps = min_rate_bps
        self.max_rate_bps = max_rate_bps
        self.alpha_bps = alpha_bps
        self.beta = beta
        self.feedback_expiry = feedback_expiry
        self.grace = grace
        self.release_intervals = release_intervals
        self.mark_threshold_fraction = mark_threshold_fraction
        self.destination_policy = destination_policy or ServerPolicy
        self.seed = seed
        self.cores: Dict[str, NetFenceRouterProcessor] = {}
        self.shims: List[NetFenceHostShim] = []

    # -- factory surface -------------------------------------------------
    def make_qdisc(self, link_kind: str, bandwidth_bps: float) -> MarkingFifo:
        # Byte-limited FIFO sized by the protocol's byte budget, marking
        # from a fixed fraction of it (floored at two MTUs).
        limit = self.queue_limit(link_kind, bandwidth_bps)
        return MarkingFifo(
            limit_bytes=limit,
            mark_threshold_bytes=max(3000, int(limit * self.mark_threshold_fraction)),
        )

    def make_router_processor(self, router_name: str,
                              trust_boundary: bool) -> NetFenceRouterProcessor:
        proc = NetFenceRouterProcessor(router_name, self, trust_boundary)
        self.cores[router_name] = proc
        return proc

    def make_host_shim(self, role: str) -> NetFenceHostShim:
        if role == "destination":
            policy: DestinationPolicy = self.destination_policy()
        elif role == "colluder":
            policy = AlwaysGrant()
        else:
            policy = ClientPolicy()
        shim = NetFenceHostShim(policy=policy)
        self.shims.append(shim)
        return shim

    def wire(self, net: Network) -> None:
        """Install congestion-mark hooks on every router-egress queue.

        On an aggregate trunk ``link.qdisc`` is channel 0's queue; the
        lazily built per-member channels stay unhooked."""
        for link in sorted(net.links, key=lambda l: l.name):
            if isinstance(link.src, Router):
                link.qdisc.mark_hook = self._make_mark_hook(link)

    def _make_mark_hook(self, link: Link) -> Callable[[Packet], None]:
        def hook(pkt: Packet) -> None:
            hdr = pkt.shim
            if not isinstance(hdr, NetFenceHeader) or hdr.feedback is None:
                return
            fb = hdr.feedback
            if fb.mark == "cong":
                return  # the first congested bottleneck wins
            core = self.cores.get(fb.stamper)
            if core is not None:
                core.mark_cong(pkt, fb, link.name, link.sim.now)

        return hook

    def reboot_router(self, router_name: str, now: float,
                      rotate_secret: bool = True) -> bool:
        proc = self.cores.get(router_name)
        if proc is None:
            return False
        new_seed = b""
        if rotate_secret:
            new_seed = (
                f"netfence-{router_name}-{self.seed}-reboot-{proc.restarts + 1}".encode()
            )
        proc.restart(now, new_seed=new_seed)
        return True

    def metric_items(self) -> Iterator[Tuple[str, Callable[[], float]]]:
        for name in sorted(self.cores):
            proc = self.cores[name]
            prefix = f"router.{name}"
            yield f"{prefix}.stamped", (lambda p=proc: p.stamped)
            yield f"{prefix}.presented_valid", (lambda p=proc: p.presented_valid)
            yield f"{prefix}.presented_invalid", (lambda p=proc: p.presented_invalid)
            yield f"{prefix}.echoes_snooped", (lambda p=proc: p.echoes_snooped)
            yield f"{prefix}.cong_marks", (lambda p=proc: p.cong_marks)
            yield f"{prefix}.policed_drops", (lambda p=proc: p.policed_drops)
            yield f"{prefix}.limiters", (lambda p=proc: p.limiters_active)
            yield f"{prefix}.restarts", (lambda p=proc: p.restarts)
