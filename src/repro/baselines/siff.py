"""SIFF baseline (Yaar, Perrig & Song, Oakland 2004), as the paper models it.

Section 5 describes the comparison implementation: "SIFF treats capacity
requests as legacy traffic, does not limit the number of times a capability
is used to forward traffic, and does not balance authorized traffic sent to
different destinations."  Concretely:

* Explorer (request) packets collect a 2-bit mark per router, derived from
  a keyed hash of the connection endpoints; the destination returns the
  mark list to authorize the sender.
* Data packets carry the marks; each router recomputes its 2 bits and
  *drops* mismatches (SIFF has no demotion).
* Verified data gets strict priority; explorers share the low-priority
  FIFO with legacy traffic — the root of SIFF's vulnerability to request
  and legacy floods (Figures 8 and 9).
* Capabilities expire only via router secret rotation.  Figure 11 assumes
  an aggressive 3-second turnover with no previous-secret grace; the
  steady-state experiments use a longer period with the previous secret
  accepted, which is the most favourable configuration for SIFF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.crypto import SecretManager, keyed_hash56
from ..core.policy import AlwaysGrant, ClientPolicy, DestinationPolicy, ServerPolicy
from ..sim.link import Link
from ..sim.node import HostShim, Router, RouterProcessor
from ..sim.packet import Packet
from ..sim.queues import DropTailQueue, PriorityScheduler, Qdisc
from ..sim.topology import LegacyDefaults

#: SIFF stamps 2 bits per router.  Short marks are one of SIFF's known
#: weaknesses (the paper contrasts them with TVA's 64-bit capabilities):
#: after a secret rotation, a 2-bit mark still validates by collision with
#: probability 1/4 per router, so a fraction of "expired" senders keeps
#: flooding.  Experiments that study expiry in isolation (Figure 11) use
#: wider, idealized marks via the ``mark_bits`` knob.
MARK_BITS = 2

#: Flat shim overhead charged to SIFF packets (marks are tiny).
SIFF_HEADER_BYTES = 4

#: Default secret turnover for the steady-state experiments; Figure 11
#: overrides this to 3 seconds with no grace.
SIFF_SECRET_PERIOD = 30.0


@dataclass
class SiffExplorer:
    """An EXPLORER packet's shim: marks accumulate hop by hop."""

    marks: List[int] = field(default_factory=list)
    return_info: Optional["SiffReturn"] = None


@dataclass
class SiffData:
    """A DATA packet's shim: carries the mark list; ``hop_ptr`` plays the
    role of the per-hop field offset in the real header."""

    marks: List[int] = field(default_factory=list)
    hop_ptr: int = 0
    return_info: Optional["SiffReturn"] = None


@dataclass
class SiffReturn:
    """Reverse-direction payload: the destination echoing marks back."""

    marks: Optional[List[int]] = None


class SiffRouterProcessor(RouterProcessor):
    """Marks explorers, verifies data packets (dropping mismatches)."""

    def __init__(
        self,
        name: str,
        secret_period: float = SIFF_SECRET_PERIOD,
        accept_previous: bool = True,
        seed: int = 42,
        mark_bits: int = MARK_BITS,
    ) -> None:
        self.name = name
        self.secrets = SecretManager(
            seed=f"siff-{name}-{seed}".encode(), period=secret_period
        )
        self.accept_previous = accept_previous
        self.mark_mask = (1 << mark_bits) - 1
        self.marks_issued = 0
        self.data_verified = 0
        self.data_dropped = 0
        self.restarts = 0

    def restart(self, now: float, new_seed: bytes = b"") -> None:
        """Reboot: SIFF routers keep no flow state, but a crash replaces
        the marking secret, silently invalidating all outstanding marks."""
        self.restarts += 1
        if new_seed:
            self.secrets = SecretManager(new_seed, period=self.secrets.period)

    # ------------------------------------------------------------------
    def _mark(self, src: int, dst: int, epoch: int) -> int:
        secret = self.secrets.secret_for_epoch(epoch)
        return keyed_hash56(secret, src, dst) & self.mark_mask

    def process(
        self, pkt: Packet, router: Router, in_link: Optional[Link], out_link: Link
    ) -> bool:
        shim = pkt.shim
        now = router.sim.now
        if isinstance(shim, SiffExplorer):
            shim.marks.append(self._mark(pkt.src, pkt.dst, self.secrets.epoch(now)))
            self.marks_issued += 1
            return True
        if isinstance(shim, SiffData):
            if shim.hop_ptr >= len(shim.marks):
                self.data_dropped += 1
                return False
            carried = shim.marks[shim.hop_ptr]
            shim.hop_ptr += 1
            epoch = self.secrets.epoch(now)
            ok = carried == self._mark(pkt.src, pkt.dst, epoch)
            if not ok and self.accept_previous and epoch > 0:
                ok = carried == self._mark(pkt.src, pkt.dst, epoch - 1)
            if not ok:
                self.data_dropped += 1
                return False
            self.data_verified += 1
            return True
        return True  # legacy traffic passes unprocessed


class SiffHostShim(HostShim):
    """Host side of SIFF: explore when unauthorized, stamp marks when
    authorized, re-explore after transport timeouts (marks silently die
    when router secrets rotate).

    SIFF authorizations are *per flow*, not per host pair — Section 3.10
    contrasts this with TVA, where "all TCP connections or DNS exchanges
    between a pair of hosts can take place using a single capability".  We
    therefore key marks by (peer, local transport port): every new TCP
    connection performs its own explorer exchange, which is exactly why
    the paper's SIFF completion probability is per-transfer (1 - p^9)."""

    CONTROL_REPLY_DELAY = 0.002

    #: Re-explore when marks have aged past this fraction of their assumed
    #: lifetime, and how often to retry while the refresh is outstanding.
    REFRESH_FRACTION = 0.7
    REFRESH_RETRY = 0.2

    def __init__(
        self,
        policy: Optional[DestinationPolicy] = None,
        mark_lifetime: Optional[float] = None,
    ) -> None:
        self.policy = policy or ServerPolicy()
        #: How long senders assume marks stay valid (the router secret
        #: period).  When set, senders refresh proactively by sending an
        #: explorer before expiry — data rides on explorers in SIFF, so the
        #: refresh is free when the network is idle but is starved (low
        #: priority) under attack, exactly the paper's dynamics.
        self.mark_lifetime = mark_lifetime
        # (peer, local_port) -> our marks for that flow
        self._marks: Dict[tuple, List[int]] = {}
        self._marks_age: Dict[tuple, float] = {}
        self._last_refresh: Dict[tuple, float] = {}
        # (peer, peer_port) -> marks we have decided to return (authorized
        # at receive time; refusals produce no state and no reply at all,
        # so request floods cannot solicit reverse traffic).
        self._grant_to_send: Dict[tuple, List[int]] = {}
        self.explorers_sent = 0
        self.grants_sent = 0

    # -- outgoing ---------------------------------------------------------
    def _needs_refresh(self, key: tuple, now: float) -> bool:
        if self.mark_lifetime is None:
            return False
        if now - self._marks_age.get(key, now) < self.REFRESH_FRACTION * self.mark_lifetime:
            return False
        return now - self._last_refresh.get(key, -1e9) >= self.REFRESH_RETRY

    def on_send(self, pkt: Packet) -> None:
        now = self.host.sim.now
        peer = pkt.dst
        local_port = pkt.tcp.src_port if pkt.tcp is not None else None
        key = (peer, local_port)
        marks = self._marks.get(key)
        if marks is not None and not self._needs_refresh(key, now):
            shim = SiffData(marks=list(marks))
        else:
            if marks is not None:
                self._last_refresh[key] = now
            self.policy.note_outgoing_request(peer, now)
            self.explorers_sent += 1
            shim = SiffExplorer()
        # Deliver an already-authorized grant for the flow this packet
        # belongs to (their port is our packet's destination port).
        peer_port = pkt.tcp.dst_port if pkt.tcp is not None else None
        grant_marks = self._grant_to_send.pop((peer, peer_port), None)
        if grant_marks is not None:
            shim.return_info = SiffReturn(marks=grant_marks)
            self.grants_sent += 1
        pkt.shim = shim
        pkt.size += SIFF_HEADER_BYTES

    # -- incoming ---------------------------------------------------------
    def on_receive(self, pkt: Packet) -> bool:
        shim = pkt.shim
        if shim is None:
            return True
        if isinstance(shim, SiffExplorer) and shim.marks:
            if self.policy.authorize(pkt.src, self.host.sim.now) is not None:
                peer_port = pkt.tcp.src_port if pkt.tcp is not None else None
                self._grant_to_send[(pkt.src, peer_port)] = list(shim.marks)
                self.host.sim.after(
                    self.CONTROL_REPLY_DELAY, self._maybe_send_control, pkt.src
                )
        info = getattr(shim, "return_info", None)
        if info is not None and info.marks is not None:
            local_port = pkt.tcp.dst_port if pkt.tcp is not None else None
            key = (pkt.src, local_port)
            self._marks[key] = list(info.marks)
            self._marks_age[key] = self.host.sim.now
        return pkt.proto != "siff-ctl"

    def on_transport_timeout(self, peer: int) -> None:
        # Marks may have expired with a secret rotation; re-explore.
        for key in [k for k in self._marks if k[0] == peer]:
            del self._marks[key]
            self._marks_age.pop(key, None)
            self._last_refresh.pop(key, None)

    def authorized(self, peer: int) -> bool:
        # Portless (datagram) flows key their marks under (peer, None).
        return (peer, None) in self._marks

    def _maybe_send_control(self, peer: int) -> None:
        # The bare control packet can only answer portless (non-TCP) flows;
        # TCP flows piggyback their grant on the SYN/ACK within one RTT.
        if (peer, None) not in self._grant_to_send:
            return
        pkt = self.host.sim.alloc_packet(
            src=self.host.address,
            dst=peer,
            size=40,
            proto="siff-ctl",
            created=self.host.sim.now,
        )
        self.host.send(pkt)


def _siff_class(pkt: Packet) -> int:
    # Routers drop unverified data before enqueue, so any SiffData reaching
    # the queue is authorized (class 0); explorers and legacy share class 1.
    return 0 if isinstance(pkt.shim, SiffData) else 1


def _fifo_class(label: str) -> Callable[[], Tuple[Qdisc, None]]:
    def build() -> Tuple[Qdisc, None]:
        queue = DropTailQueue(limit_bytes=None, limit_pkts=50)
        queue.label = label
        return queue, None
    return build


#: Builders of the data and low classes, shared by every SIFF scheduler:
#: neither depends on the link.
_SIFF_CLASSES = (_fifo_class("data"), _fifo_class("low"))


class SiffScheme(LegacyDefaults):
    """Factory wiring SIFF into a topology."""

    name = "siff"

    def __init__(
        self,
        secret_period: float = SIFF_SECRET_PERIOD,
        accept_previous: bool = True,
        destination_policy=None,
        seed: int = 42,
        mark_bits: int = MARK_BITS,
    ) -> None:
        self.secret_period = secret_period
        self.accept_previous = accept_previous
        self.mark_bits = mark_bits
        self.destination_policy = destination_policy or ServerPolicy
        self.seed = seed
        self.processors: Dict[str, SiffRouterProcessor] = {}
        self.shims: Dict[str, SiffHostShim] = {}

    def make_qdisc(self, link_kind: str, bandwidth_bps: float) -> Qdisc:
        # Each class is built by its first packet (see _SIFF_CLASSES).
        return PriorityScheduler(_siff_class, _SIFF_CLASSES)

    def make_router_processor(self, router_name: str, trust_boundary: bool):
        proc = SiffRouterProcessor(
            router_name,
            secret_period=self.secret_period,
            accept_previous=self.accept_previous,
            seed=self.seed,
            mark_bits=self.mark_bits,
        )
        self.processors[router_name] = proc
        return proc

    def make_host_shim(self, role: str) -> Optional[HostShim]:
        if role == "destination":
            policy = self.destination_policy()
        elif role == "colluder":
            policy = AlwaysGrant()
        else:
            policy = ClientPolicy()
        shim = SiffHostShim(
            policy=policy,
            mark_lifetime=self.secret_period,
        )
        self.shims[role] = shim
        return shim

    def reboot_router(
        self, router_name: str, now: float, rotate_secret: bool = True
    ) -> bool:
        proc = self.processors.get(router_name)
        if proc is None:
            return False
        new_seed = b""
        if rotate_secret:
            new_seed = (
                f"siff-{router_name}-{self.seed}-reboot-{proc.restarts + 1}".encode()
            )
        proc.restart(now, new_seed=new_seed)
        return True

    def metric_items(self):
        for name in sorted(self.processors):
            proc = self.processors[name]
            prefix = f"router.{name}"
            yield f"{prefix}.marks_issued", (lambda p=proc: p.marks_issued)
            yield f"{prefix}.data_verified", (lambda p=proc: p.data_verified)
            yield f"{prefix}.data_dropped", (lambda p=proc: p.data_dropped)
            yield f"{prefix}.restarts", (lambda p=proc: p.restarts)
