"""Wiring TVA into a topology (Figure 2's queue management + Figure 6's
router pipeline + the host proxy), packaged as a
:class:`~repro.sim.topology.SchemeFactory`.

Each outgoing link of a TVA router schedules three classes:

1. requests — confined to ``request_fraction`` of the link by a token
   bucket and fair-queued per path identifier;
2. regular (authorized) packets — fair-queued per destination address over
   the flows whose capabilities are cached;
3. legacy and demoted traffic — FIFO, lowest priority.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..sim.node import HostShim, RouterProcessor
from ..sim.packet import Packet
from ..sim.queues import (
    DropTailQueue,
    DRRFairQueue,
    PriorityScheduler,
    Qdisc,
    StochasticFairQueue,
    TokenBucket,
)
from ..sim.topology import LegacyDefaults, SchemeKnobs
from .crypto import SecretManager
from .flowstate import FlowStateTable
from .header import figure2_class
from .host import TvaHostShim
from .params import REQUEST_FRACTION_SIM, TvaParams
from .pathid import most_recent_tag
from .policy import (
    DEFAULT_SERVER_GRANT,
    GRANT_NEEDS,
    AlwaysGrant,
    ClientPolicy,
    DestinationPolicy,
    ServerPolicy,
    as_grant,
    is_grant,
)
from .router import TvaRouterCore, TvaRouterProcessor


@dataclass(frozen=True)
class TvaKnobs(SchemeKnobs):
    """TVA knobs (the paper's own scheme)."""

    #: What the destination's public-server policy grants each sender.
    server_grant: Tuple[int, float] = DEFAULT_SERVER_GRANT
    #: Each link's request channel: Section 5's 1%, not Section 3.2's 5% cap.
    request_fraction: float = REQUEST_FRACTION_SIM
    #: Fair queuing for the regular class: per-key DRR (the paper's
    #: design) or SFQ (the Section 3.9 alternative it argues against).
    regular_qdisc: str = "drr"

    def __post_init__(self) -> None:
        object.__setattr__(self, "server_grant", as_grant(self.server_grant))
        self._require("server_grant", is_grant(self.server_grant), GRANT_NEEDS)
        self._require("request_fraction", 0 < self.request_fraction < 1,
                      "0 < request_fraction < 1")
        self._require("regular_qdisc", self.regular_qdisc in ("drr", "sfq"),
                      "'drr' or 'sfq'")


def _request_key(pkt: Packet):
    return most_recent_tag(pkt.shim.path_ids)


def _single_queue_key(pkt: Packet):
    return 0


def _destination_key(pkt: Packet):
    return pkt.dst


def _source_key(pkt: Packet):
    # Section 7 warns against this when sources can be spoofed; offered for
    # the ablation study and for ISPs whose customers are the senders.
    return pkt.src


def _legacy_class() -> Tuple[Qdisc, None]:
    queue = DropTailQueue(limit_bytes=None, limit_pkts=50)
    queue.label = "legacy"
    return queue, None


class TvaScheme(LegacyDefaults):
    """Factory producing TVA queue disciplines, routers, and host shims.

    Beyond the knobs, the keywords after ``destination_policy`` are
    library-only ablation switches, not reachable from a spec."""

    name = "tva"
    Knobs = TvaKnobs

    def __init__(
        self,
        knobs: Optional[TvaKnobs] = None,
        *,
        seed: int = 42,
        destination_policy: Optional[Callable[[], DestinationPolicy]] = None,
        params: Optional[TvaParams] = None,
        state_capacity: Optional[int] = None,
        regular_queue_key: str = "destination",
        request_fair_queue: bool = True,
        infer_dead_caps: bool = True,
        sfq_buckets: int = 64,
    ) -> None:
        if regular_queue_key not in ("destination", "source"):
            raise ValueError("regular_queue_key must be 'destination' or 'source'")
        self.knobs = k = knobs or TvaKnobs()
        self.params = params or TvaParams()
        self.destination_policy = destination_policy or partial(
            ServerPolicy, default_grant=k.server_grant)
        self.state_capacity = state_capacity
        self.seed = seed
        #: Which address authorized traffic is fair-queued on (Section 3.9:
        #: destination by default; source only where sources are trusted).
        self.regular_queue_key = regular_queue_key
        #: Whether requests are fair-queued per path identifier (the
        #: design) or share one FIFO (an ablation showing why Pi-style
        #: tags matter).
        self.request_fair_queue = request_fair_queue
        #: Section 3.8 dead-capability inference for honest-role shims.
        self.infer_dead_caps = infer_dead_caps
        #: SFQ bucket count when the ``regular_qdisc`` knob is ``"sfq"``.
        self.sfq_buckets = sfq_buckets
        self.rng = random.Random(seed)
        self.router_cores: Dict[str, TvaRouterCore] = {}
        self.shims: Dict[str, TvaHostShim] = {}
        #: make_qdisc's class builders per (link kind, bandwidth).
        self._class_builders: Dict[Tuple[str, float], tuple] = {}

    # ------------------------------------------------------------------
    def make_qdisc(self, link_kind: str, bandwidth_bps: float) -> Qdisc:
        builders = self._class_builders.get((link_kind, bandwidth_bps))
        if builders is None:
            builders = self._class_builders[link_kind, bandwidth_bps] = (
                self._figure2_builders(link_kind, bandwidth_bps))
        # Each class is built by its first packet: a legacy flooder's
        # channel never pays for the request and regular classes.
        return PriorityScheduler(figure2_class, builders)

    def _figure2_builders(
        self, link_kind: str, bandwidth_bps: float
    ) -> Tuple[Callable[[], Tuple[Qdisc, Optional[TokenBucket]]], ...]:
        """Builders of the three classes, in figure2_class order: 0
        request, 1 regular, 2 legacy.  Every scheduler on such a link
        shares them; they read the scheme's settings once, here."""
        legacy_limit = self.queue_limit(link_kind, bandwidth_bps)
        request_rate = bandwidth_bps * self.knobs.request_fraction
        request_burst = max(3000, int(request_rate / 8 * 0.1))
        request_fair = self.request_fair_queue
        regular_key = (
            _destination_key if self.regular_queue_key == "destination" else _source_key
        )
        regular_limit = max(16_000, legacy_limit // 2)
        sfq_buckets = self.sfq_buckets if self.knobs.regular_qdisc == "sfq" else None

        def request() -> Tuple[Qdisc, TokenBucket]:
            queue = DRRFairQueue(
                key_fn=_request_key if request_fair else _single_queue_key,
                limit_bytes_per_queue=4000 if request_fair else 16_000,
                max_queues=4096,
                quantum=500,
            )
            queue.label = "request"
            return queue, TokenBucket(rate_bps=request_rate, burst_bytes=request_burst)

        def regular() -> Tuple[Qdisc, None]:
            if sfq_buckets is not None:
                queue: Qdisc = StochasticFairQueue(
                    key_fn=regular_key,
                    n_buckets=sfq_buckets,
                    limit_bytes_per_queue=regular_limit,
                    quantum=1500,
                )
            else:
                queue = DRRFairQueue(
                    key_fn=regular_key,
                    limit_bytes_per_queue=regular_limit,
                    max_queues=4096,
                    quantum=1500,
                )
            queue.label = "regular"
            return queue, None

        return (request, regular, _legacy_class)

    # ------------------------------------------------------------------
    def make_router_processor(
        self, router_name: str, trust_boundary: bool
    ) -> Optional[RouterProcessor]:
        secrets = SecretManager(
            seed=f"router-{router_name}-{self.seed}".encode(),
            period=self.params.secret_period,
        )
        capacity = self.state_capacity or self.params.state_bound_records(1e9)
        core = TvaRouterCore(
            name=router_name,
            secrets=secrets,
            state=FlowStateTable(capacity, self.params),
            trust_boundary=trust_boundary,
            params=self.params,
        )
        self.router_cores[router_name] = core
        return TvaRouterProcessor(core)

    # ------------------------------------------------------------------
    def make_host_shim(self, role: str) -> Optional[HostShim]:
        policy: DestinationPolicy
        if role == "destination":
            policy = self.destination_policy()
        elif role == "colluder":
            policy = AlwaysGrant()
        else:  # users and attackers behave as clients
            policy = ClientPolicy()
        shim = TvaHostShim(
            policy=policy,
            seed=self.rng.getrandbits(32),
            renewal_threshold=self.params.renewal_threshold,
            # Modelled attackers never conclude their capabilities are
            # dead — they keep blasting them at full rate.
            infer_dead_caps=self.infer_dead_caps and role != "attacker",
        )
        self.shims[role] = shim
        return shim

    # ------------------------------------------------------------------
    def reboot_router(
        self, router_name: str, now: float, rotate_secret: bool = True
    ) -> bool:
        """Reboot hook for fault injection (Section 3.8's failure model).

        Flow state is always lost; ``rotate_secret`` additionally replaces
        the pre-capability secret, so every capability issued before the
        reboot fails validation and senders fall back to re-requesting.
        The new seed is derived from the scheme seed and restart count, so
        reboots stay deterministic across runs and worker processes.
        """
        core = self.router_cores.get(router_name)
        if core is None:
            return False
        new_seed = b""
        if rotate_secret:
            new_seed = (
                f"router-{router_name}-{self.seed}-reboot-{core.restarts + 1}".encode()
            )
        core.restart(now, new_seed=new_seed)
        return True

    # ------------------------------------------------------------------
    def metric_items(self) -> Iterable[Tuple[str, Callable[[], float]]]:
        """TVA's router pipeline tallies and flow-state occupancy.

        Flow-state gauges close over the *core*, not its current table —
        ``restart()`` swaps the table out, and they must track the live
        one.
        """
        for name in sorted(self.router_cores):
            core = self.router_cores[name]
            prefix = f"router.{name}"
            for cname, read in core.metric_items():
                yield f"{prefix}.{cname}", read
            yield f"{prefix}.flowstate.entries", (lambda c=core: len(c.state))
            yield f"{prefix}.flowstate.heap", (lambda c=core: c.state.heap_size)
            yield f"{prefix}.flowstate.created", (
                lambda c=core: c.state.created_total
            )
            yield f"{prefix}.flowstate.reclaimed", (
                lambda c=core: c.state.reclaimed_total
            )
            yield f"{prefix}.flowstate.create_failures", (
                lambda c=core: c.state.create_failures
            )
