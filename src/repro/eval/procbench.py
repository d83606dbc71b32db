"""Packet-processing micro-benchmarks (Table 1 and Figure 12).

The paper measures its Linux kernel module's per-packet processing cost
for five packet types and the router's forwarding rate as the offered load
rises.  Absolute numbers are a property of the 2005 Xeon and the kernel;
what the design determines — and what this reproduction checks — is the
*cost structure*:

* regular packet with a cached entry: no hash, just a table lookup —
  the cheapest by an order of magnitude;
* request: one pre-capability hash;
* renewal with a cached entry: one fresh pre-capability hash (≈ request);
* regular without a cached entry: two hashes to validate;
* renewal without a cached entry: three hashes (validate + fresh mint) —
  the most expensive.

:class:`RouterWorkbench` drives a real :class:`TvaRouterCore` with
synthetic packets of each type; the cache-miss kinds evict the created
record *and* the router's validation-verdict memo after each packet so
every packet exercises the full miss path (the memo would otherwise turn
"uncached" into the Table 1 cached row it exists to model).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.capability import capability_from_precapability, mint_precapability
from ..core.crypto import SecretManager
from ..core.flowstate import FlowStateTable
from ..core.header import RegularHeader, RequestHeader
from ..core.router import TvaRouterCore

#: The packet types of Table 1 plus the legacy-IP baseline of Figure 12.
PACKET_KINDS = (
    "legacy",
    "regular_cached",
    "request",
    "renewal_cached",
    "regular_uncached",
    "renewal_uncached",
)

_GRANT_BYTES = 1020 * 1024
_GRANT_SECONDS = 60
_PACKET_SIZE = 1000
_NOW = 1000.0  # fixed clock: capabilities minted here stay valid


@dataclass
class ProcessingCost:
    """One Table 1 row."""

    kind: str
    ns_per_packet: float

    @property
    def peak_kpps(self) -> float:
        """Peak forwarding rate implied by the cost (Figure 12's plateau)."""
        return 1e6 / self.ns_per_packet


class RouterWorkbench:
    """A standalone TVA router plus packet factories for every kind."""

    def __init__(self, pool_size: int = 512, seed: int = 7) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size!r}")
        self.secrets = SecretManager(seed=f"bench-{seed}".encode())
        self.state = FlowStateTable(capacity=max(4 * pool_size, 1024))
        self.core = TvaRouterCore(
            "bench", self.secrets, self.state, trust_boundary=True
        )
        self.pool_size = pool_size
        self.dst = 10_000
        # Pre-mint a pool of valid capabilities, one per source address.
        self._caps = []
        for i in range(pool_size):
            src = 1 + i
            pre = mint_precapability(self.secrets, src, self.dst, _NOW)
            cap = capability_from_precapability(pre, _GRANT_BYTES, _GRANT_SECONDS)
            self._caps.append((src, cap))
        # One established flow for the cached kinds.
        self.cached_src = 999_999
        self._establish_cached_flow()

    def _establish_cached_flow(self) -> None:
        pre = mint_precapability(self.secrets, self.cached_src, self.dst, _NOW)
        cap = capability_from_precapability(pre, _GRANT_BYTES, _GRANT_SECONDS)
        shim = RegularHeader(
            flow_nonce=4242,
            n_bytes=_GRANT_BYTES,
            t_seconds=_GRANT_SECONDS,
            capabilities=[cap],
        )
        shim.cap_ptr = 0
        verdict, _ = self.core.process_regular(
            self.cached_src, self.dst, _PACKET_SIZE, shim, _NOW
        )
        if verdict != "regular":
            raise RuntimeError("failed to establish the cached bench flow")

    # ------------------------------------------------------------------
    # Per-kind batch drivers.  Each call processes ``batch`` packets and
    # restores the workbench so the next call measures the same path.
    # ------------------------------------------------------------------
    def run_batch(self, kind: str, batch: int = 256) -> None:
        if kind == "legacy":
            self._batch_legacy(batch)
        elif kind == "regular_cached":
            self._batch_cached(batch, renewal=False)
        elif kind == "renewal_cached":
            self._batch_cached(batch, renewal=True)
        elif kind == "request":
            self._batch_request(batch)
        elif kind == "regular_uncached":
            self._batch_uncached(batch, renewal=False)
        elif kind == "renewal_uncached":
            self._batch_uncached(batch, renewal=True)
        else:
            raise ValueError(f"unknown packet kind {kind!r}")

    def _batch_legacy(self, batch: int) -> None:
        process = self.core.process
        for _ in range(batch):
            process(1, self.dst, _PACKET_SIZE, None, _NOW)

    def _batch_request(self, batch: int) -> None:
        process = self.core.process_request
        for _ in range(batch):
            # A fresh header each time; routers append to it.
            process(1, self.dst, RequestHeader(), _NOW, "if0")

    def _batch_cached(self, batch: int, renewal: bool) -> None:
        entry = self.state.lookup((self.cached_src, self.dst), _NOW)
        process = self.core.process_regular
        for _ in range(batch):
            shim = RegularHeader(flow_nonce=4242, renewal=renewal)
            if renewal:
                shim.capabilities = None  # nonce matches; caps unneeded
            verdict, _ = process(self.cached_src, self.dst, _PACKET_SIZE, shim, _NOW)
            if verdict != "regular":  # pragma: no cover - bench invariant
                raise RuntimeError("cached bench packet was demoted")
        # Reset the budget so long benchmark runs never exhaust N.
        entry.byte_count = 0

    def _batch_uncached(self, batch: int, renewal: bool) -> None:
        process = self.core.process_regular
        remove = self.state.remove
        uncache = self.core.clear_validation_cache
        caps = self._caps
        pool = len(caps)
        for i in range(batch):
            src, cap = caps[i % pool]
            shim = RegularHeader(
                flow_nonce=7,
                n_bytes=_GRANT_BYTES,
                t_seconds=_GRANT_SECONDS,
                capabilities=[cap],
                renewal=renewal,
            )
            shim.cap_ptr = 0
            verdict, _ = process(src, self.dst, _PACKET_SIZE, shim, _NOW)
            if verdict != "regular":  # pragma: no cover - bench invariant
                raise RuntimeError("uncached bench packet failed validation")
            remove((src, self.dst))  # force the miss path next time
            uncache()  # and the verdict-memo miss path too

    # ------------------------------------------------------------------
    # Wire-level path: includes Figure 5 decode/encode per packet, the
    # way a real forwarding engine would pay it.
    # ------------------------------------------------------------------
    def run_wire_batch(self, kind: str, batch: int = 256) -> None:
        """Like :meth:`run_batch` but through the byte-level pipeline."""
        if kind == "request":
            raw = RequestHeader().pack()
            for _ in range(batch):
                verdict, _ = self.core.process_wire(
                    1, self.dst, _PACKET_SIZE, raw, _NOW, "if0"
                )
                if verdict != "request":  # pragma: no cover
                    raise RuntimeError("wire request failed")
            return
        if kind == "regular_cached":
            raw = RegularHeader(flow_nonce=4242).pack()
            entry = self.state.lookup((self.cached_src, self.dst), _NOW)
            for _ in range(batch):
                verdict, _ = self.core.process_wire(
                    self.cached_src, self.dst, _PACKET_SIZE, raw, _NOW
                )
                if verdict != "regular":  # pragma: no cover
                    raise RuntimeError("wire cached packet demoted")
            entry.byte_count = 0
            return
        if kind == "regular_uncached":
            pool = len(self._caps)
            for i in range(batch):
                src, cap = self._caps[i % pool]
                raw = RegularHeader(
                    flow_nonce=7,
                    n_bytes=_GRANT_BYTES,
                    t_seconds=_GRANT_SECONDS,
                    capabilities=[cap],
                ).pack()
                verdict, _ = self.core.process_wire(
                    src, self.dst, _PACKET_SIZE, raw, _NOW
                )
                if verdict != "regular":  # pragma: no cover
                    raise RuntimeError("wire uncached packet demoted")
                self.state.remove((src, self.dst))
                self.core.clear_validation_cache()
            return
        raise ValueError(f"unsupported wire kind {kind!r}")


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def measure_processing_costs(
    kinds: Sequence[str] = PACKET_KINDS,
    packets_per_kind: int = 20_000,
    batch: int = 256,
) -> Dict[str, ProcessingCost]:
    """Time each packet kind and return ns/packet (Table 1's analogue)."""
    if packets_per_kind < 1:
        raise ValueError(f"packets_per_kind must be >= 1, got {packets_per_kind!r}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch!r}")
    bench = RouterWorkbench()
    costs: Dict[str, ProcessingCost] = {}
    for kind in kinds:
        bench.run_batch(kind, batch)  # warm up
        done = 0
        start = time.perf_counter()
        while done < packets_per_kind:
            bench.run_batch(kind, batch)
            done += batch
        elapsed = time.perf_counter() - start
        costs[kind] = ProcessingCost(kind, elapsed / done * 1e9)
    return costs


# ---------------------------------------------------------------------------
# Figure 12
# ---------------------------------------------------------------------------

def forwarding_rate_curve(
    kind: str,
    input_rates_kpps: Sequence[float] = (50, 100, 200, 300, 400),
    measure_packets: int = 20_000,
) -> List[Tuple[float, float]]:
    """Output rate vs input rate for one packet kind.

    A software router's output rate tracks the input rate until the CPU
    saturates at the kind's peak processing rate, then plateaus — the
    shape of Figure 12.  We measure the peak from the real pipeline and
    report min(input, peak).  ``measure_packets`` is the
    ``packets_per_kind`` of that measurement."""
    costs = measure_processing_costs(
        kinds=(kind,), packets_per_kind=measure_packets
    )
    peak_kpps = costs[kind].peak_kpps
    return [(rate, min(rate, peak_kpps)) for rate in input_rates_kpps]


def format_table1(costs: Dict[str, ProcessingCost]) -> str:
    """Render Table 1: processing overhead of different packet types."""
    label = {
        "request": "Request",
        "regular_cached": "Regular with a cached entry",
        "regular_uncached": "Regular without a cached entry",
        "renewal_cached": "Renewal with a cached entry",
        "renewal_uncached": "Renewal without a cached entry",
        "legacy": "Legacy IP (baseline)",
    }
    lines = [f"{'Packet type':34s} {'ns/pkt':>10s} {'peak kpps':>10s}"]
    for kind in PACKET_KINDS:
        if kind not in costs:
            continue
        cost = costs[kind]
        lines.append(
            f"{label[kind]:34s} {cost.ns_per_packet:10.0f} {cost.peak_kpps:10.1f}"
        )
    return "\n".join(lines)
