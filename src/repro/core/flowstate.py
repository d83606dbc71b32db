"""Bounded router flow state (Section 3.6).

A router keeps per-flow state only for authorized flows that send faster
than N/T.  The trick is a time-to-live expressed in *time-equivalent
bytes*: when state is created for a packet of length L, its ttl is
L * T / N seconds; every charged packet adds its own time-equivalent.  A
flow sending slower than N/T lets its ttl lapse and its record may be
reclaimed; a capability can therefore be charged at most N bytes while it
has state plus N bytes sent below the tracking rate — the paper's 2N
worst-case bound — and the table never needs more than C/(N/T)min records
for an input link of capacity C.

The implementation keeps an expiry min-heap for O(log n) reclamation; heap
entries go stale when a ttl is extended, so each is re-validated against
the live record on pop (standard lazy-deletion)."""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from .capability import Capability
from .params import TvaParams


class FlowEntry:
    """Cached validation state for one (sender, destination) flow."""

    __slots__ = (
        "flow",
        "nonce",
        "capability",
        "n_bytes",
        "t_seconds",
        "byte_count",
        "ttl_expiry",
        "created",
    )

    def __init__(
        self,
        flow: Hashable,
        nonce: int,
        capability: Capability,
        n_bytes: int,
        t_seconds: int,
        now: float,
    ) -> None:
        self.flow = flow
        self.nonce = nonce
        self.capability = capability
        self.n_bytes = n_bytes
        self.t_seconds = t_seconds
        self.byte_count = 0
        self.ttl_expiry = now  # extended by charge()
        self.created = now

    def expired(self, now: float) -> bool:
        # Strictly after: a record created or charged at exactly ``now``
        # is still live in the same instant.
        return now > self.ttl_expiry


class FlowStateTable:
    """Fixed-capacity table of :class:`FlowEntry` records.

    ``capacity`` should be provisioned to C/(N/T)min (see
    :meth:`repro.core.params.TvaParams.state_bound_records`); with that
    provisioning the paper proves the table can never fill with live
    records, and :meth:`create` only fails under mis-provisioning.
    """

    def __init__(self, capacity: int, params: Optional[TvaParams] = None) -> None:
        if capacity <= 0:
            raise ValueError("table capacity must be positive")
        self.capacity = capacity
        self.params = params or TvaParams()
        self._entries: Dict[Hashable, FlowEntry] = {}
        self._expiry_heap: List[Tuple[float, Hashable]] = []
        # Tallies for tests, ops visibility, and the obs registry (the
        # scheme exports them per router as flowstate.*).
        self.created_total = 0
        self.reclaimed_total = 0
        self.create_failures = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def heap_size(self) -> int:
        """Size of the lazy expiry heap — bounded relative to live
        entries by :meth:`_compact_heap`, and exported as an obs gauge so
        regressions are visible in any metrics run."""
        return len(self._expiry_heap)

    # ------------------------------------------------------------------
    def lookup(self, flow: Hashable, now: float) -> Optional[FlowEntry]:
        """Return live state for ``flow``.  Expired records are treated as
        absent (they are reclaimable); they are physically removed either
        here or during :meth:`create`'s reclamation sweep."""
        entry = self._entries.get(flow)
        if entry is None:
            return None
        if entry.expired(now):
            del self._entries[flow]
            self.reclaimed_total += 1
            return None
        return entry

    def create(
        self,
        flow: Hashable,
        nonce: int,
        capability: Capability,
        n_bytes: int,
        t_seconds: int,
        now: float,
    ) -> Optional[FlowEntry]:
        """Allocate state for a newly validated capability.

        Reclaims expired records when at capacity; returns ``None`` only if
        every record is still live (the provisioning bound says this cannot
        happen when capacity >= C/(N/T)min)."""
        if len(self._entries) >= self.capacity and flow not in self._entries:
            self._reclaim(now)
            if len(self._entries) >= self.capacity:
                self.create_failures += 1
                return None
        entry = FlowEntry(flow, nonce, capability, n_bytes, t_seconds, now)
        self._entries[flow] = entry
        self.created_total += 1
        return entry

    def replace(
        self,
        entry: FlowEntry,
        nonce: int,
        capability: Capability,
        n_bytes: int,
        t_seconds: int,
        now: float,
    ) -> FlowEntry:
        """Swap in a renewed capability for an existing flow (Section 4.3:
        "the capability is checked and if valid, replaced in the cache
        entry").  The byte count restarts — it meters the new capability."""
        fresh = FlowEntry(entry.flow, nonce, capability, n_bytes, t_seconds, now)
        self._entries[entry.flow] = fresh
        return fresh

    # ------------------------------------------------------------------
    def charge(self, entry: FlowEntry, nbytes: int, now: float) -> bool:
        """Charge a packet to the capability.

        Returns ``False`` when the packet would push usage beyond N bytes
        (the router then demotes it).  On success the ttl is extended by
        the packet's time-equivalent nbytes * T / N."""
        if entry.byte_count + nbytes > entry.n_bytes:
            return False
        entry.byte_count += nbytes
        delta = nbytes * entry.t_seconds / entry.n_bytes
        entry.ttl_expiry = max(entry.ttl_expiry, now) + delta
        heapq.heappush(self._expiry_heap, (entry.ttl_expiry, entry.flow))
        self._compact_heap()
        return True

    def remove(self, flow: Hashable) -> None:
        """Explicitly drop a record (used by benches and by tests that
        exercise cache-miss paths deterministically)."""
        self._entries.pop(flow, None)

    #: Heap compaction thresholds: never rebuild below the floor (tiny
    #: heaps are cheap), otherwise rebuild once the heap exceeds this
    #: multiple of the live entry count.
    _HEAP_FLOOR = 64
    _HEAP_RATIO = 4

    def _compact_heap(self) -> None:
        """Keep ``_expiry_heap`` proportional to live entries.

        Lazy deletion means every ttl extension leaves a stale heap entry
        behind; without compaction the heap grows O(charged packets) over
        a long run.  Two cheap measures bound it: pop stale *heads* (an
        O(1) amortized nibble that keeps the heap front honest), and when
        staleness still wins — more than ``_HEAP_RATIO`` heap entries per
        live record — rebuild from the live table in one O(n) pass.
        """
        heap = self._expiry_heap
        while heap:
            expiry, flow = heap[0]
            entry = self._entries.get(flow)
            if entry is not None and entry.ttl_expiry == expiry:
                break
            heapq.heappop(heap)
        if len(heap) > max(self._HEAP_FLOOR, self._HEAP_RATIO * len(self._entries)):
            # Dict iteration order is insertion order, so the rebuilt heap
            # is identical across processes and hash seeds; sorting would
            # add O(n log n) to this compaction hot path for nothing.
            # repro: allow-unordered-iter — insertion order is arrival order
            rebuilt = [(e.ttl_expiry, f) for f, e in self._entries.items()]
            heapq.heapify(rebuilt)
            self._expiry_heap = rebuilt

    # ------------------------------------------------------------------
    def _reclaim(self, now: float) -> None:
        """Drop expired records, guided by the (lazily stale) expiry heap."""
        heap = self._expiry_heap
        while heap and heap[0][0] <= now:
            _, flow = heapq.heappop(heap)
            entry = self._entries.get(flow)
            if entry is not None and entry.expired(now):
                del self._entries[flow]
                self.reclaimed_total += 1
        # Entries that were never charged have no heap presence; sweep them
        # only if the heap alone freed nothing (rare).
        if len(self._entries) >= self.capacity:
            # repro: allow-unordered-iter — deletes are independent per flow
            dead = [f for f, e in self._entries.items() if e.expired(now)]
            for flow in dead:
                del self._entries[flow]
                self.reclaimed_total += 1
