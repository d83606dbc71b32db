"""Path identifiers (Section 3.2).

Routers at the ingress of a trust boundary (e.g. an AS edge) tag request
packets with a 16-bit value derived from the incoming interface — a
pseudo-random hash, so it is likely unique across the boundary.  The tag
sequence approximates a source locator: request queues are keyed on the
most recent tag, giving fair queuing over upstream parties without
trusting source addresses.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..perf.counters import PERF
from .params import PATH_ID_BITS

_PID_MASK = (1 << PATH_ID_BITS) - 1

#: Tag memo: an ingress interface's tag is a pure function of its
#: identity, and a topology has finitely many interfaces, so the memo is
#: naturally bounded.  Requests re-tag at every boundary hop — without
#: this, a digest per tagged request.
_TAG_CACHE: Dict[Tuple[str, str, bytes], int] = {}


def interface_tag(router_name: str, interface_id: str, salt: bytes = b"") -> int:
    """Deterministic pseudo-random 16-bit tag for an ingress interface."""
    key = (router_name, interface_id, salt)
    tag = _TAG_CACHE.get(key)
    if tag is None:
        PERF.hashes += 1
        # repro: allow-p001 — one digest per distinct interface, memoized
        digest = hashlib.blake2b(
            f"{router_name}|{interface_id}".encode() + salt, digest_size=4
        ).digest()
        tag = _TAG_CACHE[key] = int.from_bytes(digest, "big") & _PID_MASK
    return tag


def clear_tag_cache() -> None:
    """Empty the process-wide tag memo.

    Tags recompute to identical values, so this never changes behavior;
    ``tests/eval/test_golden_runs.py::probed_run`` calls it so each
    golden spec's op counts are cold-start numbers, independent of what
    ran earlier in the process.
    """
    _TAG_CACHE.clear()


def most_recent_tag(path_ids: List[int]) -> Optional[int]:
    """The queueing key for a request: its last (nearest) tag, or ``None``
    for untagged requests (which share one queue)."""
    if not path_ids:
        return None
    return path_ids[-1]
