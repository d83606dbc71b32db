"""Static shortest-path routing.

The paper's simulations use fixed routes on a dumbbell; we compute them
once, up front, with breadth-first search over the node graph (all links
weigh 1 hop).  A node's ``routing`` table maps a destination *address*
(host addresses only — routers are not packet destinations) to the outgoing
:class:`~repro.sim.link.Link` on the shortest path.

Only nodes with a choice to make keep a table: every router, and every
host whose number of outgoing links is not one.  A host on a single
access link — every host of every topology generator here, as in the
paper's Figure 7 — sends through that link as through a default gateway,
so routing costs one search per host over the routers only, and the
tables hold routers x hosts entries rather than nodes x hosts.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, Optional

from .link import Link
from .node import AggregateHost, Host, Node


class RoutingError(Exception):
    """Raised when a host is unreachable from some node."""


def _block(host: Host) -> tuple:
    """The address block ``[lo, hi)`` a host answers for."""
    if isinstance(host, AggregateHost):
        return host.address, host.address + host.count
    return host.address, host.address + 1


def _install(node: Node, lo: int, hi: int, link: Link) -> None:
    if hi - lo == 1:
        node.routing[lo] = link
    else:
        node.routing_ranges.append((lo, hi, link))


def _installed(node: Node, lo: int, hi: int) -> bool:
    if hi - lo == 1:
        return lo in node.routing
    return any(entry[0] == lo for entry in node.routing_ranges)


def build_static_routes(nodes: List[Node], strict: bool = True) -> None:
    """Populate the routing table of every node that has a choice to make.

    Only routers, and hosts whose number of outgoing links is not one,
    keep a table.  A single-uplink host sends everything over its uplink
    (``Host.send`` falls back to ``links_out[0]``), exactly as a real
    host uses its default gateway, and it never forwards
    (``Host.receive`` drops anything not addressed to it), so it is left
    out of the search entirely: its table stays empty, and no other
    node's route or tie-break can depend on it.  Routers keep a table
    even with one outgoing link, since ``Router.receive`` has no default
    route.  Set-up is therefore linear in hosts: one search per host over
    the table-keeping nodes only.

    For each host H, run a BFS backwards from H over reverse links; for
    every table-keeping node, the first hop on the shortest path to H
    becomes the route.  With symmetric topologies (every builder in this
    package creates duplex links) a forward BFS from each node would give
    identical results, but the backward sweep is O(hosts * edges) instead
    of O(nodes * edges).

    Equal-cost ties break deterministically: each node's incoming links
    are explored in sorted ``(src.name, dst.name, name)`` order, so the
    chosen route is a pure function of the graph — independent of node
    construction order and of ``PYTHONHASHSEED``.  (On ``build_parallel``
    this preserves the documented RA-over-RB preference.)

    An :class:`~repro.sim.node.AggregateHost` installs one
    ``routing_ranges`` block entry per node instead of ``count``
    per-address entries, and costs one BFS instead of ``count``.

    Down links (``link.up`` is ``False``) are ignored, so a rebuild after a
    fault routes around the failure.  Every table is cleared first: a
    destination that became unreachable must not keep a route through the
    dead link.  A host is unreachable from a single-uplink host unless
    that uplink is up and its far end reaches the host.  ``strict=False``
    additionally tolerates unreachable hosts instead of raising — the
    fault-injection ``RouteChange`` event uses it, since a partitioned
    network is a valid state mid-experiment (affected senders simply
    black-hole until the partition heals and routes are rebuilt again).
    """
    # Reverse adjacency: for BFS from the destination we need, for each
    # node, the links that point *at* it from a table-keeping node.
    incoming: Dict[Node, List[Link]] = {node: [] for node in nodes}
    #: single-uplink host -> the far end of its uplink (``None`` while down)
    anchor: Dict[Node, Optional[Node]] = {}
    for node in nodes:
        node.routing.clear()
        node.routing_ranges.clear()
        if isinstance(node, Host) and len(node.links_out) == 1:
            uplink = node.links_out[0]
            anchor[node] = uplink.dst if uplink.up else None
            continue
        for link in node.links_out:
            if link.up and link.dst in incoming:
                incoming[link.dst].append(link)
    for node in nodes:
        incoming[node].sort(key=lambda l: (l.src.name, l.dst.name, l.name))
    leaves = Counter(anchor.values())

    hosts = [node for node in nodes if isinstance(node, Host)]
    for host in hosts:
        lo, hi = _block(host)
        dist: Dict[Node, int] = {host: 0}
        frontier = deque([host])
        while frontier:
            cur = frontier.popleft()
            for link in incoming[cur]:
                prev = link.src
                if prev not in dist:
                    dist[prev] = dist[cur] + 1
                    _install(prev, lo, hi, link)
                    frontier.append(prev)
                elif dist[prev] == dist[cur] + 1 and not _installed(prev, lo, hi):
                    _install(prev, lo, hi, link)
        # Nodes other than ``host`` that reach it, counted without a scan.
        reached = (len(dist) - 1 + sum(leaves[n] for n in dist)
                   - (anchor.get(host) in dist))
        if strict and reached < len(nodes) - 1:
            unreachable = [n.name for n in nodes
                           if n is not host and anchor.get(n, n) not in dist]
            raise RoutingError(
                f"host {host.name} (addr {host.address}) unreachable from: {unreachable}"
            )
