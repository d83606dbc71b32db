"""Packet-level discrete-event network simulator (the ns-2 substitute).

Public surface::

    from repro.sim import Simulator, Packet, Link, Host, Router
    from repro.sim import DropTailQueue, DRRFairQueue, TokenBucket, PriorityScheduler
    from repro.sim import build_dumbbell, SchemeFactory, TransferLog
"""

from .engine import Event, SimulationError, Simulator
from .link import AggregateLink, Link
from .node import AggregateHost, Host, HostShim, Node, Router, RouterProcessor
from .packet import CAPABILITY_HEADER, IP_TCP_HEADER, Packet
from .queues import (
    DRRFairQueue,
    DropTailQueue,
    PriorityScheduler,
    Qdisc,
    TokenBucket,
)
from .routing import RoutingError, build_static_routes
from .topology import (
    Dumbbell,
    LegacyDefaults,
    Network,
    SchemeFactory,
    build_chain,
    build_dumbbell,
    build_parallel,
    build_two_tier,
    instantiate,
)
from .topospec import (
    LinkSpec,
    NodeSpec,
    TopologySpec,
    as_graph_spec,
    asymmetric_spec,
    dumbbell_spec,
    fat_tree_spec,
    partial_deployment_spec,
    tree_spec,
)
from .trace import TransferLog, TransferRecord

__all__ = [
    "AggregateHost",
    "AggregateLink",
    "CAPABILITY_HEADER",
    "DRRFairQueue",
    "DropTailQueue",
    "Dumbbell",
    "Event",
    "Host",
    "HostShim",
    "IP_TCP_HEADER",
    "LegacyDefaults",
    "Link",
    "LinkSpec",
    "Network",
    "Node",
    "NodeSpec",
    "Packet",
    "PriorityScheduler",
    "Qdisc",
    "Router",
    "RouterProcessor",
    "RoutingError",
    "SchemeFactory",
    "SimulationError",
    "Simulator",
    "TokenBucket",
    "TopologySpec",
    "TransferLog",
    "TransferRecord",
    "as_graph_spec",
    "asymmetric_spec",
    "build_chain",
    "build_two_tier",
    "build_dumbbell",
    "build_parallel",
    "build_static_routes",
    "dumbbell_spec",
    "fat_tree_spec",
    "instantiate",
    "partial_deployment_spec",
    "tree_spec",
]
