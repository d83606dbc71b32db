"""Packet-level discrete-event network simulator (the ns-2 substitute).

Public surface::

    from repro.sim import Simulator, Packet, Link, Host, Router
    from repro.sim import DropTailQueue, DRRFairQueue, TokenBucket, PriorityScheduler
    from repro.sim import instantiate, dumbbell_spec, SchemeFactory, TransferLog
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
    InternetKnobs,
    LegacyDefaults,
    Network,
    SchemeFactory,
    SchemeKnobs,
    instantiate,
)
from .topospec import (
    LinkSpec,
    NodeSpec,
    TopologySpec,
    as_graph_spec,
    asymmetric_spec,
    chain_spec,
    dumbbell_spec,
    fat_tree_spec,
    parallel_spec,
    partial_deployment_spec,
    tree_spec,
    two_tier_spec,
)
from .trace import TransferLog, TransferRecord

__all__ = [
    "AggregateHost",
    "AggregateLink",
    "CAPABILITY_HEADER",
    "DRRFairQueue",
    "DropTailQueue",
    "Event",
    "Host",
    "HostShim",
    "IP_TCP_HEADER",
    "InternetKnobs",
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
    "SchemeKnobs",
    "SimulationError",
    "Simulator",
    "TokenBucket",
    "TopologySpec",
    "TransferLog",
    "TransferRecord",
    "as_graph_spec",
    "asymmetric_spec",
    "build_static_routes",
    "chain_spec",
    "dumbbell_spec",
    "fat_tree_spec",
    "instantiate",
    "parallel_spec",
    "partial_deployment_spec",
    "tree_spec",
    "two_tier_spec",
]
