"""TVA — the paper's primary contribution.

Capability formats and crypto (Sections 3.4-3.5), bounded router state
(Section 3.6), the capability router pipeline (Figure 6), the host
capability layer, destination policies, and the three-class queue
management of Figure 2, assembled by :class:`TvaScheme`.
"""

from .capability import (
    Capability,
    PreCapability,
    capability_from_precapability,
    mint_precapability,
    quantize_grant,
    validate_capability,
)
from .crypto import SecretManager, keyed_hash56
from .flowstate import FlowEntry, FlowStateTable
from .header import (
    RegularHeader,
    RequestHeader,
    ReturnInfo,
    unpack_header,
)
from .host import TvaHostShim
from .params import TvaParams
from .pathid import interface_tag, most_recent_tag
from .policy import (
    AlwaysGrant,
    ClientPolicy,
    DestinationPolicy,
    FilteringPolicy,
    OraclePolicy,
    RefuseAll,
    ReturningCustomerPolicy,
    ServerPolicy,
)
from .router import TvaRouterCore, TvaRouterProcessor
from .scheme import TvaKnobs, TvaScheme

__all__ = [
    "AlwaysGrant",
    "Capability",
    "ClientPolicy",
    "DestinationPolicy",
    "FilteringPolicy",
    "FlowEntry",
    "FlowStateTable",
    "OraclePolicy",
    "PreCapability",
    "RefuseAll",
    "ReturningCustomerPolicy",
    "RegularHeader",
    "RequestHeader",
    "ReturnInfo",
    "SecretManager",
    "ServerPolicy",
    "TvaHostShim",
    "TvaKnobs",
    "TvaParams",
    "TvaRouterCore",
    "TvaRouterProcessor",
    "TvaScheme",
    "capability_from_precapability",
    "interface_tag",
    "keyed_hash56",
    "mint_precapability",
    "most_recent_tag",
    "quantize_grant",
    "unpack_header",
    "validate_capability",
]
