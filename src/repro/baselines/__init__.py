"""The paper's comparison schemes: SIFF, pushback and NetFence.  The
legacy Internet is :class:`~repro.sim.topology.LegacyDefaults` itself."""

from .netfence import (
    FEEDBACK_EXPIRY,
    NETFENCE_SECRET_PERIOD,
    NF_CTL_PROTO,
    NetFenceFeedback,
    NetFenceHeader,
    NetFenceHostShim,
    NetFenceKnobs,
    NetFenceRouterProcessor,
    NetFenceScheme,
)
from .pushback import PushbackKnobs, PushbackProcessor, PushbackScheme
from .siff import (
    SIFF_SECRET_PERIOD,
    SiffData,
    SiffExplorer,
    SiffHostShim,
    SiffKnobs,
    SiffReturn,
    SiffRouterProcessor,
    SiffScheme,
)

__all__ = [
    "FEEDBACK_EXPIRY",
    "NETFENCE_SECRET_PERIOD",
    "NF_CTL_PROTO",
    "NetFenceFeedback",
    "NetFenceHeader",
    "NetFenceHostShim",
    "NetFenceKnobs",
    "NetFenceRouterProcessor",
    "NetFenceScheme",
    "PushbackKnobs",
    "PushbackProcessor",
    "PushbackScheme",
    "SIFF_SECRET_PERIOD",
    "SiffData",
    "SiffExplorer",
    "SiffHostShim",
    "SiffKnobs",
    "SiffReturn",
    "SiffRouterProcessor",
    "SiffScheme",
]
