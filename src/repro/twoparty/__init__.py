"""Two-party outsourcing deployment (§3.1, §5 / Figure 7)."""

from .channel import SimulatedChannel
from .owner import RemoteDisk, owner_wiring, resume_owner
from .provider import ServiceProvider
from .session import TwoPartySession

__all__ = [
    "SimulatedChannel",
    "RemoteDisk",
    "owner_wiring",
    "resume_owner",
    "ServiceProvider",
    "TwoPartySession",
]
