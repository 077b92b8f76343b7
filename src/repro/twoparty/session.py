"""Convenience wiring of a complete two-party deployment.

Creates a :class:`ServiceProvider`, connects a :class:`SimulatedChannel`
with the Figure-7 network parameters (50 ms RTT by default), and builds the
owner over it: a :class:`~repro.core.database.PirDatabase` whose store is a
:class:`~repro.twoparty.owner.RemoteDisk`.  One call gives a working
outsourced private database whose clock (``session.owner.clock``), traces
(``session.provider.trace``) and byte counters (``session.channel``) are
all inspectable; every operation is the owner's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .channel import SimulatedChannel
from .owner import owner_wiring
from .provider import ServiceProvider
from ..core.database import PirDatabase
from ..sim.clock import VirtualClock

__all__ = ["TwoPartySession"]


@dataclass(eq=False)
class TwoPartySession:
    """An owner + provider pair sharing one virtual clock, and the channel
    between them."""

    owner: PirDatabase
    provider: ServiceProvider
    channel: SimulatedChannel

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        cache_capacity: int,
        target_c: float = 2.0,
        page_capacity: int = 1024,
        reserve_fraction: float = 0.0,
        block_size: Optional[int] = None,
        rtt: float = 0.05,
        bandwidth: float = 2.33e6,
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
        rollback_protection: bool = False,
    ) -> "TwoPartySession":
        """Build the provider and the channel, then the owner over them:
        the same setup as :meth:`PirDatabase.create` — permute in trusted
        owner memory, encrypt, upload — over a remote store.  The provider
        stores the frames under the default disk model and the owner runs
        on :data:`~repro.twoparty.owner.OWNER_SPEC`.  With
        ``rollback_protection`` the owner keeps a Merkle root over the
        provider's frames, so a *malicious* provider replaying stale data
        is caught on read — the natural hardening for the outsourcing
        model, where the paper's honest-but-curious assumption is least
        comfortable."""
        holder: dict = {}

        def channel_factory(shared_clock: VirtualClock, frame_size: int,
                            num_locations: int) -> SimulatedChannel:
            provider = ServiceProvider(
                num_locations=num_locations,
                frame_size=frame_size,
                clock=shared_clock,
            )
            channel = SimulatedChannel(
                shared_clock, provider.serve, rtt=rtt, bandwidth=bandwidth
            )
            holder["provider"] = provider
            holder["channel"] = channel
            return channel

        owner = PirDatabase.create(
            records,
            cache_capacity,
            target_c=target_c,
            page_capacity=page_capacity,
            reserve_fraction=reserve_fraction,
            block_size=block_size,
            seed=seed,
            cipher_backend=cipher_backend,
            rollback_protection=rollback_protection,
            master_key=b"owner-master-key",
            **owner_wiring(channel_factory, VirtualClock()),
        )
        return cls(owner, holder["provider"], holder["channel"])
