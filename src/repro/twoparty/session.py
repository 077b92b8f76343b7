"""Convenience wiring of a complete two-party deployment.

Creates a :class:`ServiceProvider`, connects a :class:`SimulatedChannel`
with the Figure-7 network parameters (50 ms RTT by default), and builds the
:class:`DataOwner` over it — one call gives a working outsourced private
database whose clock, traces and byte counters are all inspectable.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .channel import SimulatedChannel
from .owner import DataOwner
from .provider import ServiceProvider
from ..analysis.stats import LatencySeries
from ..hardware.specs import HardwareSpec
from ..sim.clock import VirtualClock
from ..storage.timing import DiskTimingModel
from ..storage.trace import AccessTrace

__all__ = ["TwoPartySession"]


class TwoPartySession:
    """An owner + provider pair sharing one virtual clock."""

    def __init__(self, owner: DataOwner, provider: ServiceProvider,
                 channel: SimulatedChannel):
        self.owner = owner
        self.provider = provider
        self.channel = channel

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
        provider_disk: DiskTimingModel = DiskTimingModel(),
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
        owner_spec: Optional[HardwareSpec] = None,
        rollback_protection: bool = False,
    ) -> "TwoPartySession":
        clock = VirtualClock()
        holder: dict = {}

        def channel_factory(shared_clock: VirtualClock, frame_size: int,
                            num_locations: int) -> SimulatedChannel:
            provider = ServiceProvider(
                num_locations=num_locations,
                frame_size=frame_size,
                clock=shared_clock,
                timing=provider_disk,
            )
            channel = SimulatedChannel(
                shared_clock, provider.serve, rtt=rtt, bandwidth=bandwidth
            )
            holder["provider"] = provider
            holder["channel"] = channel
            return channel

        owner = DataOwner.create(
            records,
            cache_capacity,
            channel_factory,
            target_c=target_c,
            page_capacity=page_capacity,
            reserve_fraction=reserve_fraction,
            block_size=block_size,
            clock=clock,
            seed=seed,
            cipher_backend=cipher_backend,
            owner_spec=owner_spec,
            rollback_protection=rollback_protection,
        )
        return cls(owner, holder["provider"], holder["channel"])

    # -- passthrough operations ----------------------------------------------------

    def query(self, page_id: int) -> bytes:
        return self.owner.query(page_id)

    def update(self, page_id: int, payload: bytes) -> None:
        self.owner.update(page_id, payload)

    def insert(self, payload: bytes) -> int:
        return self.owner.insert(payload)

    def delete(self, page_id: int) -> None:
        self.owner.delete(page_id)

    # -- observability ---------------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self.owner.clock

    @property
    def provider_trace(self) -> AccessTrace:
        """What the (adversarial) provider observed on its disk."""
        return self.provider.trace

    def measure_queries(self, page_ids: Sequence[int]) -> LatencySeries:
        """Per-query simulated latency over this session's channel."""
        series = LatencySeries()
        for page_id in page_ids:
            started = self.clock.now
            self.query(page_id)
            series.record(self.clock.now - started)
        return series
