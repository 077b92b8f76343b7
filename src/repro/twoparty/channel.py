"""Simulated network channel between owner and provider.

The paper's Figure-7 prototype ran over WiFi with a 50 ms RTT injected via
``sleep``; here the cost is charged to the shared virtual clock instead
(DESIGN.md §3), so experiments are fast and exactly reproducible:

    time(request) = rtt + (len(request) + len(response)) / bandwidth

Bandwidth is the effective end-to-end application throughput (the paper's
prototype moved ~2.3 MB/s over its WiFi link once protocol and copy costs
are folded in — see the Figure-7 calibration note in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigurationError
from ..obs.registry import MetricsRegistry
from ..sim.clock import VirtualClock

__all__ = ["SimulatedChannel"]


class SimulatedChannel:
    """A synchronous request/response channel with RTT + bandwidth costs."""

    def __init__(
        self,
        clock: VirtualClock,
        handler: Callable[[bytes], bytes],
        rtt: float = 0.05,
        bandwidth: float = 2.33e6,
    ):
        if rtt < 0:
            raise ConfigurationError("rtt must be non-negative")
        if bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self.clock = clock
        self.rtt = rtt
        self.bandwidth = bandwidth
        self._handler = handler
        self.counters = MetricsRegistry().counter_view()

    def call(self, request: bytes) -> bytes:
        """Send ``request``, run the remote handler, return its response.

        The handler executes against the same virtual clock (its disk costs
        land in the middle of the round trip, which is exactly when a real
        provider would pay them).
        """
        self.clock.advance(self.rtt / 2 + len(request) / self.bandwidth)
        response = self._handler(request)
        self.clock.advance(self.rtt / 2 + len(response) / self.bandwidth)
        self.counters.increment("round_trips")
        self.counters.increment("bytes_sent", len(request))
        self.counters.increment("bytes_received", len(response))
        return response

    @property
    def total_bytes(self) -> int:
        return self.counters.get("bytes_sent") + self.counters.get("bytes_received")
