"""The untrusted service provider of the two-party model (§3.1).

Holds the encrypted page array and answers the owner's wire-protocol
messages.  It sees exactly what the three-party server sees: opaque frames,
which locations are touched, and message timings — its :class:`DiskStore`
trace is the adversary's observation channel in this deployment too.
"""

from __future__ import annotations

import numpy as np

from . import messages
from ..errors import ProtocolError, ReproError
from ..sim.clock import VirtualClock
from ..storage.disk import DiskStore
from ..storage.timing import DiskTimingModel
from ..storage.trace import AccessTrace

__all__ = ["ServiceProvider"]


class ServiceProvider:
    """Message-driven wrapper over the provider's disk."""

    def __init__(
        self,
        num_locations: int,
        frame_size: int,
        clock: VirtualClock,
    ):
        self.frame_size = frame_size
        self.disk = DiskStore(num_locations, frame_size,
                              timing=DiskTimingModel(), clock=clock)

    @property
    def trace(self) -> AccessTrace:
        return self.disk.trace

    def serve(self, request_bytes: bytes) -> bytes:
        """Handle one request; malformed input yields an ERROR reply."""
        try:
            request = messages.decode(request_bytes, self.frame_size)
            reply = self._dispatch(request)
        except ReproError as exc:
            reply = messages.ErrorReply(f"{type(exc).__name__}: {exc}")
        return messages.encode(reply, self.frame_size)

    def _dispatch(self, request: messages.Message) -> messages.Message:
        if isinstance(request, messages.ReadRanges):
            return messages.Frames(
                self.disk.read_ranges(request.ranges).tobytes()
            )
        if isinstance(request, messages.WriteRanges):
            self.disk.write_ranges(
                request.ranges,
                np.frombuffer(request.frames, np.uint8).reshape(
                    -1, self.frame_size
                ),
            )
            return messages.Ack()
        raise ProtocolError(
            f"provider cannot handle message type {type(request).__name__}"
        )
