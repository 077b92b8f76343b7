"""The data owner of the two-party model: the "secure hardware" is a server.

In the outsourcing setting (§3.1) the owner is the only client, so the
tamper-resistant coprocessor is unnecessary: the owner's own machine —
physically isolated from the provider — runs the cache, page map, keys and
the Figure-3 algorithm, while the encrypted pages live at the provider.
The owner is therefore an ordinary :class:`~repro.core.database.PirDatabase`
whose store is a :class:`RemoteDisk`: :func:`owner_wiring` is the wiring
that makes it one.  It suspends like any database, to the one sealed blob
of :func:`~repro.core.snapshot.suspend` (a snapshot's ``sealed.bin``), and
:func:`resume_owner` reopens that blob against the provider.

:class:`RemoteDisk` adapts the wire protocol to the engine's storage
interface: the store's two verbs are the wire's two requests, so each
request's accesses are exactly one READ and one WRITE round trip (as in the
paper's prototype) whatever its window, which is what makes the network —
not the RTT count — the bottleneck of Figure 7.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import messages
from .channel import SimulatedChannel
from ..core.database import PirDatabase
from ..core.snapshot import resume
from ..errors import ProtocolError
from ..hardware.specs import HardwareSpec
from ..sim.clock import VirtualClock
from ..storage.disk import RangeAccess
from ..storage.frames import check_ranges, frame_count, frame_matrix

__all__ = ["RemoteDisk", "owner_wiring", "resume_owner"]

#: The owner's machine replaces the coprocessor: no PCI link or slow
#: crypto ASIC in the loop (the network dominates instead), so it is a
#: fast commodity server.
OWNER_SPEC = HardwareSpec(
    secure_memory=2**62, link_bandwidth=float("inf"), crypto_throughput=100e6,
)


class RemoteDisk(RangeAccess):
    """Engine-facing storage adapter that speaks the wire protocol: each
    of the store's two verbs is one message and one round trip."""

    def __init__(self, channel: SimulatedChannel, num_locations: int, frame_size: int):
        self.channel = channel
        self.num_locations = num_locations
        self.frame_size = frame_size
        self.current_request = -1  # engine attribution hook; unused remotely

    def _call(self, message: messages.Message, expected: type):
        response = self.channel.call(messages.encode(message, self.frame_size))
        reply = messages.decode(response, self.frame_size)
        if isinstance(reply, messages.ErrorReply):
            raise ProtocolError(f"provider error: {reply.message}")
        if not isinstance(reply, expected):
            raise ProtocolError(
                f"expected {expected.__name__}, got {type(reply).__name__}"
            )
        return reply

    def read_ranges(self, ranges) -> np.ndarray:
        reply = self._call(messages.ReadRanges(tuple(ranges)), messages.Frames)
        wanted = frame_count(ranges)
        if len(reply.frames) != wanted * self.frame_size:
            raise ProtocolError(
                f"provider returned {len(reply.frames) // self.frame_size} "
                f"frames, expected {wanted}"
            )
        # The store contract's matrix, in a buffer the caller owns.
        return np.frombuffer(bytearray(reply.frames), np.uint8).reshape(
            wanted, self.frame_size
        )

    def write_ranges(self, ranges, frames) -> None:
        frames = frame_matrix(frames, self.frame_size)
        self._call(
            messages.WriteRanges(tuple(ranges), frames.tobytes()), messages.Ack
        )

    def check_readable(self, ranges) -> None:
        """The bounds half of a read's validation, without a round trip;
        whether a location was ever written only the provider knows."""
        check_ranges(ranges, self.num_locations)

    def flush(self) -> None:
        """Nothing to push down: the provider acknowledged every write."""

    def close(self) -> None:
        """Nothing to release: the frames stay at the provider, where a
        resumed owner finds them."""


def owner_wiring(channel_factory, clock: Optional[VirtualClock]) -> dict:
    """The wiring keywords that make a :class:`PirDatabase` the owner:
    its clock (None: a fresh one), its machine's spec
    (:data:`OWNER_SPEC`), and a store that is a :class:`RemoteDisk` over a
    fresh channel.

    ``channel_factory(clock, frame_size, num_locations)`` must return a
    connected :class:`SimulatedChannel`; :class:`TwoPartySession
    <repro.twoparty.session.TwoPartySession>` provides the standard
    wiring against a fresh :class:`ServiceProvider
    <repro.twoparty.provider.ServiceProvider>`.
    """

    def disk_factory(num_locations, frame_size, timing, clock, trace):
        channel = channel_factory(clock, frame_size, num_locations)
        return RemoteDisk(channel, num_locations, frame_size)

    return dict(clock=clock, spec=OWNER_SPEC, disk_factory=disk_factory)


def resume_owner(
    sealed_state: bytes,
    channel_factory,
    master_key: bytes = b"owner-master-key",
    clock: Optional[VirtualClock] = None,
    seed: Optional[int] = None,
) -> PirDatabase:
    """Reconnect to the provider and open an owner's
    :func:`~repro.core.snapshot.suspend` blob.

    ``channel_factory`` is :func:`owner_wiring`'s; the provider must still
    hold the frames the sealed state refers to.  The resumed owner runs on
    :data:`OWNER_SPEC`, as every owner does.  A wrong master key fails
    authentication rather than corrupting state; a state sealed
    mid-rotation resumes with the *new* key.  A blob shorter than its
    length prefix raises :class:`~repro.errors.ProtocolError`, a malformed
    parameter head :class:`~repro.errors.ConfigurationError`, before any
    channel is dialled.

    There is no ``rollback_protection``: the sealed state does not carry a
    Merkle root yet, and an empty tree would refuse every read.  A resumed
    owner therefore has no freshness layer, and a provider that rolls
    frames back after the resume goes undetected, until the root is sealed
    with the rest of the trusted state (ROADMAP.md, "Freshness that
    survives a restart").
    """
    return resume(
        sealed_state, "sealed owner state", master_key=master_key, seed=seed,
        **owner_wiring(channel_factory, clock),
    )
