"""The untrusted server disk: a flat array of encrypted page frames.

This is the only state the adversary controls.  Every read/write goes through
here, is charged to the virtual clock via :class:`DiskTimingModel`, and is
recorded in the :class:`AccessTrace` (the adversary's observation channel).

Frames are opaque byte strings to this layer; all encryption happens inside
the secure-hardware boundary before bytes reach the disk.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .timing import DiskTimingModel
from .trace import READ, WRITE, AccessEvent, AccessTrace
from ..errors import StorageError
from ..obs.tracer import NULL_TRACER, Tracer
from ..sim.clock import VirtualClock

__all__ = ["DiskStore"]


class DiskStore:
    """Fixed-size array of page frames with timing + trace instrumentation."""

    def __init__(
        self,
        num_locations: int,
        frame_size: int,
        timing: Optional[DiskTimingModel] = None,
        clock: Optional[VirtualClock] = None,
        trace: Optional[AccessTrace] = None,
        tracer: Optional[Tracer] = None,
    ):
        if num_locations <= 0:
            raise StorageError("disk must have at least one location")
        if frame_size <= 0:
            raise StorageError("frame size must be positive")
        self.num_locations = num_locations
        self.frame_size = frame_size
        self.timing = timing if timing is not None else DiskTimingModel.instantaneous()
        self.clock = clock if clock is not None else VirtualClock()
        self.trace = trace if trace is not None else AccessTrace()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._frames: List[Optional[bytes]] = [None] * num_locations
        # Ordinal of the in-flight client request; set by the engine so the
        # trace can attribute accesses to requests.
        self.current_request: int = -1

    # -- bounds ---------------------------------------------------------------

    def _check_range(self, location: int, count: int) -> None:
        if count <= 0:
            raise StorageError("access count must be positive")
        if location < 0 or location + count > self.num_locations:
            raise StorageError(
                f"access [{location}, {location + count}) outside disk of "
                f"{self.num_locations} locations"
            )

    def _check_frame(self, frame: bytes) -> None:
        if len(frame) != self.frame_size:
            raise StorageError(
                f"frame of {len(frame)} bytes does not match disk frame size "
                f"{self.frame_size}"
            )

    # -- access ----------------------------------------------------------------

    def read(self, location: int) -> bytes:
        """Read one frame (charges one seek + one frame transfer)."""
        return self.read_range(location, 1)[0]

    def read_range(self, location: int, count: int) -> List[bytes]:
        """Read ``count`` consecutive frames as one contiguous disk access."""
        self._check_range(location, count)
        with self.tracer.span("disk.read", nbytes=count * self.frame_size):
            self.clock.advance(self.timing.read_time(count * self.frame_size))
            frames: List[bytes] = []
            for offset in range(count):
                frame = self._frames[location + offset]
                if frame is None:
                    raise StorageError(
                        f"location {location + offset} was never written"
                    )
                frames.append(frame)
            self.trace.record(
                AccessEvent(READ, location, count, self.current_request,
                            self.clock.now)
            )
        return frames

    def write(self, location: int, frame: bytes) -> None:
        """Write one frame (charges one seek + one frame transfer)."""
        self.write_range(location, [frame])

    def write_range(self, location: int, frames: Sequence[bytes]) -> None:
        """Write consecutive frames as one contiguous disk access."""
        self._check_range(location, len(frames))
        for frame in frames:
            self._check_frame(frame)
        with self.tracer.span("disk.write",
                              nbytes=len(frames) * self.frame_size):
            self.clock.advance(
                self.timing.write_time(len(frames) * self.frame_size)
            )
            for offset, frame in enumerate(frames):
                self._frames[location + offset] = frame
            self.trace.record(
                AccessEvent(WRITE, location, len(frames), self.current_request,
                            self.clock.now)
            )

    # -- request-granular access -----------------------------------------------
    #
    # One Figure-3 request touches a block plus one extra location.  These
    # combined entry points keep the local disk behaviour identical (two
    # separate contiguous accesses each way) while letting remote transports
    # (repro.twoparty.RemoteDisk) override them with a single round trip.

    def read_request(
        self, block_start: int, count: int, extra_location: int
    ) -> "tuple[List[bytes], bytes]":
        """Read a block and one extra frame for a single retrieval request."""
        frames = self.read_range(block_start, count)
        extra = self.read(extra_location)
        return frames, extra

    def write_request(
        self,
        block_start: int,
        frames: Sequence[bytes],
        extra_location: int,
        extra_frame: bytes,
    ) -> None:
        """Write back a block and one extra frame for a retrieval request."""
        self.write_range(block_start, frames)
        self.write(extra_location, extra_frame)

    # -- adversary-side helpers --------------------------------------------------

    def peek(self, location: int) -> Optional[bytes]:
        """Raw frame bytes without timing/trace (what the curious server sees).

        Intentionally *not* used by the secure-hardware code path; exists so
        tests and the adversary model can inspect ciphertexts.
        """
        if location < 0 or location >= self.num_locations:
            raise StorageError(f"location {location} out of range")
        return self._frames[location]

    def initialised_locations(self) -> int:
        """Number of locations that hold a frame."""
        return sum(1 for frame in self._frames if frame is not None)

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        """Nothing to push down: frames live in memory."""

    def close(self) -> None:
        """Nothing to release."""
