"""The untrusted server disk: a flat array of encrypted page frames.

This is the only state the adversary controls.  Every read/write goes through
here, is charged to the virtual clock via :class:`DiskTimingModel`, and is
recorded in the :class:`AccessTrace` (the adversary's observation channel).

Frames are opaque bytes to this layer; all encryption happens inside the
secure-hardware boundary before bytes reach the disk.

The store contract
------------------

A disk access is a sequence of ``(location, count)`` **ranges**, and the
two verbs every store and wrapper implements take one:
``read_ranges(ranges)`` and ``write_ranges(ranges, frames)``.  Each range
is exactly one disk access — one seek charge, one :class:`AccessEvent`, one
``disk.read`` / ``disk.write`` span, one fault decision — performed in the
order given, and every range is validated before the first is charged, so
a refused call leaves clock and trace untouched (``check_readable(ranges)``
is that validation of a read on its own, for a wrapper that must refuse
before it does anything else).  The single-frame and
single-range calls (``read``, ``read_range``, ``write``, ``write_range``)
are :class:`RangeAccess`'s, spelled once on the two verbs.

The frames of a call are one C-contiguous ``numpy.uint8`` matrix of
``count x frame_size``, the ranges' frames back to back.  A read returns a
fresh one that **the caller owns** — writing into it never changes the
store — and the write side accepts one, or any sequence of
``frame_size``-long bytes-like rows, and copies it in.  The single-frame
calls (:meth:`~RangeAccess.read`, :meth:`~DiskStore.peek`) return
``bytes``.  Whoever *retains* a frame it was handed copies it.

A wrapper (fault injection, hot tier, freshness tree) subclasses
:class:`StoreWrapper`, which forwards the whole interface to the store it
wraps, and overrides the two verbs and nothing else.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .frames import check_ranges, frame_count, frame_matrix, range_rows
from .timing import DiskTimingModel
from .trace import READ, WRITE, AccessEvent, AccessTrace
from ..errors import StorageError
from ..obs.tracer import NULL_TRACER, Tracer
from ..sim.clock import VirtualClock

__all__ = ["RangeAccess", "DiskStore", "StoreWrapper"]


class RangeAccess:
    """The single-range calls of a store, on its two verbs.

    Whatever has ``frame_size``, ``read_ranges`` and ``write_ranges`` gets
    the rest of the access interface from here.
    """

    def read(self, location: int) -> bytes:
        """Read one frame (charges one seek + one frame transfer)."""
        return self.read_ranges([(location, 1)]).tobytes()

    def read_range(self, location: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive frames as one contiguous disk access."""
        return self.read_ranges([(location, count)])

    def write(self, location: int, frame) -> None:
        """Write one frame (charges one seek + one frame transfer)."""
        self.write_ranges([(location, 1)], [frame])

    def write_range(self, location: int, frames) -> None:
        """Write consecutive frames as one contiguous disk access."""
        frames = frame_matrix(frames, self.frame_size)
        self.write_ranges([(location, len(frames))], frames)


class DiskStore(RangeAccess):
    """Fixed-size array of page frames with timing + trace instrumentation.

    The frames are one ``num_locations x frame_size`` arena plus a bitmap
    of the locations written so far.  Subclasses that keep the frames
    elsewhere override :meth:`_load` / :meth:`_store` only.
    """

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
        self._arena = self._new_arena()
        self._written = np.zeros(num_locations, bool)
        # Ordinal of the in-flight client request; set by the engine so the
        # trace can attribute accesses to requests.
        self.current_request: int = -1

    # -- where the frames live ---------------------------------------------------

    def _new_arena(self) -> Optional[np.ndarray]:
        # Over a bytearray, not np.zeros: numpy asks for huge pages behind
        # its own large buffers, and first-touching those stalls in page
        # compaction (0.3 s for a 70 MB arena where this takes 0.04 s).
        return np.frombuffer(
            bytearray(self.num_locations * self.frame_size), np.uint8
        ).reshape(self.num_locations, self.frame_size)

    def _load(self, location: int, out: np.ndarray) -> None:
        """Copy the ``len(out)`` frames from ``location`` on into ``out``."""
        out[:] = self._arena[location : location + len(out)]

    def _store(self, location: int, frames: np.ndarray) -> None:
        """Copy the matrix ``frames`` over the locations from ``location`` on."""
        self._arena[location : location + len(frames)] = frames

    # -- access ----------------------------------------------------------------

    def check_readable(self, ranges) -> None:
        """Refuse a read :meth:`read_ranges` would refuse, charging nothing:
        a range that is empty, leaves the disk or was never written."""
        check_ranges(ranges, self.num_locations)
        for location, count in ranges:
            written = self._written[location : location + count]
            if not written.all():
                raise StorageError(
                    f"location {location + int(written.argmin())} was never "
                    "written"
                )

    def read_ranges(self, ranges) -> np.ndarray:
        """Each ``(location, count)`` as its own disk access, into one matrix."""
        self.check_readable(ranges)
        out = np.empty((frame_count(ranges), self.frame_size), np.uint8)
        for location, rows in range_rows(ranges, out):
            nbytes = rows.nbytes
            with self.tracer.span("disk.read", nbytes=nbytes):
                self.clock.advance(self.timing.read_time(nbytes))
                self._load(location, rows)
                self.trace.record(
                    AccessEvent(READ, location, len(rows),
                                self.current_request, self.clock.now)
                )
        return out

    def write_ranges(self, ranges, frames) -> None:
        """Each ``(location, count)`` as its own disk access, out of
        ``frames`` (the ranges' frames back to back)."""
        frames = frame_matrix(frames, self.frame_size)
        check_ranges(ranges, self.num_locations, frames)
        for location, rows in range_rows(ranges, frames):
            nbytes = rows.nbytes
            with self.tracer.span("disk.write", nbytes=nbytes):
                self.clock.advance(self.timing.write_time(nbytes))
                self._store(location, rows)
                self._written[location : location + len(rows)] = True
                self.trace.record(
                    AccessEvent(WRITE, location, len(rows),
                                self.current_request, self.clock.now)
                )

    # -- adversary-side helpers --------------------------------------------------
    #
    # What the curious (or tampering) server does to its own disk: no timing,
    # no trace.  Intentionally *not* used by the secure-hardware code path;
    # they exist so tests and the adversary model can inspect and replace
    # ciphertexts.

    def _check_location(self, location: int) -> None:
        if location < 0 or location >= self.num_locations:
            raise StorageError(f"location {location} out of range")

    def peek(self, location: int) -> Optional[bytes]:
        """Raw frame bytes at ``location``, or None if it was never written."""
        self._check_location(location)
        if not self._written[location]:
            return None
        return self.peek_range(location, 1).tobytes()

    def peek_range(self, location: int, count: int) -> np.ndarray:
        """``count`` raw frames from ``location`` on, as a fresh matrix the
        caller owns; refused, as a read is, if any was never written."""
        self.check_readable([(location, count)])
        out = np.empty((count, self.frame_size), np.uint8)
        self._load(location, out)
        return out

    def poke(self, location: int, frame) -> None:
        """Overwrite the frame at ``location`` behind the system's back."""
        self._check_location(location)
        self._store(location, frame_matrix([frame], self.frame_size))
        self._written[location] = True

    def initialised_locations(self) -> int:
        """Number of locations that hold a frame."""
        return int(np.count_nonzero(self._written))

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        """Nothing to push down: frames live in memory."""

    def close(self) -> None:
        """Nothing to release."""


def _forwarded(name: str, settable: bool = False) -> property:
    """The wrapped store's attribute ``name``, as the wrapper's own."""

    def fget(self):
        return getattr(self.inner, name)

    def fset(self, value) -> None:
        setattr(self.inner, name, value)

    return property(fget, fset if settable else None)


class StoreWrapper(RangeAccess):
    """A store in front of another store; forwards everything to ``inner``.

    A wrapper overrides :meth:`read_ranges` / :meth:`write_ranges` and sees
    every frame: the single-range calls are :class:`RangeAccess`'s, on the
    wrapper's *own* verbs.  It forwards a call's ranges together where it
    can, so a remote transport underneath keeps its single round trip.
    ``tracer`` and ``current_request`` are assigned through to the store
    that does the I/O.
    """

    def __init__(self, inner):
        self.inner = inner

    num_locations = _forwarded("num_locations")
    frame_size = _forwarded("frame_size")
    timing = _forwarded("timing")
    trace = _forwarded("trace")
    clock = _forwarded("clock")
    tracer = _forwarded("tracer", settable=True)
    current_request = _forwarded("current_request", settable=True)

    def read_ranges(self, ranges) -> np.ndarray:
        return self.inner.read_ranges(ranges)

    def write_ranges(self, ranges, frames) -> None:
        self.inner.write_ranges(ranges, frames)

    def check_readable(self, ranges) -> None:
        self.inner.check_readable(ranges)

    def peek(self, location: int) -> Optional[bytes]:
        return self.inner.peek(location)

    def peek_range(self, location: int, count: int) -> np.ndarray:
        return self.inner.peek_range(location, count)

    def poke(self, location: int, frame) -> None:
        self.inner.poke(location, frame)

    def initialised_locations(self) -> int:
        return self.inner.initialised_locations()

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()
