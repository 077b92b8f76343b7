"""File-backed page store: the untrusted disk as an actual file.

:class:`DiskStore` keeps frames in memory, which is right for simulation.
For deployments (and for exercising the system against real I/O paths)
:class:`FileDiskStore` provides the same interface over a single flat file
of fixed-size frames — location ``i`` lives at byte offset ``i * frame_size``.

Timing note: the *virtual* timing model is still applied (that is what the
cost reproduction is calibrated on); real I/O latency additionally shows up
as wall-clock time, which the micro-benchmarks measure separately.  An
uninitialised location is all zero bytes, which can never be a valid frame
(the MAC check fails), so reads of never-written locations surface as
:class:`~repro.errors.StorageError` here just like the in-memory store.

Durability: a configurable fsync policy trades write latency against the
window of frames an OS crash can lose — the intent journal makes either
choice *consistent* (a torn write-back is rolled forward from the journal),
the policy only bounds how much committed work a power cut may force the
journal to replay.
"""

from __future__ import annotations

import os
import weakref
from typing import Optional

import numpy as np

from .disk import DiskStore
from .timing import DiskTimingModel
from .trace import AccessTrace
from ..errors import ConfigurationError, StorageError
from ..sim.clock import VirtualClock

__all__ = ["FileDiskStore", "SYNC_ALWAYS", "SYNC_ON_FLUSH", "SYNC_NEVER"]

SYNC_ALWAYS = "always"      # fsync after every write_range (safest, slowest)
SYNC_ON_FLUSH = "on-flush"  # fsync only in flush()/close() (the default)
SYNC_NEVER = "never"        # never fsync; OS decides (simulation/benchmarks)

_SYNC_POLICIES = (SYNC_ALWAYS, SYNC_ON_FLUSH, SYNC_NEVER)


class FileDiskStore(DiskStore):
    """Drop-in :class:`DiskStore` storing frames in one file on the host FS."""

    def __init__(
        self,
        path: str,
        num_locations: int,
        frame_size: int,
        timing: Optional[DiskTimingModel] = None,
        clock: Optional[VirtualClock] = None,
        trace: Optional[AccessTrace] = None,
        sync_policy: str = SYNC_ON_FLUSH,
    ):
        super().__init__(num_locations, frame_size, timing, clock, trace)
        if sync_policy not in _SYNC_POLICIES:
            raise ConfigurationError(
                f"unknown sync_policy {sync_policy!r}; "
                f"expected one of {_SYNC_POLICIES}"
            )
        self.path = path
        self.sync_policy = sync_policy
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        # A store dropped without close() releases it at collection.
        self._closer = weakref.finalize(self, self._file.close)
        self._file.truncate(num_locations * frame_size)

    # -- where the frames live: one readinto / one write per range ---------------

    def _new_arena(self) -> None:
        return None  # in the file, not in memory

    def _load(self, location: int, out: np.ndarray) -> None:
        self._file.seek(location * self.frame_size)
        if self._file.readinto(out) != out.nbytes:
            raise StorageError("short read from backing file")

    def _store(self, location: int, frames: np.ndarray) -> None:
        self._file.seek(location * self.frame_size)
        self._file.write(frames)
        if self.sync_policy == SYNC_ALWAYS:
            with self.tracer.span("disk.fsync"):
                self._file.flush()
                os.fsync(self._file.fileno())

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        """Push buffered frames down; fsync unless the policy says never."""
        with self.tracer.span("disk.fsync"):
            self._file.flush()
            if self.sync_policy != SYNC_NEVER:
                os.fsync(self._file.fileno())

    def close(self) -> None:
        """Durably close the store; idempotent and crash-safe.

        Flushes (and fsyncs, per the policy) before closing, so a clean
        shutdown never leaves frames only in userspace buffers.  Safe to
        call any number of times, including after a failed close: the
        handle is only marked closed once the OS confirms it.
        """
        if self._file.closed:
            return
        self.flush()
        self._closer()

    def __enter__(self) -> "FileDiskStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
