"""Drop-in faulty wrappers for the storage, journal and channel layers.

Each wrapper preserves its inner object's exact interface and behaviour on
the no-fault path (same trace events, same timing charges, same batching),
and consults a shared :class:`~repro.faults.injector.FaultInjector` before
every operation.  Because the injector is deterministic, wrapping a store
with a plan-free injector is observationally identical to not wrapping it.

* :class:`FaultyDiskStore` wraps any engine-facing store —
  :class:`~repro.storage.disk.DiskStore`,
  :class:`~repro.storage.filedisk.FileDiskStore`,
  :class:`~repro.storage.merkle.AuthenticatedDisk`, or a remote transport.
* :class:`FlakyChannel` wraps a
  :class:`~repro.twoparty.channel.SimulatedChannel` (or anything with a
  ``call``/``clock`` surface).
* :class:`FaultyJournal` wraps an intent journal so crash points *inside*
  the journal protocol itself are testable (torn or lost intent records).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .injector import (
    SITE_CHANNEL,
    SITE_DISK_READ,
    SITE_DISK_WRITE,
    SITE_JOURNAL_WRITE,
    FaultInjector,
    SimulatedCrash,
)
from ..errors import TransientChannelError, TransientStorageError
from ..storage.disk import StoreWrapper

__all__ = ["FaultyDiskStore", "FlakyChannel", "FaultyJournal"]


class FaultyDiskStore(StoreWrapper):
    """Fault-injecting wrapper with the engine's disk interface.

    Transient faults fire *before* the inner operation (nothing lands);
    corruption damages frames on the way back from a successful read; a
    crash applies a torn prefix of the write and raises
    :class:`~repro.faults.injector.SimulatedCrash`.  Only the two range
    calls are overridden: a request decomposes into the same two accesses
    the local store performs, so each leg gets its own fault decision and
    the trace shape is unchanged.
    """

    def __init__(self, inner, injector: FaultInjector):
        super().__init__(inner)
        self.injector = injector

    def read_range(self, location: int, count: int) -> np.ndarray:
        decision = self.injector.check(SITE_DISK_READ, count)
        if decision is not None and decision.kind == "transient":
            raise TransientStorageError(
                f"injected transient fault reading [{location}, "
                f"{location + count})"
            )
        frames = self.inner.read_range(location, count)
        if decision is not None and decision.kind == "corrupt":
            # The matrix is this read's own copy: the damage never reaches
            # the store, so a re-read is clean.
            index = decision.corrupt_index
            frames[index] = self._corrupted(frames[index])
        return frames

    def _corrupted(self, frame) -> np.ndarray:
        return np.frombuffer(
            self.injector.corrupt_blob(bytes(frame)), np.uint8
        )

    def write_range(self, location: int, frames) -> None:
        decision = self.injector.check(SITE_DISK_WRITE, len(frames))
        if decision is None:
            self.inner.write_range(location, frames)
            return
        if decision.kind == "transient":
            raise TransientStorageError(
                f"injected transient fault writing [{location}, "
                f"{location + len(frames)})"
            )
        if decision.kind == "crash":
            # Torn write: a prefix of the frames becomes durable, then the
            # host dies before the rest (or the caller's bookkeeping) lands.
            if decision.torn_frames > 0:
                self.inner.write_range(location,
                                       frames[:decision.torn_frames])
            raise SimulatedCrash(
                f"simulated power loss after {decision.torn_frames} of "
                f"{len(frames)} frames at location {location}"
            )
        # Corruption of a write: the damaged frame lands silently (in a
        # copy — the caller's frames are the caller's).
        damaged = list(frames)
        damaged[decision.corrupt_index] = self._corrupted(
            damaged[decision.corrupt_index]
        )
        self.inner.write_range(location, damaged)


class FlakyChannel:
    """Fault-injecting wrapper around a request/response channel.

    A *drop* charges the round-trip time (the client waits out a timeout)
    and raises :class:`~repro.errors.TransientChannelError` without the
    handler ever running.  A *delay* adds plan-specified latency before the
    call.  A *duplicate* delivers the same request bytes twice and returns
    the second response, modelling at-least-once delivery; against
    :class:`~repro.service.frontend.QueryFrontend` the second delivery is
    answered from the per-session reply cache (byte-identical ciphertext =
    same transmission), so mutating operations are never double-applied.
    Handlers without such dedup see both deliveries — duplicate plans are
    then only state-safe for idempotent workloads.
    """

    def __init__(self, inner, injector: FaultInjector):
        self._inner = inner
        self.injector = injector

    @property
    def clock(self):
        return self._inner.clock

    @property
    def counters(self):
        return self._inner.counters

    @property
    def rtt(self) -> float:
        return getattr(self._inner, "rtt", 0.0)

    @property
    def bandwidth(self) -> float:
        return getattr(self._inner, "bandwidth", float("inf"))

    @property
    def total_bytes(self) -> int:
        return self._inner.total_bytes

    @property
    def inner(self):
        return self._inner

    def call(self, request: bytes) -> bytes:
        decision = self.injector.check(SITE_CHANNEL)
        if decision is None:
            return self._inner.call(request)
        if decision.kind == "drop":
            # The sender pays a full RTT discovering the loss (timeout).
            self.clock.advance(self.rtt + decision.delay)
            raise TransientChannelError("injected message drop")
        if decision.kind == "delay":
            self.clock.advance(decision.delay)
            return self._inner.call(request)
        if decision.kind == "duplicate":
            self._inner.call(request)
            return self._inner.call(request)
        if decision.kind == "crash":
            raise SimulatedCrash("simulated crash mid round-trip")
        raise TransientChannelError(
            f"injected channel fault {decision.kind!r}"
        )


class FaultyJournal:
    """Fault-injecting wrapper around an intent journal.

    Lets tests tear or lose the intent record itself: a ``crash`` with
    ``torn_frames == 0`` loses the record entirely, any other crash (or a
    ``corrupt``) leaves a mangled record behind — both must be survivable,
    and :meth:`RetrievalEngine.recover` treats them as "request never
    happened" because nothing was written to the page array yet.
    """

    def __init__(self, inner, injector: FaultInjector):
        self._inner = inner
        self.injector = injector

    @property
    def inner(self):
        return self._inner

    def write(self, blob: bytes) -> None:
        decision = self.injector.check(SITE_JOURNAL_WRITE)
        if decision is None:
            self._inner.write(blob)
            return
        if decision.kind == "transient":
            raise TransientStorageError("injected transient journal fault")
        if decision.kind == "crash":
            if decision.torn_frames > 0:
                # Half the record becomes durable: torn intent.
                self._inner.write(blob[: max(1, len(blob) // 2)])
            raise SimulatedCrash("simulated power loss during journal write")
        if decision.kind == "corrupt":
            self._inner.write(self.injector.corrupt_blob(blob))
            return
        self._inner.write(blob)

    def read(self) -> Optional[bytes]:
        return self._inner.read()

    def clear(self) -> None:
        self._inner.clear()

    def close(self) -> None:
        if hasattr(self._inner, "close"):
            self._inner.close()
