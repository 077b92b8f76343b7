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
from ..storage.frames import check_ranges, frame_matrix

__all__ = ["FaultyDiskStore", "FlakyChannel", "FaultyJournal"]


class FaultyDiskStore(StoreWrapper):
    """Fault-injecting wrapper with the engine's disk interface.

    Every range of a call is one disk access and gets its own fault
    decision, in order — once the call has passed the store's validation:
    a call the store refuses draws no decision, so it burns no fault
    ordinal and never fires a fault.  Transient faults fire *before* the
    access (it and
    the ranges after it never happen, the ranges before it did);
    corruption damages a frame on the way back from a successful read, or
    on the way down in a copy of the write; a crash lands the ranges before
    it plus a torn prefix of its own and raises
    :class:`~repro.faults.injector.SimulatedCrash`.  Whatever reaches the
    inner store reaches it in one call, so the trace shape is unchanged.
    """

    def __init__(self, inner, injector: FaultInjector):
        super().__init__(inner)
        self.injector = injector

    def read_ranges(self, ranges) -> np.ndarray:
        self.inner.check_readable(ranges)
        damage = []
        row = 0
        for index, (location, count) in enumerate(ranges):
            decision = self.injector.check(SITE_DISK_READ, count)
            kind = None if decision is None else decision.kind
            if kind == "transient":
                if index:
                    self.inner.read_ranges(ranges[:index])
                raise TransientStorageError(
                    f"injected transient fault reading [{location}, "
                    f"{location + count})"
                )
            if kind == "corrupt":
                damage.append((row + decision.corrupt_index,
                               *self.injector.corruption(self.frame_size)))
            row += count
        frames = self.inner.read_ranges(ranges)
        # The matrix is this read's own copy: the damage never reaches the
        # store, so a re-read is clean.
        for damaged, position, mask in damage:
            frames[damaged, position] ^= mask
        return frames

    def write_ranges(self, ranges, frames) -> None:
        frames = intact = frame_matrix(frames, self.frame_size)
        check_ranges(ranges, self.num_locations, frames)
        row = 0
        for index, (location, count) in enumerate(ranges):
            decision = self.injector.check(SITE_DISK_WRITE, count)
            if decision is None:
                pass
            elif decision.kind in ("transient", "crash"):
                # What lands before the call fails: the ranges before this
                # one and, under a crash, a torn prefix of its own — then
                # the host dies before the rest (or the caller's
                # bookkeeping) lands.
                torn = decision.torn_frames if decision.kind == "crash" else 0
                landed = list(ranges[:index])
                if torn:
                    landed.append((location, torn))
                if landed:
                    self.inner.write_ranges(landed, frames[:row + torn])
                if decision.kind == "transient":
                    raise TransientStorageError(
                        f"injected transient fault writing [{location}, "
                        f"{location + count})"
                    )
                raise SimulatedCrash(
                    f"simulated power loss after {torn} of {count} frames "
                    f"at location {location}"
                )
            else:
                # Corruption of a write: the damaged frame lands silently
                # (in a copy — the caller's frames are the caller's).
                if frames is intact:
                    frames = frames.copy()
                position, mask = self.injector.corruption(self.frame_size)
                frames[row + decision.corrupt_index, position] ^= mask
            row += count
        self.inner.write_ranges(ranges, frames)


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
