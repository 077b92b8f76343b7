"""Hot/cold tiered page store: a memory tier fronting the slow disk.

The engine's round-robin schedule re-reads and rewrites the same block of
frames once per scan, and the online reshuffler (``shuffle/online.py``)
relocates a working set of frames far more often than the long tail.
:class:`TieredDiskStore` keeps that frequently-relocated working set in a
memory-backed **hot tier** in front of any cold store with the
:class:`~repro.storage.disk.DiskStore` interface (typically a
:class:`~repro.storage.filedisk.FileDiskStore`).

Privacy: the hot tier holds *ciphertext* frames in untrusted host memory —
exactly the bytes the cold disk would hold.  Every access still records the
same :class:`~repro.storage.trace.AccessEvent` (op, location, count) in the
same order, so the adversary-visible access *shape* is byte-identical with
and without the tier (Patel/Persiano/Yeo's observation that storage
placement may depend on public access metadata only); the tier changes
timing, never the sequence.

Consistency: writes are **write-through** — the cold store is updated
before the hot copy, so the hot tier never holds the only copy of a frame
and a crash can at worst lose *cache warmth*, never data.  A new tier
starts cold.

Layout: the hot frames are the rows of one ``capacity x frame_size`` arena;
an ``OrderedDict`` maps each resident location to its row and *is* the LRU
order.  A range is handled as a range — one pass over its locations that
only moves dictionary entries, then one copy of the rows between the
caller's matrix and the arena, and one counter increment per kind.

Counters (``tier.`` prefix): ``hit``/``miss`` count frames served from the
hot/cold tier, ``promote``/``evict`` count membership changes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

import numpy as np

from .disk import DiskStore, StoreWrapper
from .frames import frame_count, frame_matrix, range_rows
from .timing import DiskTimingModel
from .trace import READ, AccessEvent
from ..errors import ConfigurationError
from ..obs.registry import registry_or_private

__all__ = ["TieredDiskStore", "MEMORY_TIER_TIMING"]

# Memory-bandwidth timing for hot hits on the virtual clock: no seek, and
# transfer at DRAM-copy rather than disk rates.  Cold accesses keep the
# cold store's own model, so the virtual-time win of a hit is explicit.
MEMORY_TIER_TIMING = DiskTimingModel(
    seek_time=0.0, read_bandwidth=10e9, write_bandwidth=10e9
)


class TieredDiskStore(StoreWrapper):
    """LRU memory tier over a cold store, write-through, trace-preserving.

    Drop-in for the engine-facing :class:`DiskStore` interface (the same
    wrapper contract as :class:`~repro.faults.wrappers.FaultyDiskStore`).

    Parameters
    ----------
    cold:
        The authoritative store.  Always holds every committed frame.
    hot_capacity:
        Maximum frames resident in the hot tier (LRU eviction beyond it).
        A hot hit is charged :data:`MEMORY_TIER_TIMING`.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` mirroring
        the ``tier.*`` counters.
    """

    def __init__(self, cold: DiskStore, hot_capacity: int, metrics=None):
        if hot_capacity <= 0:
            raise ConfigurationError("hot tier needs a positive capacity")
        super().__init__(cold)
        self.cold = cold  # the tier's own name for ``inner``
        self.hot_capacity = hot_capacity
        self.counters = registry_or_private(metrics).counter_view("tier.")
        # Resident location -> arena row, least recently used first.  No
        # more rows than the cold store has locations can ever be in use.
        # Over a bytearray for the reason DiskStore._new_arena gives.
        rows = min(hot_capacity, cold.num_locations)
        self._slots: "OrderedDict[int, int]" = OrderedDict()
        self._free = list(range(rows - 1, -1, -1))
        self._arena = np.frombuffer(
            bytearray(rows * cold.frame_size), np.uint8
        ).reshape(rows, cold.frame_size)

    @property
    def hot_frames(self) -> int:
        """Frames currently resident in the hot tier."""
        return len(self._slots)

    def resident(self) -> List[int]:
        """The resident locations, least recently used first."""
        return list(self._slots)

    def hot_frame(self, location: int) -> Optional[bytes]:
        """The hot copy of ``location``'s frame, or None if it is not
        resident; recency is not touched."""
        slot = self._slots.get(location)
        return None if slot is None else self._arena[slot].tobytes()

    def drop_hot(self, location: Optional[int] = None) -> None:
        """Forget one hot copy, or all of them (the cold store keeps every
        frame); counted as evictions."""
        victims = list(self._slots) if location is None else (
            [location] if location in self._slots else []
        )
        if not victims:
            return
        for victim in victims:
            self._free.append(self._slots.pop(victim))
        self.counters.increment("evict", len(victims))

    def hit_rate(self) -> float:
        """Fraction of read frames served from the hot tier so far."""
        hits = self.counters.get("hit")
        total = hits + self.counters.get("miss")
        return hits / total if total else 0.0

    # -- tier maintenance ------------------------------------------------------

    def _admit(self, location: int, frames: np.ndarray) -> None:
        """Make ``frames`` the hot copies of the range from ``location`` on.

        The same LRU decisions, in the same order, as touching the range
        frame by frame: a resident location moves to the most-recent end, a
        new one takes a free row or else the least recent resident's.  The
        loop only moves dictionary entries; the bytes follow in one copy
        out of the caller's matrix, of which the tier keeps no view.
        """
        slots = self._slots
        free = self._free
        capacity = len(self._arena)
        promoted = evicted = 0
        # A location this call admits can only be evicted by it again
        # `capacity` rows later, so within a chunk of that many rows every
        # location ends up resident in an arena row of its own.
        for start in range(0, len(frames), capacity):
            chunk = frames[start : start + capacity]
            first = location + start
            rows = []
            for loc in range(first, first + len(chunk)):
                slot = slots.get(loc)
                if slot is not None:
                    slots.move_to_end(loc)
                else:
                    promoted += 1
                    if free:
                        slot = free.pop()
                    else:
                        _, slot = slots.popitem(last=False)
                        evicted += 1
                    slots[loc] = slot
                rows.append(slot)
            if len(rows) == 1:
                self._arena[rows[0]] = chunk[0]
            else:
                self._arena[rows] = chunk
        if promoted:
            self.counters.increment("promote", promoted)
        if evicted:
            self.counters.increment("evict", evicted)

    # -- access ----------------------------------------------------------------

    def read_ranges(self, ranges) -> np.ndarray:
        self.cold.check_readable(ranges)
        out = np.empty((frame_count(ranges), self.frame_size), np.uint8)
        # Hot or cold is decided range by range, in order: admitting one
        # range can evict the next one's frames.
        for location, rows in range_rows(ranges, out):
            self._read_into(location, rows)
        return out

    def _read_into(self, location: int, out: np.ndarray) -> None:
        """One range, from whichever tier holds all of it."""
        slots = self._slots
        count = len(out)
        span = range(location, location + count)
        try:
            rows = [slots[loc] for loc in span]
        except KeyError:
            # Some frame is cold: the whole range is one cold access.
            out[:] = self.cold.read_ranges([(location, count)])
            self.counters.increment("miss", count)
            self._admit(location, out)
            return
        # Hot hit: same trace event, memory-tier timing.
        with self.tracer.span("tier.hot_read", nbytes=out.nbytes):
            self.clock.advance(MEMORY_TIER_TIMING.read_time(out.nbytes))
            # (A one-row copy costs a quarter of a one-row fancy index,
            # and the reshuffler reads single frames.)
            if count == 1:
                out[0] = self._arena[rows[0]]
            else:
                out[:] = self._arena[rows]
            for loc in span:
                slots.move_to_end(loc)
            self.trace.record(
                AccessEvent(READ, location, count, self.current_request,
                            self.clock.now)
            )
        self.counters.increment("hit", count)

    def write_ranges(self, ranges, frames) -> None:
        # Write-through: cold first (authoritative, charges + traces), then
        # refresh the hot copies so subsequent reads hit.
        frames = frame_matrix(frames, self.frame_size)
        self.cold.write_ranges(ranges, frames)
        for location, rows in range_rows(ranges, frames):
            self._admit(location, rows)

    # -- adversary-side helpers --------------------------------------------------

    def poke(self, location: int, frame) -> None:
        # Tampering reaches whichever copy the next read would be served
        # from: the cold store, and the hot copy if there is one.
        self.cold.poke(location, frame)
        slot = self._slots.get(location)
        if slot is not None:
            self._arena[slot] = np.frombuffer(frame, np.uint8)

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "TieredDiskStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
