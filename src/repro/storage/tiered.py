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
and a crash can at worst lose *cache warmth*, never data.  Membership
changes (promotions and evictions) are appended to a small journal file so
a restart can re-warm the hot set from the cold store instead of starting
cold.

Layout: the hot frames are the rows of one ``capacity x frame_size`` arena;
an ``OrderedDict`` maps each resident location to its row and *is* the LRU
order.  A range is handled as a range — one pass over its locations that
only moves dictionary entries, then one copy of the rows between the
caller's matrix and the arena, one counter increment per kind and one
membership-journal write per call.

Counters (``tier.`` prefix): ``hit``/``miss`` count frames served from the
hot/cold tier, ``promote``/``evict`` count membership changes.
"""

from __future__ import annotations

import os
import struct
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

# Journal record: one membership change per record.
_REC = struct.Struct(">BQ")
_OP_PROMOTE = 1
_OP_EVICT = 2


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
    hot_timing:
        Virtual-clock model charged for hot hits; defaults to
        :data:`MEMORY_TIER_TIMING`.
    journal_path:
        Optional path for the membership journal.  When the file already
        exists its surviving prefix is replayed and the hot set re-warmed
        from the cold store (torn trailing records are discarded, the
        same tail-trust rule as the replication backlog).
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` mirroring
        the ``tier.*`` counters.
    """

    def __init__(
        self,
        cold: DiskStore,
        hot_capacity: int,
        hot_timing: Optional[DiskTimingModel] = None,
        journal_path: Optional[str] = None,
        metrics=None,
    ):
        if hot_capacity <= 0:
            raise ConfigurationError("hot tier needs a positive capacity")
        super().__init__(cold)
        self.cold = cold  # the tier's own name for ``inner``
        self.hot_capacity = hot_capacity
        self.hot_timing = hot_timing if hot_timing is not None else MEMORY_TIER_TIMING
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
        self._journal_path = journal_path
        self._journal_file = None
        self._journal_records = 0
        self._closed = False
        if journal_path is not None:
            self._warm_from_journal(journal_path)
            self._journal_file = open(journal_path, "ab")

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
        frame); counted and journalled as evictions."""
        victims = list(self._slots) if location is None else (
            [location] if location in self._slots else []
        )
        if not victims:
            return
        for victim in victims:
            self._free.append(self._slots.pop(victim))
        self.counters.increment("evict", len(victims))
        if self._journal_file is not None:
            self._journal([_REC.pack(_OP_EVICT, victim) for victim in victims])

    def hit_rate(self) -> float:
        """Fraction of read frames served from the hot tier so far."""
        hits = self.counters.get("hit")
        total = hits + self.counters.get("miss")
        return hits / total if total else 0.0

    # -- membership journal ----------------------------------------------------

    def _warm_from_journal(self, path: str) -> None:
        if not os.path.exists(path):
            return
        with open(path, "rb") as handle:
            blob = handle.read()
        usable = len(blob) - len(blob) % _REC.size
        members: "OrderedDict[int, None]" = OrderedDict()
        for offset in range(0, usable, _REC.size):
            op, location = _REC.unpack_from(blob, offset)
            if op == _OP_PROMOTE and 0 <= location < self.num_locations:
                members[location] = None
                members.move_to_end(location)
            elif op == _OP_EVICT:
                members.pop(location, None)
            # Unknown ops are skipped: the journal is advisory warmth, so
            # a future format extension must not brick old readers.
        # The last hot_capacity members that still hold a frame survive.
        frames = [(loc, self.cold.peek(loc)) for loc in members]
        frames = [(loc, frame) for loc, frame in frames if frame is not None]
        for location, frame in frames[-self.hot_capacity:]:
            slot = self._slots[location] = self._free.pop()
            self._arena[slot] = np.frombuffer(frame, np.uint8)
        # Rewrite compactly: the replayed history collapses to one promote
        # per surviving member, which also drops any torn tail on disk.
        self._compact_journal(sync=True)

    def _compact_journal(self, sync: bool = False) -> None:
        with open(self._journal_path, "wb") as handle:
            handle.write(b"".join(
                [_REC.pack(_OP_PROMOTE, member) for member in self._slots]
            ))
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        self._journal_records = len(self._slots)

    def _journal(self, records: List[bytes]) -> None:
        """Append one call's packed membership records, in order."""
        self._journal_file.write(b"".join(records))
        self._journal_records += len(records)
        # Compact once the log is dominated by dead churn; the live state
        # is at most hot_capacity promotes.
        if self._journal_records > max(64, 8 * self.hot_capacity):
            self._journal_file.flush()
            self._journal_file.close()
            self._compact_journal()
            self._journal_file = open(self._journal_path, "ab")

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
        records = [] if self._journal_file is not None else None
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
                    if records is not None:
                        records.append(_REC.pack(_OP_PROMOTE, loc))
                    if free:
                        slot = free.pop()
                    else:
                        victim, slot = slots.popitem(last=False)
                        evicted += 1
                        if records is not None:
                            records.append(_REC.pack(_OP_EVICT, victim))
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
        if records:
            self._journal(records)

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
            self.clock.advance(self.hot_timing.read_time(out.nbytes))
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

    def flush(self) -> None:
        if self._journal_file is not None and not self._closed:
            self._journal_file.flush()
            os.fsync(self._journal_file.fileno())
        self.cold.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._journal_file is not None:
            self._journal_file.flush()
            os.fsync(self._journal_file.fileno())
            self._journal_file.close()
        self.cold.close()

    def __enter__(self) -> "TieredDiskStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
