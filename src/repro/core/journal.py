"""Write-ahead intent journal for crash-consistent write-back.

Figure 3's write-back rewrites k+1 disk frames *and* relocates three pages
in the trusted ``pageMap``/``pageCache``.  A crash between any two of those
steps leaves the untrusted disk inconsistent with the coprocessor's trusted
state, silently destroying correctness (the map points at frames that were
never written) and the privacy invariant (a repaired request would produce
a trace no other request produces).

The fix is the classical one: before mutating anything, the engine seals a
single *intent record* — the complete post-state of the window (all k + B
freshly encrypted frames, the pageMap delta, the cache delta, the advanced
round-robin pointer) — into a journal slot.  Recovery is then a pure
function of (journal, trusted state):

* no record / unauthentic record → the write-back never began; the request
  rolls back to "never happened" (the round-robin pointer did not advance,
  so the client may simply resend);
* valid record for the in-flight request → roll forward: re-apply every
  delta and rewrite every frame (all idempotent), then clear the journal;
* valid record for an already-committed request → stale; clear it.

One slot, two record kinds
--------------------------

A database has one journal slot and at most one record in it: a request
window's :class:`WriteIntent` (``RJN3``) or an online reshuffle batch's
:class:`ReshuffleIntent` (``RSH2``).  Both kinds are computed under the
engine's ``op_lock``, heal whatever write-back is still pending before they
compute, and commit through the engine's one commit path
(:meth:`RetrievalEngine._commit <repro.core.engine.RetrievalEngine._commit>`),
so recovery reads the record's 4-byte magic, asks the record whether the
trusted state already holds it (:meth:`WriteIntent.stale`), and rolls it
forward with its own ``apply``.

Record layout
-------------

One layout for every window size B (B = 1 is a single request)::

    RJN3 (4B) || nonce (12B) || E(header) || frames || tag (16B)

``header`` is everything the host must not see — request index, pointers,
the extra-frame locations, the cache / flag / map deltas — zero-padded to
:func:`header_size`, its public maximum for a window of B ops (per op: two
cache puts of ``page_capacity`` bytes, one flag op, three map ops).  It is
the only part that is encrypted.  ``frames`` is the window's sealed frame
matrix exactly as it goes to disk, block first.  ``tag`` is one HMAC, under
a key derived for intent records alone, over the magic, the nonce, the
encrypted header and each frame's own 16-byte tag — not over the frames'
bytes (:meth:`SecureCoprocessor.seal_intent
<repro.hardware.coprocessor.SecureCoprocessor.seal_intent>`).

*Why the frames are associated data, not plaintext to encrypt again.*  They
are ciphertext already: the kernel sealed them for the disk, and the host
sees the same k + B frames cross the bus microseconds later.  Their
confidentiality is the bus's; what the journal adds is integrity.  Each
frame's tag already binds its nonce and ciphertext under the frame key, so
the record's tag binds the frames by binding their tags, and recovery opens
every frame of the record before it acts on it — rolls it forward or
discards it as stale.  A torn or truncated record fails its length framing
or the record's tag; a flipped byte in the magic, nonce, header or a
frame's tag fails the record's tag; a flipped byte in a frame's nonce or
body fails that frame's own tag; an older validly-sealed frame swapped into
the frame section carries a different tag, so the record's tag fails.
Every one of them rolls back.  The tag's input is ``16 + header_size(B) +
16 * (k + B)`` bytes: 3 870 for a window of one at BENCH's durable point,
against the ~112 KB of the whole record.

*Constant size.*  A record is ``32 + header_size(B, page_capacity) +
(k + B) * frame_size`` bytes: a function of (k, frame size, page capacity,
B) only — never of the op kind, the payload length or the cache state — so
its length leaks nothing the disk trace does not already leak
(``tests/test_crash_recovery.py::TestConstantSizeRecord`` drives every op
kind, payload length and cache state through it).  The length is also the
record's only framing: :func:`window_of` recovers B from it.

A reshuffle batch's record has the same shape under its own magic, ``RSH2
‖ nonce ‖ E(header) ‖ frames ‖ tag``: the header is the epoch, the frontier
advance and one location and one map op per rewritten frame, with no pad —
the batch's frame count is public already, and :func:`batch_of` recovers it
from the length.

*Upgrades.*  An unauthentic record — including one written by an older
release, whose layout this one does not read — rolls back: drain (let the
in-flight request commit, or run ``recover()``) before upgrading.  A record
lives for one request and nothing is archived, so no old layout is kept.

The journal slot conceptually lives in the coprocessor's battery-backed
NVRAM or on host storage next to the page array.  :class:`MemoryJournal`
models NVRAM for simulations; :class:`FileJournal` keeps the slot in a host
file, rewritten in place — one positioned write and at most one
``fdatasync`` per record, a small unsynced marker write per clear — for
deployments and crash tests against real I/O.  A torn overwrite fails the
record's tag and rolls back; a lost clear brings back a committed record,
which recovery discards as stale.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, RecoveryError, StorageError
from ..shuffle.oblivious import network_size
from ..sim.clock import VirtualClock
from ..storage.frames import RecordCursor
from ..storage.page import Page
from ..storage.timing import DiskTimingModel

__all__ = [
    "load_appended",
    "WriteIntent",
    "ReshuffleIntent",
    "INTENT_MAGIC",
    "RESHUFFLE_MAGIC",
    "header_size",
    "units_in",
    "window_of",
    "batch_of",
    "epoch_units",
    "MemoryJournal",
    "FileJournal",
    "MAP_CACHED",
    "MAP_DISK",
    "FLAG_LIVE",
    "FLAG_DELETED",
]

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")

INTENT_MAGIC = b"RJN3"
RESHUFFLE_MAGIC = b"RSH2"

MAP_CACHED = 0
MAP_DISK = 1
FLAG_LIVE = 1
FLAG_DELETED = 2

# Header sections: request index, next block, rotation countdown, block
# start; then count-prefixed extras, cache puts, flag ops and map ops.
_POINTERS = struct.Struct(">QQqQ")
_PUT = struct.Struct(">QQBI")  # slot, page id, page flags, payload length
_FLAG = struct.Struct(">QB")
_MAP = struct.Struct(">QBQ")
_HEADER_FIXED = _POINTERS.size + 4 * _U32.size
_PUTS_PER_OP, _FLAGS_PER_OP, _MAPS_PER_OP = 2, 1, 3

# Reshuffle header: epoch and frontiers, then per frame its location and
# one (page id, location) map op.
_FRONTIER = struct.Struct(">QQQ")
_MAP_OP = struct.Struct(">QQ")
_HEADER_PER_FRAME = _U64.size + _MAP_OP.size


def _header_per_op(page_capacity: int) -> int:
    return (_U64.size + _PUTS_PER_OP * (_PUT.size + page_capacity)
            + _FLAGS_PER_OP * _FLAG.size + _MAPS_PER_OP * _MAP.size)


def header_size(window: int, page_capacity: int) -> int:
    """Bytes of every intent header for a window of ``window`` ops.

    The public maximum: per op one extra location, two cache puts of a
    full page, one flag op and three map ops.
    """
    return _HEADER_FIXED + window * _header_per_op(page_capacity)


def units_in(length: int, fixed: int, per_unit: int, minimum: int = 0) -> int:
    """How many ``per_unit``-byte units follow ``fixed`` bytes in ``length``.

    A sealed record's length is its only framing: its sections are sized
    by one public count (ops of a window, frames of a reshuffle batch),
    recovered here.  A length no count explains is a torn record.
    """
    units, rest = divmod(length - fixed, per_unit)
    if rest or units < minimum:
        raise StorageError(f"no record of this kind is {length} bytes long")
    return units


def window_of(length: int, block_size: int, frame_size: int,
              page_capacity: int) -> int:
    """The window size whose header and frames total ``length`` bytes."""
    return units_in(
        length,
        header_size(0, page_capacity) + block_size * frame_size,
        _header_per_op(page_capacity) + frame_size,
        minimum=1,
    )


def batch_of(length: int, frame_size: int) -> int:
    """The frame count of the reshuffle batch whose header and frames
    total ``length`` bytes."""
    return units_in(length, _FRONTIER.size, _HEADER_PER_FRAME + frame_size)


def load_appended(path, header: struct.Struct, body_length) -> List[tuple]:
    """Read an append-only log of ``header ‖ body`` records back.

    ``body_length(*fields)`` is a body's size given its header's fields.
    Returns ``(end offset, fields, body)`` per complete record and
    truncates the file at the first incomplete one — the torn tail of a
    crash mid-append.  Cutting it off is what keeps the log appendable:
    left in place, the torn bytes swallow the head of the next record and
    everything appended behind them is unreadable at the next load.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return []
    records = []
    offset = 0
    while offset + header.size <= len(data):
        fields = header.unpack_from(data, offset)
        end = offset + header.size + body_length(*fields)
        if end > len(data):
            break
        records.append((end, fields, data[offset + header.size:end]))
        offset = end
    if offset != len(data):
        os.truncate(path, offset)
    return records


@dataclass
class WriteIntent:
    """Complete redo record for one request's commit phase.

    Everything needed to replay the request idempotently: absolute values
    only (post-state pointers, full frame contents), never increments.
    """

    request_index: int
    next_block: int
    rotation_left: int  # -1 when no key rotation is in progress
    block_start: int
    # One extra frame per executed operation of the window, in op order.
    extra_locations: List[int]
    cache_puts: List[Tuple[int, Page]] = field(default_factory=list)
    flag_ops: List[Tuple[int, int]] = field(default_factory=list)
    map_ops: List[Tuple[int, int, int]] = field(default_factory=list)
    # The k + B sealed frames, block first: the engine hands over the
    # kernel's frame matrix as it is, a decoded record holds a read-only
    # matrix view of the record it came in.
    frames: Sequence = field(default_factory=list)

    @property
    def request_span(self) -> int:
        """How many logical requests this record commits (1 per extra)."""
        return len(self.extra_locations)

    def stale(self, state) -> bool:
        """Whether ``state`` already committed this window.

        Raises :class:`~repro.errors.RecoveryError` when the record is
        *ahead* of it — the trusted state is older than the journal (e.g.
        restored from a stale snapshot) and rolling forward would corrupt
        the database.
        """
        if self.request_index > state.request_count:
            raise RecoveryError(
                f"journal describes request {self.request_index} but the "
                f"trusted state expects request {state.request_count}; the "
                "restored state is older than the journal and cannot be "
                "rolled forward"
            )
        return self.request_index < state.request_count

    def apply(self, cop, disk, tracer) -> None:
        """Commit the window; every step is idempotent.

        Trusted deltas land first (they cannot fail), then the k + B-frame
        write-back (the only crashable step), then the pointer advance that
        marks the window committed.  Re-running the whole method is safe:
        cache puts and map/flag ops write absolute values, frames are
        rewritten verbatim, pointers are assigned not bumped.
        """
        state = cop.state
        for slot, page in self.cache_puts:
            cop.cache.put(slot, page)
        for page_id, op in self.flag_ops:
            if op == FLAG_LIVE:
                state.mark_live(page_id)
            else:
                state.mark_deleted(page_id)
        for page_id, kind, position in self.map_ops:
            if kind == MAP_CACHED:
                state.set_cached(page_id, position)
            else:
                state.set_disk(page_id, position)

        # One contiguous block write plus one write per per-op extra frame
        # — the mirror image of the read side's single block scan — as one
        # store call, for every window size.
        k = cop.block_size
        ranges = [(self.block_start, k)]
        ranges += [(location, 1) for location in self.extra_locations]
        with tracer.span("write_back",
                         nbytes=(k + self.request_span) * disk.frame_size):
            disk.write_ranges(ranges, self.frames)

        if self.rotation_left == 0:
            cop.finish_key_rotation()
        if self.rotation_left < 0:
            # Sealed before any rotation began: one begun since (ahead of
            # this replay or heal) keeps its whole countdown, because these
            # frames carry what is now the legacy key.
            rotation_left = state.rotation_left
        else:
            rotation_left = self.rotation_left or None
        state.advance(self.next_block, self.request_index + self.request_span,
                      rotation_left)

    # -- codec ---------------------------------------------------------------

    def encode(self, page_capacity: int) -> bytes:
        """The record's header: every field but the frames.

        Always :func:`header_size` bytes for this window size — what the
        deltas do not fill is zero pad — so the sealed record's length
        says nothing about what the window's ops did.
        """
        extras = self.extra_locations
        parts: List[bytes] = [
            _POINTERS.pack(self.request_index, self.next_block,
                           self.rotation_left, self.block_start),
            _U32.pack(len(extras)),
        ]
        parts += [_U64.pack(location) for location in extras]
        parts.append(_U32.pack(len(self.cache_puts)))
        for slot, page in self.cache_puts:
            parts.append(_PUT.pack(slot, page.page_id,
                                   2 if page.deleted else 0,
                                   len(page.payload)))
            parts.append(page.payload)
        parts.append(_U32.pack(len(self.flag_ops)))
        parts += [_FLAG.pack(page_id, op) for page_id, op in self.flag_ops]
        parts.append(_U32.pack(len(self.map_ops)))
        parts += [_MAP.pack(*op) for op in self.map_ops]
        header = b"".join(parts)
        size = header_size(len(extras), page_capacity)
        if len(header) > size:
            raise StorageError(
                f"intent header of {len(header)} bytes exceeds the {size}-byte "
                f"bound for a window of {len(extras)}"
            )
        return header.ljust(size, b"\x00")

    @classmethod
    def decode(cls, header: bytes, frames: Sequence) -> "WriteIntent":
        """Rebuild an intent from its decrypted header and its frames."""
        cursor = RecordCursor(header)
        request_index, next_block, rotation_left, block_start = (
            cursor.take_fields(_POINTERS)
        )
        extra_locations = [cursor.take(_U64) for _ in range(cursor.take(_U32))]
        if not extra_locations:
            raise StorageError("intent record carries no extras")
        intent = cls(
            request_index=request_index,
            next_block=next_block,
            rotation_left=rotation_left,
            block_start=block_start,
            extra_locations=extra_locations,
            frames=frames,
        )
        for _ in range(cursor.take(_U32)):
            slot, page_id, flags, length = cursor.take_fields(_PUT)
            intent.cache_puts.append(
                (slot, Page(page_id, cursor.take_bytes(length),
                            deleted=bool(flags & 2)))
            )
        for _ in range(cursor.take(_U32)):
            intent.flag_ops.append(cursor.take_fields(_FLAG))
        for _ in range(cursor.take(_U32)):
            intent.map_ops.append(cursor.take_fields(_MAP))
        cursor.expect_padding("intent record")
        return intent


def epoch_units(num_locations: int) -> int:
    """Units in one reshuffle epoch: Batcher's comparators over
    ``num_locations``, then one sweep reseal per location."""
    return network_size(num_locations) + num_locations


@dataclass
class ReshuffleIntent:
    """Redo record for one comparator (or sweep) batch; absolute values only.

    Sealed like a :class:`WriteIntent`: the header — frontier advance and
    page-map delta — is encrypted, the rewritten frames ride as they go to
    disk, the record's tag covers the header and the frames' own tags, and
    the record's length is a function of the batch's public frame count
    alone.
    """

    epoch: int
    frontier_before: int
    frontier_after: int
    locations: List[int] = field(default_factory=list)
    # One sealed frame per location, as the rows of one matrix (a
    # read-only view of the record when decoded).
    frames: Sequence = field(default_factory=list)
    map_ops: List[Tuple[int, int]] = field(default_factory=list)

    #: A batch serves no request: the trace attributes its accesses to none.
    request_index = -1

    @staticmethod
    def header_size(count: int) -> int:
        """Bytes of the header of a batch rewriting ``count`` frames."""
        return _FRONTIER.size + count * _HEADER_PER_FRAME

    def encode(self) -> bytes:
        """The record's header: every field but the frames."""
        if not len(self.locations) == len(self.map_ops) == len(self.frames):
            raise StorageError("reshuffle record frame/location mismatch")
        parts = [_FRONTIER.pack(self.epoch, self.frontier_before,
                                self.frontier_after)]
        parts += [_U64.pack(location) for location in self.locations]
        parts += [_MAP_OP.pack(*op) for op in self.map_ops]
        return b"".join(parts)

    @classmethod
    def decode(cls, header: bytes, frames: Sequence) -> "ReshuffleIntent":
        """Rebuild an intent from its decrypted header and its frames."""
        cursor = RecordCursor(header)
        epoch, before, after = cursor.take_fields(_FRONTIER)
        count = len(frames)
        intent = cls(
            epoch=epoch, frontier_before=before, frontier_after=after,
            locations=[cursor.take(_U64) for _ in range(count)],
            frames=frames,
            map_ops=[cursor.take_fields(_MAP_OP) for _ in range(count)],
        )
        cursor.expect_end("reshuffle record")
        return intent

    def stale(self, state) -> bool:
        """Whether ``state`` already holds this batch: a later epoch's
        boundary, or this epoch's own apply, made the record moot.

        Raises :class:`~repro.errors.RecoveryError` when the record is
        ahead of (or unmatched by) the trusted state — e.g. the snapshot
        restored is older than the journal.  A torn batch may have left
        half-written frames this record alone can roll forward, so it is
        retained rather than discarded.
        """
        epoch, frontier = state.epoch_base, state.epoch_frontier
        if self.epoch < epoch or (
            self.epoch == epoch and self.frontier_after <= frontier
        ):
            return True
        if self.epoch > epoch or not state.epoch_active:
            raise RecoveryError(
                f"the journal holds a reshuffle record for epoch {self.epoch} "
                f"(frontier {self.frontier_before}->{self.frontier_after}) "
                f"but the trusted state is at epoch {epoch}"
                + ("" if state.epoch_active else " with no active epoch")
                + "; restore the snapshot this journal was written "
                "after — clearing the record would lose the only "
                "roll-forward for a torn batch"
            )
        if self.frontier_before != frontier:
            raise RecoveryError(
                f"the journal's reshuffle record describes frontier "
                f"{self.frontier_before} but the restored epoch is at "
                f"{frontier}; the trusted state is older than the "
                "journal and cannot be rolled forward"
            )
        return False

    def apply(self, cop, disk, tracer) -> None:
        """Commit the batch: rewrite its frames, then move the page map
        and the frontier (ending the epoch at its last unit).  Idempotent."""
        with tracer.span("reshuffle.write_back",
                         nbytes=len(self.frames) * disk.frame_size):
            disk.write_ranges([(loc, 1) for loc in self.locations],
                              self.frames)
        state = cop.state
        for page_id, location in self.map_ops:
            state.set_disk(page_id, location)
        state.advance_epoch(self.frontier_after)
        if self.frontier_after >= epoch_units(disk.num_locations):
            state.end_epoch()


class MemoryJournal:
    """Single-slot intent journal modelling coprocessor NVRAM.

    An optional clock/timing pair charges each journal write like one
    contiguous disk write of the record's size, so cost experiments see the
    real overhead of journaling instead of free durability.
    """

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        timing: Optional[DiskTimingModel] = None,
    ):
        self._blob: Optional[bytes] = None
        self.clock = clock
        self.timing = timing
        self.writes = 0

    def _charge(self, num_bytes: int) -> None:
        if self.clock is not None and self.timing is not None:
            self.clock.advance(self.timing.write_time(num_bytes))

    def write(self, blob: bytes) -> None:
        self._charge(len(blob))
        self._blob = bytes(blob)
        self.writes += 1

    def read(self) -> Optional[bytes]:
        return self._blob

    def clear(self) -> None:
        # Clearing is a small constant-size marker write, not a re-write of
        # the record; charge one seek.
        self._charge(0)
        self._blob = None

    def close(self) -> None:
        """Nothing to release: NVRAM outlives the database that wrote it."""


class FileJournal:
    """Intent journal in a host file: one slot, rewritten in place.

    The file is opened once (created, and its directory synced, by the
    first write) and holds ``length (8B) ‖ record``.  A write is one
    positioned write of both at offset 0, plus one ``fdatasync`` under the
    durability policy; :meth:`clear` zeroes the length — one small write,
    never synced — and :meth:`read` returns ``None`` for a zero length.

    Neither a torn write nor a lost clear can do harm.  A torn overwrite
    leaves a mix of the new record and the old one (or a record cut
    short): it fails the record's tag and rolls back, and nothing of its
    window had been applied yet — the engine applies only after
    :meth:`write` returns.  A lost clear brings back the committed record,
    which recovery discards as stale by its request index (or epoch).
    """

    def __init__(self, path: str, fsync: bool = True):
        if not path:
            raise ConfigurationError("journal path must be non-empty")
        self.path = path
        self.fsync = fsync
        self.writes = 0
        self._fd: Optional[int] = None
        self._closer: Optional[weakref.finalize] = None

    def _descriptor(self, create: bool) -> Optional[int]:
        """The slot file's descriptor, opened on first use; ``None`` when
        the file does not exist and ``create`` is false."""
        if self._fd is None:
            created = not os.path.exists(self.path)
            if created and not create:
                return None
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            # A database dropped without close() releases it at collection.
            self._closer = weakref.finalize(self, os.close, self._fd)
            if created and self.fsync:
                self._sync_directory()
        return self._fd

    def _sync_directory(self) -> None:
        """Make the slot file's directory entry durable, once, at creation:
        syncing the file persists its contents, not its name."""
        parent = os.path.dirname(os.path.abspath(self.path))
        flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
        try:
            fd = os.open(parent, flags)
        except OSError:
            return  # platform cannot open directories (e.g. Windows)
        try:
            os.fsync(fd)
        except OSError:
            # Some filesystems reject directory fsync; nothing more we
            # can do — matches the behaviour of other WAL implementations.
            pass
        finally:
            os.close(fd)

    def write(self, blob: bytes) -> None:
        fd = self._descriptor(create=True)
        expected = _U64.size + len(blob)
        if os.pwritev(fd, (_U64.pack(len(blob)), blob), 0) != expected:
            raise StorageError("short write to the journal slot")
        if self.fsync:
            getattr(os, "fdatasync", os.fsync)(fd)
        self.writes += 1

    def read(self) -> Optional[bytes]:
        fd = self._descriptor(create=False)
        if fd is None:
            return None
        data = os.pread(fd, os.fstat(fd).st_size, 0)
        if len(data) < _U64.size:
            return None
        length = _U64.unpack_from(data)[0]
        # A slot cut short returns what is there: a torn record.
        return data[_U64.size:_U64.size + length] if length else None

    def clear(self) -> None:
        fd = self._descriptor(create=False)
        if fd is not None:
            os.pwrite(fd, bytes(_U64.size), 0)

    def close(self) -> None:
        """Release the slot file's descriptor; idempotent.  The record, if
        any, stays in the file for the next journal on this path."""
        if self._closer is not None:
            self._closer()
        self._fd = self._closer = None
