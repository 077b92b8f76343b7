"""Write-ahead intent journal for crash-consistent write-back.

Figure 3's write-back rewrites k+1 disk frames *and* relocates three pages
in the trusted ``pageMap``/``pageCache``.  A crash between any two of those
steps leaves the untrusted disk inconsistent with the coprocessor's trusted
state, silently destroying correctness (the map points at frames that were
never written) and the privacy invariant (a repaired request would produce
a trace no other request produces).

The fix is the classical one: before mutating anything, the engine seals a
single *intent record* — the complete post-state of the request (all k+1
freshly encrypted frames with their locations, the pageMap delta, the cache
delta, the advanced round-robin pointer) — into a journal slot.  The record
is encrypted and MACd under the coprocessor's keys, so the host learns
nothing from it (it already sees the same k+1 ciphertexts on the bus) and
cannot forge or tear it undetectably.  Recovery is then a pure function of
(journal, trusted state):

* no record / unauthentic record → the write-back never began; the request
  rolls back to "never happened" (the round-robin pointer did not advance,
  so the client may simply resend);
* valid record for the in-flight request → roll forward: re-apply every
  delta and rewrite every frame (all idempotent), then clear the journal;
* valid record for an already-committed request → stale; clear it.

The journal slot conceptually lives in the coprocessor's battery-backed
NVRAM or on host storage next to the page array; either way it is one
bounded, constant-size write per request whose size depends only on public
parameters (k, B) — it leaks nothing the disk trace does not already leak.

:class:`MemoryJournal` models NVRAM for simulations; :class:`FileJournal`
stores the record in a host file with atomic replace semantics for
deployments and crash tests against real I/O.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, StorageError
from ..sim.clock import VirtualClock
from ..storage.page import Page
from ..storage.timing import DiskTimingModel

__all__ = [
    "RecordCursor",
    "WriteIntent",
    "MemoryJournal",
    "FileJournal",
    "MAP_CACHED",
    "MAP_DISK",
    "FLAG_LIVE",
    "FLAG_DELETED",
]

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")

_MAGIC = b"RJN1"
# Fused-window records (several extra frames committed with one block
# write-back) use a second magic so single-extra records stay byte-identical
# to the RJN1 layout — the journal blob's size is charged to the virtual
# clock, so growing the single-extra encoding would shift every committed
# perf baseline.
_MAGIC_V2 = b"RJN2"

MAP_CACHED = 0
MAP_DISK = 1
FLAG_LIVE = 1
FLAG_DELETED = 2


class RecordCursor:
    """Bounds-checked sequential reader over one sealed record blob.

    The RJN1/RJN2 intent codec here and the RPL1 replication-record codec
    (:mod:`repro.cluster.replication`) share this reader, so every
    fixed-width field, flag byte, and length-prefixed payload decodes with
    identical truncation behaviour: any read past the end of the blob
    raises :class:`~repro.errors.StorageError` instead of a bare
    ``struct.error``/``IndexError``.
    """

    def __init__(self, blob: bytes, offset: int = 0):
        self.blob = blob
        self.offset = offset

    def take(self, fmt: struct.Struct) -> int:
        try:
            value = fmt.unpack_from(self.blob, self.offset)[0]
        except struct.error as exc:
            raise StorageError(f"record is truncated: {exc}") from exc
        self.offset += fmt.size
        return value

    def take_byte(self) -> int:
        if self.offset >= len(self.blob):
            raise StorageError("record is truncated")
        value = self.blob[self.offset]
        self.offset += 1
        return value

    def take_bytes(self, length: int) -> bytes:
        if length < 0 or self.offset + length > len(self.blob):
            raise StorageError("record is truncated")
        value = self.blob[self.offset:self.offset + length]
        self.offset += length
        return value

    def expect_end(self, what: str) -> None:
        if self.offset != len(self.blob):
            raise StorageError(f"trailing bytes in {what}")


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
    extra_location: int
    cache_puts: List[Tuple[int, Page]] = field(default_factory=list)
    flag_ops: List[Tuple[int, int]] = field(default_factory=list)
    map_ops: List[Tuple[int, int, int]] = field(default_factory=list)
    # The k + B sealed frames, block first: the engine hands over the
    # kernel's frame matrix as it is, a decoded record holds ``bytes`` rows.
    frames: Sequence = field(default_factory=list)
    # A fused batch window commits one extra frame per executed operation;
    # ``None`` means the classic single-extra request (``extra_location``).
    extra_locations: Optional[List[int]] = None

    def __post_init__(self) -> None:
        # Normalise: a one-entry list IS the classic single-extra record,
        # so both spellings encode (and compare) identically.
        if self.extra_locations is not None:
            if not self.extra_locations:
                raise ConfigurationError("intent needs at least one extra")
            self.extra_location = self.extra_locations[0]
            if len(self.extra_locations) == 1:
                self.extra_locations = None

    def extras(self) -> List[int]:
        """Extra-frame locations, always as a list (len 1 for serial ops)."""
        if self.extra_locations is None:
            return [self.extra_location]
        return list(self.extra_locations)

    @property
    def request_span(self) -> int:
        """How many logical requests this record commits (1 per extra)."""
        return 1 if self.extra_locations is None else len(self.extra_locations)

    # -- codec ---------------------------------------------------------------

    def encode(self) -> bytes:
        if self.extra_locations is None:
            extra_parts = [_U64.pack(self.extra_location)]
            magic = _MAGIC
        else:
            extra_parts = [_U32.pack(len(self.extra_locations))]
            extra_parts += [_U64.pack(loc) for loc in self.extra_locations]
            magic = _MAGIC_V2
        parts: List[bytes] = [
            magic,
            _U64.pack(self.request_index),
            _U64.pack(self.next_block),
            _I64.pack(self.rotation_left),
            _U64.pack(self.block_start),
        ] + extra_parts
        parts.append(_U32.pack(len(self.cache_puts)))
        for slot, page in self.cache_puts:
            parts.append(_U64.pack(slot))
            parts.append(_U64.pack(page.page_id))
            parts.append(bytes([2 if page.deleted else 0]))
            parts.append(_U32.pack(len(page.payload)))
            parts.append(page.payload)
        parts.append(_U32.pack(len(self.flag_ops)))
        for page_id, op in self.flag_ops:
            parts.append(_U64.pack(page_id))
            parts.append(bytes([op]))
        parts.append(_U32.pack(len(self.map_ops)))
        for page_id, kind, position in self.map_ops:
            parts.append(_U64.pack(page_id))
            parts.append(bytes([kind]))
            parts.append(_U64.pack(position))
        parts.append(_U32.pack(len(self.frames)))
        for frame in self.frames:
            parts.append(_U32.pack(len(frame)))
            parts.append(frame)
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "WriteIntent":
        magic = bytes(blob[:4])
        if magic not in (_MAGIC, _MAGIC_V2):
            raise StorageError("intent record has a bad magic number")
        cursor = RecordCursor(blob, offset=4)

        request_index = cursor.take(_U64)
        next_block = cursor.take(_U64)
        rotation_left = cursor.take(_I64)
        block_start = cursor.take(_U64)
        if magic == _MAGIC:
            extra_location = cursor.take(_U64)
            extra_locations = None
        else:
            extra_locations = [
                cursor.take(_U64) for _ in range(cursor.take(_U32))
            ]
            if not extra_locations:
                raise StorageError("intent record carries no extras")
            extra_location = extra_locations[0]
        intent = cls(
            request_index=request_index,
            next_block=next_block,
            rotation_left=rotation_left,
            block_start=block_start,
            extra_location=extra_location,
            extra_locations=extra_locations,
        )
        for _ in range(cursor.take(_U32)):
            slot = cursor.take(_U64)
            page_id = cursor.take(_U64)
            flags = cursor.take_byte()
            payload = cursor.take_bytes(cursor.take(_U32))
            intent.cache_puts.append(
                (slot, Page(page_id, payload, deleted=bool(flags & 2)))
            )
        for _ in range(cursor.take(_U32)):
            page_id = cursor.take(_U64)
            intent.flag_ops.append((page_id, cursor.take_byte()))
        for _ in range(cursor.take(_U32)):
            page_id = cursor.take(_U64)
            kind = cursor.take_byte()
            intent.map_ops.append((page_id, kind, cursor.take(_U64)))
        for _ in range(cursor.take(_U32)):
            intent.frames.append(cursor.take_bytes(cursor.take(_U32)))
        cursor.expect_end("intent record")
        return intent


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


class FileJournal:
    """Intent journal in a host file, replaced atomically on every write.

    The write path is the standard crash-safe sequence: write a temp file,
    flush, fsync (per the durability policy), rename over the slot.  A
    record observed by :meth:`read` is therefore either absent, complete,
    or — if the platform tore the rename, which POSIX forbids but tests
    simulate — detectably unauthentic to the sealed-record MAC.
    """

    def __init__(
        self,
        path: str,
        clock: Optional[VirtualClock] = None,
        timing: Optional[DiskTimingModel] = None,
        fsync: bool = True,
    ):
        if not path:
            raise ConfigurationError("journal path must be non-empty")
        self.path = path
        self.clock = clock
        self.timing = timing
        self.fsync = fsync
        self.writes = 0

    def _charge(self, num_bytes: int) -> None:
        if self.clock is not None and self.timing is not None:
            self.clock.advance(self.timing.write_time(num_bytes))

    def _sync_directory(self) -> None:
        """Make the rename/unlink itself durable.

        fsyncing the temp file only persists its *contents*; the directory
        entry created by ``os.replace`` (or removed by ``os.remove``) lives
        in the parent directory's data and survives power loss only after
        the directory is fsynced too.  Without this a "sealed" intent can
        vanish on power loss while a torn write-back partially landed —
        the exact silent inconsistency the journal exists to prevent.
        """
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
        self._charge(len(blob))
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        if self.fsync:
            self._sync_directory()
        self.writes += 1

    def read(self) -> Optional[bytes]:
        if not os.path.exists(self.path):
            return None
        with open(self.path, "rb") as handle:
            return handle.read()

    def clear(self) -> None:
        self._charge(0)
        try:
            os.remove(self.path)
        except FileNotFoundError:
            return
        if self.fsync:
            self._sync_directory()
