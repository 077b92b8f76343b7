"""Everything the engine remembers inside the tamper boundary, and its one
sealed layout.

:class:`TrustedState` owns the position map (``pageMap`` of Figure 2), the
free pool §4.3's insertions draw from, the request path's scalars (the
round-robin block pointer, the request count, the key-rotation countdown),
the online reshuffle's epoch (the last epoch begun, its frontier, whether
it is still active, its secret sort key and the count of driver resumes
that names each resume's nonce stream) and the stream-mark vector: per
replication origin, the last sequence whose effect this content includes —
the applied mark of a peer's stream and the emitted mark of the member's
own.  The cached pages themselves stay in
:class:`~repro.hardware.cache.PageCache` and the master keys in the
coprocessor; :meth:`TrustedState.encode` lays all of it out — map, scalars,
epoch, stream marks, cache slots and the legacy key of an unfinished
rotation — as one versioned blob, which
:func:`~repro.core.snapshot.suspend` seals, and
:meth:`TrustedState.decode` is its only reader.

Each map entry is the tuple ``(inCache, position)`` of Figure 2 in two
columns: ``position`` in the smallest unsigned type that holds a disk
location or a cache slot, and ``flags`` with the in-cache, deleted and
*placed* bits.  A page with no recorded position is a clear placed bit,
never a sentinel position, so 2^16 locations still fit 16 bits.  Eq. 7
charges ``ceil(log2 n) + 1`` bits per entry (:meth:`storage_bits`); the
columns round the position up to whole bytes and add the flags byte (24
bits against Eq. 7's 18 for 2^16 locations and 1024 cached pages).
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from typing import Dict, Optional, Set

import numpy as np

from ..errors import ConfigurationError, PageNotFoundError, StorageError
from ..storage.frames import RecordCursor
from ..storage.page import Page

__all__ = ["TrustedState", "PageLocation", "TAG_KEY_SIZE"]

#: Resolved location of a logical page: plain ``bool`` / ``int`` fields.
PageLocation = namedtuple("PageLocation", "in_cache position deleted")

# Sealed layout: version, (n, m, k); next block, request count, rotation
# countdown (-1 = none), last epoch begun, its frontier, its active bit,
# resumes so far; the length-prefixed legacy key (empty = no rotation) and
# epoch key (empty = no epoch yet); the stream marks as a count, then per
# origin in increasing order its length-prefixed UTF-8 name and sequence;
# the position and flags columns; then per cache slot its page id, deleted
# flag and length-prefixed payload.
_VERSION = 5
_HEADER = struct.Struct(">BQQQ")
_SCALARS = struct.Struct(">QQqQQ?Q")
_SLOT = struct.Struct(">QBI")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_IN_CACHE, _DELETED, _PLACED = 1, 2, 4

#: Bytes of a reshuffle epoch's secret sort key.
TAG_KEY_SIZE = 32


class TrustedState:
    """Position map, free pool, request scalars, reshuffle epoch and
    stream marks of one database: ``num_locations`` disk pages plus
    ``cache_capacity`` cached pages, scanned ``block_size`` locations per
    request."""

    def __init__(self, num_locations: int, cache_capacity: int,
                 block_size: int):
        if min(num_locations, cache_capacity, block_size) <= 0:
            raise ConfigurationError("trusted state needs positive n, m and k")
        self.num_locations = num_locations
        self.cache_capacity = cache_capacity
        self.block_size = block_size
        self.num_pages = num_locations + cache_capacity
        self.num_blocks = num_locations // block_size
        # Little-endian whatever the host: the sealed layout is tobytes().
        self.position = np.zeros(self.num_pages, np.min_scalar_type(
            max(num_locations, cache_capacity) - 1).newbyteorder("<"))
        self.flags = np.zeros(self.num_pages, np.uint8)
        self._free: Set[int] = set()
        self._next_block = 0
        self._request_count = 0
        self._rotation_left: Optional[int] = None
        self._epoch_base = 0
        self._epoch_frontier = 0
        self._epoch_active = False
        self._epoch_key = b""
        self._epoch_resumes = 0
        self._streams: Dict[str, int] = {}

    # -- map queries -------------------------------------------------------------

    def _check_id(self, page_id: int) -> int:
        if not 0 <= page_id < self.num_pages:
            raise PageNotFoundError(f"page id {page_id} out of range [0, {self.num_pages})")
        return page_id

    def lookup(self, page_id: int) -> PageLocation:
        flags = self.flags.item(self._check_id(page_id))
        if not flags & _PLACED:
            raise PageNotFoundError(f"page id {page_id} has no recorded position")
        return PageLocation(bool(flags & _IN_CACHE), self.position.item(page_id),
                            bool(flags & _DELETED))

    def is_cached(self, page_id: int) -> bool:
        return bool(self.flags.item(self._check_id(page_id)) & _IN_CACHE)

    def is_deleted(self, page_id: int) -> bool:
        return bool(self.flags.item(self._check_id(page_id)) & _DELETED)

    def disk_location(self, page_id: int) -> int:
        """Disk location of a non-cached page (error if it is cached)."""
        location = self.lookup(page_id)
        if location.in_cache:
            raise PageNotFoundError(f"page {page_id} is cached, not on disk")
        return location.position

    @property
    def cached_count(self) -> int:
        return int(np.count_nonzero(self.flags & _IN_CACHE))

    # -- map updates -------------------------------------------------------------

    def set_disk(self, page_id: int, location: int) -> None:
        """Record that ``page_id`` now lives at ``location`` on the disk."""
        self._place(page_id, location, 0, self.num_locations)

    def set_cached(self, page_id: int, slot: int) -> None:
        """Record that ``page_id`` now occupies cache slot ``slot``."""
        self._place(page_id, slot, _IN_CACHE, self.cache_capacity)

    def _place(self, page_id: int, position: int, in_cache: int,
               bound: int) -> None:
        if not 0 <= position < bound:
            raise ConfigurationError(f"position {position} outside [0, {bound})")
        self._check_id(page_id)
        self.position[page_id] = position
        self.flags[page_id] = self.flags.item(page_id) & _DELETED | _PLACED | in_cache

    def load_columns(self, in_cache, position, deleted) -> None:
        """Replace every entry at once from three per-id columns.

        The bulk form of ``set_disk`` / ``set_cached`` / ``mark_deleted``
        over the whole map, for setup: three arrays (or sequences) of
        ``num_pages`` values, every page placed.  A position outside its
        container is refused as those calls refuse one.
        """
        in_cache, deleted = np.asarray(in_cache, bool), np.asarray(deleted, bool)
        position = np.asarray(position)
        if not len(in_cache) == len(position) == len(deleted) == self.num_pages:
            raise ConfigurationError(
                f"page map columns must hold {self.num_pages} entries each"
            )
        self._adopt(position, in_cache * _IN_CACHE | deleted * _DELETED | _PLACED,
                    ConfigurationError)

    def _adopt(self, position: np.ndarray, flags: np.ndarray, error) -> None:
        """Install whole columns once every entry is placed inside its
        container; ``error`` is the type a bad entry raises."""
        bound = np.where(flags & _IN_CACHE, self.cache_capacity, self.num_locations)
        bad = np.flatnonzero((flags & _PLACED == 0) | (position < 0)
                             | (position >= bound))
        if len(bad):
            raise error(f"page id {bad[0]}: position {position[bad[0]]} is not "
                        "a placed slot of its container")
        self.position = position.astype(self.position.dtype)
        self.flags = flags.astype(np.uint8)
        self._free = set(np.flatnonzero(self.flags & _DELETED).tolist())

    # -- free pool -----------------------------------------------------------------

    def mark_deleted(self, page_id: int) -> None:
        self.flags[self._check_id(page_id)] |= _DELETED
        self._free.add(page_id)

    def mark_live(self, page_id: int) -> None:
        self.flags[self._check_id(page_id)] &= ~np.uint8(_DELETED)
        self._free.discard(page_id)

    @property
    def free_count(self) -> int:
        """Number of ids available to host a future insertion."""
        return len(self._free)

    def any_free_id(self) -> int:
        """An arbitrary free id (deterministic order not required)."""
        if not self._free:
            raise PageNotFoundError("no free pages available for insertion")
        return next(iter(self._free))

    def free_ids(self) -> Set[int]:
        return set(self._free)

    # -- request scalars ---------------------------------------------------------------

    @property
    def next_block(self) -> int:
        """Round-robin index (0..num_blocks-1) of the next request's block."""
        return self._next_block

    @property
    def request_count(self) -> int:
        return self._request_count

    @property
    def rotation_left(self) -> Optional[int]:
        """Requests until the legacy key can be dropped, or None when no
        key rotation is in progress."""
        return self._rotation_left

    @property
    def epoch_base(self) -> int:
        """The last reshuffle epoch begun, active or not: a later driver
        numbers its epochs from here, so it never respawns an earlier
        epoch's nonce label or key."""
        return self._epoch_base

    @property
    def epoch_frontier(self) -> int:
        """Units of the last epoch applied: comparators, then sweep slots."""
        return self._epoch_frontier

    @property
    def epoch_active(self) -> bool:
        """True from :meth:`begin_epoch` until :meth:`end_epoch`."""
        return self._epoch_active

    @property
    def epoch_key(self) -> bytes:
        """The last epoch's secret sort key (empty before the first)."""
        return self._epoch_key

    def advance(self, next_block: int, request_count: int,
                rotation_left: Optional[int]) -> None:
        """The pointer advance that marks a request window committed."""
        self._next_block = next_block
        self._request_count = request_count
        self._rotation_left = rotation_left

    def start_rotation_countdown(self) -> None:
        """A request-driven key rotation ends after one scan period."""
        self._rotation_left = self.num_blocks

    def begin_epoch(self, epoch_key: bytes) -> int:
        """Start the next reshuffle epoch at frontier 0 under its
        :data:`TAG_KEY_SIZE`-byte sort key; returns its number."""
        self._epoch_base += 1
        self._epoch_frontier = 0
        self._epoch_active = True
        self._epoch_key = bytes(epoch_key)
        return self._epoch_base

    def advance_epoch(self, frontier: int) -> None:
        """Record a batch applied up to ``frontier``."""
        self._epoch_frontier = frontier

    def end_epoch(self) -> None:
        """The epoch's last unit applied; its number and key stay."""
        self._epoch_active = False

    def next_resume(self) -> int:
        """Count one more driver attached mid-epoch; returns the count, so
        no two resumes of one lineage share a nonce label."""
        self._epoch_resumes += 1
        return self._epoch_resumes

    # -- stream marks ------------------------------------------------------------------

    def stream_mark(self, origin: str) -> int:
        """The last sequence of ``origin``'s replication stream whose
        effect this content includes (0 = none)."""
        return self._streams.get(origin, 0)

    def advance_stream(self, origin: str, seq: int) -> None:
        """Record ``origin``'s sequence ``seq`` applied (or emitted)."""
        if not origin:
            raise ConfigurationError("a replication origin must be non-empty")
        self._streams[origin] = seq

    # -- the sealed layout -------------------------------------------------------------

    def encode(self, cache, legacy_key: Optional[bytes]) -> bytes:
        """Everything :meth:`decode` restores, plus ``cache``'s slots (in
        slot order: cached positions point at them) and the ``legacy_key``
        of an unfinished rotation.  A page with no recorded position is
        refused, never encoded."""
        unplaced = np.flatnonzero(self.flags & _PLACED == 0)
        if len(unplaced):
            raise PageNotFoundError(f"page id {unplaced[0]} has no recorded position")
        rotation_left = -1 if self._rotation_left is None else self._rotation_left
        legacy_key = legacy_key or b""
        parts = [
            _HEADER.pack(*self._header()),
            _SCALARS.pack(self._next_block, self._request_count, rotation_left,
                          self._epoch_base, self._epoch_frontier,
                          self._epoch_active, self._epoch_resumes),
            _U32.pack(len(legacy_key)), legacy_key,
            _U32.pack(len(self._epoch_key)), self._epoch_key,
            _U32.pack(len(self._streams)),
        ]
        for origin, seq in sorted(self._streams.items()):
            name = origin.encode("utf-8")
            parts += [_U16.pack(len(name)), name, _U64.pack(seq)]
        parts += [self.position.tobytes(), self.flags.tobytes()]
        for page in map(cache.get, range(cache.capacity)):
            parts.append(_SLOT.pack(page.page_id, _DELETED if page.deleted else 0,
                                    len(page.payload)))
            parts.append(page.payload)
        return b"".join(parts)

    def decode(self, blob: bytes, cache, cop) -> None:
        """Restore a blob :meth:`encode` wrote: this state, ``cache``'s
        slots, and — mid-rotation — the legacy key through ``cop``.

        A rotation is a legacy key and a countdown together.  A legacy key
        with no countdown (the sweep-finished rotation older blobs record)
        restores with a full one, which re-encrypts every location as
        surely as the sweep would have.

        The blob must be this layout, sealed for this state's (n, m, k);
        its block pointer must name one of the n / k blocks, a countdown
        must come with a legacy key, its epoch key
        must be empty or :data:`TAG_KEY_SIZE` bytes, an active epoch must
        have a key, and its stream origins must be non-empty UTF-8 names in
        strictly increasing order (so one state has one encoding).  Anything
        else, like a truncated or over-long blob, is a :class:`StorageError`
        raised before any part changes.
        """
        cursor = RecordCursor(blob)
        header = cursor.take_fields(_HEADER)
        if header != self._header():
            raise StorageError(f"trusted state sealed as (layout, n, m, k) = "
                               f"{header}, not {self._header()}")
        (next_block, request_count, rotation_left, epoch_base, frontier,
         active, resumes) = cursor.take_fields(_SCALARS)
        if next_block >= self.num_blocks:
            raise StorageError(f"sealed block pointer {next_block} is not one "
                               f"of {self.num_blocks} blocks")
        legacy_key = cursor.take_bytes(cursor.take(_U32))
        if rotation_left >= 0 and not legacy_key:
            raise StorageError(f"sealed key rotation has {rotation_left} "
                               "requests left but no legacy key")
        epoch_key = cursor.take_bytes(cursor.take(_U32))
        if len(epoch_key) not in (0, TAG_KEY_SIZE):
            raise StorageError(f"sealed epoch key is {len(epoch_key)} bytes, "
                               f"not 0 or {TAG_KEY_SIZE}")
        if active and not epoch_key:
            raise StorageError(f"sealed epoch {epoch_base} is active with no key")
        streams, previous = {}, ""
        for _ in range(cursor.take(_U32)):
            try:
                origin = str(cursor.take_bytes(cursor.take(_U16)), "utf-8")
            except UnicodeDecodeError as exc:
                raise StorageError(
                    f"sealed stream origin is not UTF-8: {exc}") from None
            if origin <= previous:
                raise StorageError(f"sealed stream origin {origin!r} is empty or "
                                   f"not after {previous!r}")
            streams[origin], previous = cursor.take(_U64), origin
        position = np.frombuffer(cursor.take_bytes(self.position.nbytes),
                                 self.position.dtype)
        flags = np.frombuffer(cursor.take_bytes(self.num_pages), np.uint8)
        pages = []
        for _slot in range(self.cache_capacity):
            page_id, page_flags, length = cursor.take_fields(_SLOT)
            pages.append(Page(page_id, cursor.take_bytes(length),
                              deleted=bool(page_flags & _DELETED)))
        cursor.expect_end("trusted-state blob")

        self._adopt(position, flags, StorageError)
        if not legacy_key:
            rotation_left = None
        elif rotation_left < 0:
            rotation_left = self.num_blocks
        self.advance(next_block, request_count, rotation_left)
        self._epoch_base, self._epoch_frontier = epoch_base, frontier
        self._epoch_active, self._epoch_key = active, bytes(epoch_key)
        self._epoch_resumes = resumes
        self._streams = streams
        cache.fill(pages)
        if legacy_key:
            cop.adopt_legacy_key(legacy_key)

    def _header(self) -> tuple:
        return (_VERSION, self.num_locations, self.cache_capacity, self.block_size)

    # -- storage accounting (Eq. 7, first term) ---------------------------------------

    def storage_bits(self) -> int:
        """Secure-memory bits consumed: ``n * (ceil(log2 n) + 1)``."""
        return self.num_pages * (max(1, math.ceil(math.log2(self.num_pages))) + 1)

    def storage_bytes(self) -> int:
        return (self.storage_bits() + 7) // 8
