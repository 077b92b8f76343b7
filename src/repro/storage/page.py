"""Logical database pages and their on-disk byte layout.

The paper models the database as ``n`` pages, each a tuple ``(id, data)``
with ids in ``[0, n)``.  Dummy pages (padding so n is a multiple of k, and
pre-allocated slots for future insertions, §4.3) carry the reserved id
:data:`DUMMY_ID`.

On-disk plaintext layout (before encryption into a frame)::

    id (8B big-endian) || flags (1B) || payload length (4B) || payload || zero pad

so a plaintext page occupies exactly ``HEADER_SIZE + capacity`` bytes
regardless of how much payload it carries — page size must never leak the
page's identity.

A request window is ``k + B`` such plaintexts held as the rows of one
``numpy.uint8`` matrix (DESIGN.md §14).  :func:`decode_headers` /
:func:`encode_pages` are the same layout over every row at once, and
:class:`PageWindow` is the window itself: it decodes only the slots that
are asked for and re-encodes only the slots that were replaced.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..errors import StorageError

__all__ = ["Page", "PageWindow", "decode_headers", "encode_pages",
           "DUMMY_ID", "HEADER_SIZE", "FLAG_DELETED"]

DUMMY_ID = 2**64 - 1
HEADER_SIZE = 8 + 1 + 4
FLAG_DELETED = 0x01

# The header as one packed record, so a window's headers are three columns.
_HEADER = np.dtype([("id", ">u8"), ("flags", "u1"), ("length", ">u4")])


@dataclass(frozen=True)
class Page:
    """An immutable logical page: identity, payload and lifecycle flags."""

    page_id: int
    payload: bytes = b""
    deleted: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.page_id <= DUMMY_ID:
            raise StorageError(f"page id {self.page_id} out of range")

    @property
    def is_dummy(self) -> bool:
        """True for padding/reserved pages that hold no user data."""
        return self.page_id == DUMMY_ID

    @property
    def is_free(self) -> bool:
        """True if this slot can host a future insertion (dummy or deleted)."""
        return self.is_dummy or self.deleted

    @staticmethod
    def dummy() -> "Page":
        """A fresh padding page (deleted, so it is insertion-eligible)."""
        return Page(DUMMY_ID, b"", deleted=True)

    def with_payload(self, payload: bytes) -> "Page":
        """Copy of this page carrying new payload (used by modifications)."""
        return Page(self.page_id, payload, deleted=False)

    def mark_deleted(self) -> "Page":
        """Copy of this page flagged deleted (payload wiped)."""
        return Page(self.page_id, b"", deleted=True)

    # -- byte layout ----------------------------------------------------------

    def encode(self, capacity: int) -> bytes:
        """Serialise into exactly ``HEADER_SIZE + capacity`` plaintext bytes."""
        if capacity < 0:
            raise StorageError("page capacity must be non-negative")
        if len(self.payload) > capacity:
            raise StorageError(
                f"payload of {len(self.payload)} bytes exceeds page capacity {capacity}"
            )
        flags = FLAG_DELETED if self.deleted else 0
        header = (
            self.page_id.to_bytes(8, "big")
            + bytes([flags])
            + len(self.payload).to_bytes(4, "big")
        )
        # join (not +) so zero-copy memoryview payloads — what the
        # engine decodes pages into — serialise without materialising.
        return b"".join(
            (header, self.payload, bytes(capacity - len(self.payload)))
        )

    @staticmethod
    def decode(raw) -> "Page":
        """Parse bytes (or a zero-copy memoryview) produced by :meth:`encode`.

        When ``raw`` is a memoryview the payload stays a view into the
        underlying buffer — no copy is made until the page is re-encoded
        or the payload crosses a ``bytes()`` boundary.
        """
        if len(raw) < HEADER_SIZE:
            raise StorageError(f"page buffer of {len(raw)} bytes is shorter than header")
        page_id = int.from_bytes(raw[0:8], "big")
        flags = raw[8]
        length = int.from_bytes(raw[9:13], "big")
        if HEADER_SIZE + length > len(raw):
            raise StorageError("page header declares payload longer than buffer")
        payload = raw[HEADER_SIZE : HEADER_SIZE + length]
        return Page(page_id, payload, deleted=bool(flags & FLAG_DELETED))

    @staticmethod
    def plaintext_size(capacity: int) -> int:
        """Plaintext bytes occupied by a page with the given payload capacity."""
        if capacity < 0:
            raise StorageError("page capacity must be non-negative")
        return HEADER_SIZE + capacity


# -- the same layout over a whole window ------------------------------------------


def decode_headers(plain: np.ndarray) -> Tuple[List[int], List[int], List[int]]:
    """Ids, flag bytes and payload lengths of every row of a plaintext matrix.

    One pass over a contiguous copy of the header columns; raises what
    :meth:`Page.decode` raises if *any* row is shorter than a header or
    declares a payload longer than the row.
    """
    count, width = plain.shape
    if width < HEADER_SIZE:
        raise StorageError(f"page buffer of {width} bytes is shorter than header")
    headers = np.ascontiguousarray(plain[:, :HEADER_SIZE]).view(_HEADER)
    headers = headers.reshape(count)
    lengths = headers["length"]
    if count and HEADER_SIZE + int(lengths.max()) > width:
        raise StorageError("page header declares payload longer than buffer")
    return headers["id"].tolist(), headers["flags"].tolist(), lengths.tolist()


def encode_pages(pages: Sequence[Page], capacity: int) -> np.ndarray:
    """``Page.encode(capacity)`` of every page, as the rows of one matrix."""
    lengths = [len(page.payload) for page in pages]
    if capacity < 0:
        raise StorageError("page capacity must be non-negative")
    if max(lengths, default=0) > capacity:
        raise StorageError(
            f"payload of {max(lengths)} bytes exceeds page capacity {capacity}"
        )
    headers = np.empty(len(pages), _HEADER)
    headers["id"] = [page.page_id for page in pages]
    headers["flags"] = [FLAG_DELETED if page.deleted else 0 for page in pages]
    headers["length"] = lengths
    plain = np.empty((len(pages), HEADER_SIZE + capacity), np.uint8)
    plain[:, :HEADER_SIZE] = headers.view(np.uint8).reshape(-1, HEADER_SIZE)
    plain[:, HEADER_SIZE:] = np.frombuffer(
        b"".join([bytes(page.payload).ljust(capacity, b"\x00") for page in pages]),
        np.uint8,
    ).reshape(len(pages), capacity)
    return plain


class PageWindow(SequenceABC):
    """The pages of one request window, over the plaintext matrix they came in.

    Slot ``i`` is row ``i``.  Indexing hands out a zero-copy :class:`Page`
    whose payload is a view into the row — only for slots that are asked
    for, so a window of B operations builds O(B) pages however large the
    block.  Assigning a slot remembers it as replaced, and
    :meth:`plaintext` writes exactly those slots back into the matrix:
    every other row still holds the bytes ``encode()`` once wrote (zero
    pad included), so re-sealing the matrix equals re-encoding every page.

    Ownership: the window owns its matrix and rewrites it in place, so a
    page view taken from a slot is only good until :meth:`plaintext`
    replaces that slot — whoever keeps a page longer copies its payload.
    """

    def __init__(self, plain: np.ndarray):
        self._ids, self._flags, self._lengths = decode_headers(plain)
        # The first fetch's rows, then one matrix per later fetch.
        self._chunks: List[np.ndarray] = [plain]
        self._starts: List[int] = [0]
        self._pages: Dict[int, Page] = {}
        self._replaced: Set[int] = set()

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> List[int]:
        """The page id in every slot's header as fetched (read-only)."""
        return self._ids

    def __getitem__(self, slot: int) -> Page:
        page = self._pages.get(slot)
        if page is None:
            if not 0 <= slot < len(self._ids):
                raise IndexError(f"window slot {slot} out of range")
            chunk = bisect_right(self._starts, slot) - 1
            row = memoryview(self._chunks[chunk][slot - self._starts[chunk]])
            page = self._pages[slot] = Page(
                self._ids[slot],
                row[HEADER_SIZE : HEADER_SIZE + self._lengths[slot]],
                deleted=bool(self._flags[slot] & FLAG_DELETED),
            )
        return page

    def __setitem__(self, slot: int, page: Page) -> None:
        if not 0 <= slot < len(self._ids):
            raise IndexError(f"window slot {slot} out of range")
        self._pages[slot] = page
        self._replaced.add(slot)

    def extend(self, other: "PageWindow") -> None:
        """Append another fetch's slots (the later operations' extra frames)."""
        offset = len(self)
        for slot, page in other._pages.items():
            self._pages[offset + slot] = page
        self._replaced.update(offset + slot for slot in other._replaced)
        self._starts += [offset + start for start in other._starts]
        self._chunks += other._chunks
        self._ids += other._ids
        self._flags += other._flags
        self._lengths += other._lengths

    def plaintext(self, capacity: int) -> np.ndarray:
        """The window as one plaintext matrix, replaced slots re-encoded.

        Every displaced page is encoded *before* any row is overwritten:
        the pages are views into these very rows, and a block page moved
        into a later slot would otherwise be read back after its own row
        was rewritten.
        """
        encoded = [
            (slot, self._pages[slot].encode(capacity))
            for slot in self._replaced
        ]
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
            self._starts = [0]
        plain = self._chunks[0]
        for slot, raw in encoded:
            plain[slot] = np.frombuffer(raw, np.uint8)
        return plain
