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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageError

__all__ = ["Page", "DUMMY_ID", "HEADER_SIZE", "FLAG_DELETED"]

DUMMY_ID = 2**64 - 1
HEADER_SIZE = 8 + 1 + 4
FLAG_DELETED = 0x01


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
