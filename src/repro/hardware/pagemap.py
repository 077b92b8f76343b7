"""The look-up table mapping page ids to their current location (``pageMap``).

Each entry is the tuple ``(inCache, position)`` from Figure 2: when
``inCache`` is set, ``position`` is a cache slot; otherwise it is a disk
location under the current permutation.  Deleted pages additionally carry a
deleted flag — the paper encodes deletion as an all-ones ``position``
sentinel; we keep an explicit bit for clarity but account storage identically
(Eq. 7 charges ``log2(n) + 1`` bits per entry; the deleted state reuses the
reserved position value so it is storage-free).

The map also maintains the free pool (dummy + deleted page ids) that §4.3's
insertion path consumes, and a count of cached pages so invariants are cheap
to assert.
"""

from __future__ import annotations

import math
from typing import List, Set, Tuple

import numpy as np

from ..errors import ConfigurationError, PageNotFoundError

__all__ = ["PageMap", "PageLocation"]


class PageLocation:
    """Resolved location of a logical page."""

    __slots__ = ("in_cache", "position", "deleted")

    def __init__(self, in_cache: bool, position: int, deleted: bool):
        self.in_cache = in_cache
        self.position = position
        self.deleted = deleted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "cache" if self.in_cache else "disk"
        suffix = " (deleted)" if self.deleted else ""
        return f"PageLocation({where}:{self.position}{suffix})"


class PageMap:
    """Position map for ``num_pages`` logical ids (disk pages + cached pages)."""

    def __init__(self, num_pages: int):
        if num_pages <= 0:
            raise ConfigurationError("page map needs at least one page")
        self.num_pages = num_pages
        self._in_cache: List[bool] = [False] * num_pages
        self._position: List[int] = [-1] * num_pages
        self._deleted: List[bool] = [False] * num_pages
        self._free: Set[int] = set()
        self._cached_count = 0

    # -- queries -----------------------------------------------------------------

    def _check_id(self, page_id: int) -> int:
        if not 0 <= page_id < self.num_pages:
            raise PageNotFoundError(f"page id {page_id} out of range [0, {self.num_pages})")
        return page_id

    def lookup(self, page_id: int) -> PageLocation:
        self._check_id(page_id)
        position = self._position[page_id]
        if position < 0:
            raise PageNotFoundError(f"page id {page_id} has no recorded position")
        return PageLocation(self._in_cache[page_id], position, self._deleted[page_id])

    def is_cached(self, page_id: int) -> bool:
        return self._in_cache[self._check_id(page_id)]

    def is_deleted(self, page_id: int) -> bool:
        return self._deleted[self._check_id(page_id)]

    def disk_location(self, page_id: int) -> int:
        """Disk location of a non-cached page (error if it is cached)."""
        location = self.lookup(page_id)
        if location.in_cache:
            raise PageNotFoundError(f"page {page_id} is cached, not on disk")
        return location.position

    @property
    def cached_count(self) -> int:
        return self._cached_count

    # -- updates ------------------------------------------------------------------

    def set_disk(self, page_id: int, location: int) -> None:
        """Record that ``page_id`` now lives at ``location`` on the disk."""
        self._check_id(page_id)
        if location < 0:
            raise ConfigurationError("disk location must be non-negative")
        if self._in_cache[page_id]:
            self._cached_count -= 1
        self._in_cache[page_id] = False
        self._position[page_id] = location

    def set_cached(self, page_id: int, slot: int) -> None:
        """Record that ``page_id`` now occupies cache slot ``slot``."""
        self._check_id(page_id)
        if slot < 0:
            raise ConfigurationError("cache slot must be non-negative")
        if not self._in_cache[page_id]:
            self._cached_count += 1
        self._in_cache[page_id] = True
        self._position[page_id] = slot

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry at once: ``(in_cache, position, deleted)``, one
        array of ``num_pages`` each.  Refuses, as :meth:`lookup` does, a
        page with no recorded position."""
        position = np.array(self._position, np.int64)
        if position.min() < 0:
            raise PageNotFoundError(
                f"page id {int(position.argmin())} has no recorded position"
            )
        return (np.array(self._in_cache, bool), position,
                np.array(self._deleted, bool))

    def load_columns(self, in_cache, position, deleted) -> None:
        """Replace every entry at once from three per-id columns.

        The bulk form of ``set_disk`` / ``set_cached`` / ``mark_deleted``
        over the whole map, for setup and restore: three arrays (or
        sequences) of ``num_pages`` values.  The free pool and the cached
        count are derived from them, and a negative position is refused as
        those calls refuse one.
        """
        in_cache = np.asarray(in_cache, bool)
        position = np.asarray(position, np.int64)
        deleted = np.asarray(deleted, bool)
        if not (len(in_cache) == len(position) == len(deleted)
                == self.num_pages):
            raise ConfigurationError(
                f"page map columns must hold {self.num_pages} entries each"
            )
        if position.min() < 0:
            raise ConfigurationError("page positions must be non-negative")
        self._in_cache = in_cache.tolist()
        self._position = position.tolist()
        self._deleted = deleted.tolist()
        self._free = set(np.flatnonzero(deleted).tolist())
        self._cached_count = int(np.count_nonzero(in_cache))

    # -- lifecycle / free pool ------------------------------------------------------

    def mark_deleted(self, page_id: int) -> None:
        self._check_id(page_id)
        self._deleted[page_id] = True
        self._free.add(page_id)

    def mark_live(self, page_id: int) -> None:
        self._check_id(page_id)
        self._deleted[page_id] = False
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

    # -- storage accounting (Eq. 7, first term) ---------------------------------------

    def storage_bits(self) -> int:
        """Secure-memory bits consumed: ``n * (ceil(log2 n) + 1)``."""
        return self.num_pages * (max(1, math.ceil(math.log2(self.num_pages))) + 1)

    def storage_bytes(self) -> int:
        return (self.storage_bits() + 7) // 8
