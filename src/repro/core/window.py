"""One request window's pending view of the trusted state (DESIGN.md §14).

:meth:`RetrievalEngine._run_window
<repro.core.engine.RetrievalEngine._run_window>` plans all of a window's
ops against a :class:`WindowOverlay` before the later ops' extra frames are
read, then resolves the plan into pages once they are.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .journal import MAP_CACHED
from ..errors import CapacityError, PageNotFoundError
from ..storage.page import Page, PageWindow

__all__ = ["WindowOverlay"]

_MAX_REJECTION_ROUNDS = 10_000_000


class WindowOverlay:
    """The page map, the cache and the window's frames as a window sees them.

    Page-map moves and cache puts staged by the window's earlier ops sit
    over the real map (:class:`~repro.hardware.trusted.TrustedState`) and
    cache (they land at commit, from the intent).  The frames are
    containers: slot ``j`` is block slot ``j`` below k, and the extra frame
    of the window's op ``j - k`` from there on.  A container or cache slot
    holds a *token* — an int ``j`` for the page fetched into slot ``j``, or
    a :class:`Page` (a cached page, or one an edit made) — and the plan
    moves tokens reading only their ids: a block slot's from its header, an
    extra's from the page planned for its location.  No decision waits for
    a payload; :meth:`page_of` resolves a token once every frame is in.
    """

    def __init__(self, state, cache, block_start: int, k: int):
        self.state = state
        self.cache = cache
        self.block_start = block_start
        self.k = k
        self.window: Optional[PageWindow] = None  # the frames fetched so far
        self.slots: Dict[int, object] = {}  # the containers moved so far
        self.extra_slots: Dict[int, int] = {}  # location -> slot, op order
        self.cache_puts: List[Tuple[int, object]] = []
        self.map_ops: List[Tuple[int, int, int]] = []
        self._extra_ids: List[int] = []
        self._cached: Dict[int, object] = {}
        self._positions: Dict[int, Tuple[int, int]] = {}

    def lookup(self, page_id: int) -> Tuple[bool, int]:
        """``(in_cache, position)`` of a page, staged moves included."""
        entry = self._positions.get(page_id)
        if entry is not None:
            return entry[0] == MAP_CACHED, entry[1]
        location = self.state.lookup(page_id)
        return location.in_cache, location.position

    def slot_of(self, position: int) -> Optional[int]:
        """The container of disk ``position``; None outside the window."""
        offset = position - self.block_start
        if 0 <= offset < self.k:
            return offset
        return self.extra_slots.get(position)

    def at(self, slot: int):
        """The token container ``slot`` holds now."""
        return self.slots.get(slot, slot)

    def cache_entry(self, slot: int):
        """The token cache slot ``slot`` holds now."""
        token = self._cached.get(slot)
        return self.cache.get(slot) if token is None else token

    def page_id(self, token) -> int:
        if isinstance(token, Page):
            return token.page_id
        if token < self.k:
            return self.window.ids[token]
        return self._extra_ids[token - self.k]

    def page_of(self, token) -> Page:
        """The page behind ``token``; ask before replacing any container."""
        return token if isinstance(token, Page) else self.window[token]

    def random_page(self, rng, total_pages: int) -> int:
        """Figure 3 lines 3-5: a uniform page id neither cached nor inside
        the window's containers (the disk frame at an already-planned extra
        location is stale: the live page sits in the window)."""
        for _ in range(_MAX_REJECTION_ROUNDS):
            candidate = rng.randrange(total_pages)
            in_cache, position = self.lookup(candidate)
            if not in_cache and self.slot_of(position) is None:
                return candidate
        raise CapacityError(
            "rejection sampling failed to find an eligible random page; "
            "the configuration violates num_locations >= block_size + 2"
        )

    def add_extra(self, location: int, page_id: int) -> int:
        """Plan the next op's extra frame; returns its container."""
        slot = self.extra_slots[location] = self.k + len(self._extra_ids)
        self._extra_ids.append(page_id)
        return slot

    def check_fetched(self) -> None:
        """Every extra frame fetched so far holds the page planned for it."""
        fetched = self.window.ids[self.k:]
        for location, planned, found in zip(self.extra_slots,
                                            self._extra_ids, fetched):
            if found != planned:
                raise PageNotFoundError(
                    f"page {planned} not found at mapped position "
                    f"{location}; page map and disk are inconsistent"
                )

    def put(self, slot: int, token) -> None:
        """Stage a cache put."""
        self.cache_puts.append((slot, token))
        self._cached[slot] = token

    def relocate(self, token, where: int, position: int) -> None:
        """Stage a page-map move of the page behind ``token``."""
        page_id = self.page_id(token)
        self.map_ops.append((page_id, where, position))
        self._positions[page_id] = (where, position)
