"""Hierarchical (pyramid) ORAM — the [14]/[25]/[26] family, simplified.

The paper's §2 singles out the Oblivious-RAM line as the state of the art:
pages are arranged in a pyramid of levels of geometrically growing size;
every access touches one slot per level, and level ``i`` is rebuilt (merged
into level ``i+1`` under a fresh secret permutation) every ``2^i`` accesses.
That rebuild schedule is precisely what produces the amortized-polylog cost
and the latency spikes ("hundreds of milliseconds to thousands of seconds",
§2, citing [26]) that motivate the paper.

Simplifications relative to a production ORAM, documented for honesty:

* Levels are permuted arrays addressed through secret per-level
  permutations held inside the trusted boundary, instead of bucket hashing
  with cuckoo/dummy machinery.  The *observable* access pattern is the
  same shape: one slot per level per access, data-independent to the
  server, plus periodic full-level rewrites.
* Rebuilds stream the affected levels through the trusted boundary and
  write the merged level back re-encrypted; obliviousness of that pass is
  argued as in :mod:`repro.shuffle.oblivious` rather than re-simulated
  with a sorting network on every epoch (identical to how the paper's
  own baselines are modelled).

Level layout on the untrusted disk: level ``i`` (1-based) occupies
``2^i`` consecutive frames; a level holds at most ``2^(i-1)`` real pages,
the rest are encrypted dummies, so a level is always exactly half-full at
rebuild time and every slot is written.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from .base import CryptoEndpoint, RetrievalScheme
from ..errors import ConfigurationError, PageNotFoundError
from ..hardware.specs import HardwareSpec
from ..shuffle.permutation import Permutation
from ..sim.clock import VirtualClock
from ..storage.page import Page

__all__ = ["PyramidOram"]


class _Level:
    """One pyramid level: capacity, base disk offset, secret permutation."""

    def __init__(self, index: int, base: int):
        self.index = index
        self.base = base
        self.size = 2**index  # slots on disk
        self.permutation: Optional[Permutation] = None
        # id -> logical slot (pre-permutation); dummies occupy the rest.
        self.contents: Dict[int, int] = {}
        self.next_dummy = 0  # next unread dummy slot for masked accesses

    @property
    def capacity(self) -> int:
        return self.size // 2

    def slot_of(self, page_id: int) -> int:
        assert self.permutation is not None
        return self.base + self.permutation.apply(self.contents[page_id])

    def dummy_slot(self) -> int:
        """A fresh never-read dummy slot for this epoch (masked access)."""
        assert self.permutation is not None
        slot = self.capacity + self.next_dummy
        self.next_dummy += 1
        if slot >= self.size:
            raise ConfigurationError(
                "pyramid level ran out of dummy slots before its rebuild"
            )
        return self.base + self.permutation.apply(slot)


class PyramidOram(RetrievalScheme):
    """Amortized-polylog oblivious retrieval with pyramid rebuilds."""

    name = "pyramid-oram"

    def __init__(self, endpoint: CryptoEndpoint, disk, num_pages: int,
                 levels: List[_Level]):
        self._endpoint = endpoint
        self._disk = disk
        self._num_pages = num_pages
        self._levels = levels
        self._access_count = 0
        self.rebuild_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        page_capacity: int = 64,
        spec: Optional[HardwareSpec] = None,
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
        master_key: bytes = b"pyramid-oram-key",
    ) -> "PyramidOram":
        if not records:
            raise ConfigurationError("records must be non-empty")
        n = len(records)
        # Deepest level must hold all n pages: capacity 2^(L-1) >= n.
        depth = max(2, math.ceil(math.log2(n)) + 1)
        endpoint = CryptoEndpoint(page_capacity, master_key, spec, seed,
                                  cipher_backend)
        levels: List[_Level] = []
        base = 0
        for index in range(1, depth + 1):
            level = _Level(index, base)
            levels.append(level)
            base += level.size
        disk = endpoint.new_disk(base)
        scheme = cls(endpoint, disk, n, levels)
        # Install everything in the deepest level; all others start empty.
        pages = {i: Page(i, bytes(payload)) for i, payload in enumerate(records)}
        for level in levels[:-1]:
            scheme._write_level(level, {})
        scheme._write_level(levels[-1], pages)
        return scheme

    def _write_level(self, level: _Level, pages: Dict[int, Page]) -> None:
        """(Re)build one level: fresh permutation, half real / half dummy."""
        if len(pages) > level.capacity:
            raise ConfigurationError(
                f"level {level.index} overflow: {len(pages)} > {level.capacity}"
            )
        level.permutation = Permutation.random(level.size, self._endpoint.rng)
        level.contents = {}
        slots: List[Page] = [Page.dummy() for _ in range(level.size)]
        for logical, (page_id, page) in enumerate(sorted(pages.items())):
            level.contents[page_id] = logical
            slots[level.permutation.apply(logical)] = page
        # Dummy payload slots at logical >= capacity are what dummy_slot()
        # walks through; they are indistinguishable ciphertexts.
        level.next_dummy = 0
        self._endpoint.charge_egress(level.size)
        self._disk.write_range(
            level.base, [self._endpoint.seal(p) for p in slots]
        )

    # ------------------------------------------------------------------
    # RetrievalScheme
    # ------------------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self._endpoint.clock

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def trace(self):
        return self._disk.trace

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def retrieve(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._num_pages:
            raise PageNotFoundError(f"page id {page_id} out of range")
        found: Optional[Page] = None
        # One read per level, top (smallest) to bottom, always.
        for level in self._levels:
            if level.permutation is None:
                continue
            if found is None and page_id in level.contents:
                slot = level.slot_of(page_id)
            else:
                slot = level.dummy_slot()
            frame = self._disk.read(slot)
            self._endpoint.charge_ingest(1)
            page = self._endpoint.unseal(frame)
            if not page.is_dummy and page.page_id == page_id and found is None:
                found = page
        if found is None:
            raise PageNotFoundError(f"page {page_id} missing from every level")
        self._access_count += 1
        self._insert_top(found)
        return found.payload

    # ------------------------------------------------------------------
    # Rebuild machinery
    # ------------------------------------------------------------------

    def _insert_top(self, page: Page) -> None:
        """Insert the accessed page, rebuilding per the classic schedule.

        At access count t with 2-adic valuation v (t = odd * 2^v), levels
        1..v are exactly due and level v+1 is empty, so everything above —
        plus the freshly accessed page — merges into level v+1.  This keeps
        every level's rebuild cadence at its dummy-slot budget regardless
        of duplicate hits shrinking the merged set.
        """
        t = self._access_count
        valuation = 0
        while t % 2 == 0 and valuation < len(self._levels) - 1:
            t //= 2
            valuation += 1
        target = valuation
        while True:
            merged: Dict[int, Page] = {}
            for level in self._levels[: target + 1]:
                merged.update(self._read_level_contents(level))
            merged[page.page_id] = page
            if len(merged) <= self._levels[target].capacity:
                break
            target += 1
            if target >= len(self._levels):
                raise ConfigurationError("pyramid bottom level overflow")
        self._write_level(self._levels[target], merged)
        for shallower in self._levels[:target]:
            self._write_level(shallower, {})
        if target > 0:
            self.rebuild_count += 1

    def _read_level_contents(self, level: _Level) -> Dict[int, Page]:
        """Stream a level through the boundary during a rebuild."""
        if level.permutation is None or not level.contents:
            return {}
        frames = self._disk.read_range(level.base, level.size)
        self._endpoint.charge_ingest(level.size)
        contents: Dict[int, Page] = {}
        for frame in frames:
            page = self._endpoint.unseal(frame)
            if not page.is_dummy:
                contents[page.page_id] = page
        return contents
