"""Square-root ORAM (Goldreich & Ostrovsky, JACM 1996).

The representative of the ORAM family the paper compares against in §2
([14], [25], [26] are hierarchical refinements of the same idea).  Layout on
the untrusted disk:

* ``n`` permuted main locations,
* a *shelter* of ``s = ceil(sqrt(n))`` locations appended after them.

Each access scans the entire shelter (so the server cannot tell whether the
target was found there) and then reads exactly one main location: the real
target if it was not sheltered, else a random untouched dummy location.  The
accessed page is appended to the shelter.  After ``s`` accesses the shelter
is full and the whole structure is reshuffled under a fresh permutation.

Per-access cost is O(sqrt(n)); every sqrt(n)-th access additionally pays the
O(n) reshuffle — amortized O(sqrt(n)) with the characteristic latency spikes
that motivate the paper (cf. the response-time variability reported for
[26]).  As with :class:`~repro.baselines.wang.WangPir`, the reshuffle is
executed for real but its obliviousness is argued, not re-simulated.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set

from .base import CryptoEndpoint, RetrievalScheme
from ..errors import ConfigurationError, PageNotFoundError
from ..hardware.specs import HardwareSpec
from ..shuffle.permutation import Permutation
from ..sim.clock import VirtualClock
from ..storage.page import Page

__all__ = ["SquareRootOram"]

_BATCH = 1024


class SquareRootOram(RetrievalScheme):
    """O(sqrt(n)) amortized oblivious retrieval with periodic reshuffles."""

    name = "sqrt-oram"

    def __init__(self, endpoint: CryptoEndpoint, disk, num_pages: int, shelter_size: int):
        self._endpoint = endpoint
        self._disk = disk
        self._num_pages = num_pages
        self._shelter_size = shelter_size
        self._permutation = Permutation.identity(num_pages)
        self._sheltered: Dict[int, int] = {}  # page id -> shelter slot
        self._touched: Set[int] = set()
        self._accesses_since_shuffle = 0
        self.reshuffle_count = 0

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        page_capacity: int = 64,
        shelter_size: Optional[int] = None,
        spec: Optional[HardwareSpec] = None,
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
        master_key: bytes = b"sqrt-oram-key",
    ) -> "SquareRootOram":
        if not records:
            raise ConfigurationError("records must be non-empty")
        n = len(records)
        shelter = shelter_size if shelter_size is not None else max(1, math.isqrt(n))
        if shelter < 1 or shelter >= n:
            raise ConfigurationError("need 1 <= shelter size < n")
        endpoint = CryptoEndpoint(page_capacity, master_key, spec, seed, cipher_backend)
        disk = endpoint.new_disk(n + shelter)
        scheme = cls(endpoint, disk, n, shelter)
        pages = [Page(i, bytes(payload)) for i, payload in enumerate(records)]
        scheme._install(pages, Permutation.random(n, endpoint.rng))
        return scheme

    def _install(self, pages: List[Page], permutation: Permutation) -> None:
        self._permutation = permutation
        by_location: List[Page] = [pages[0]] * self._num_pages
        for page in pages:
            by_location[permutation.apply(page.page_id)] = page
        for start in range(0, self._num_pages, _BATCH):
            stop = min(start + _BATCH, self._num_pages)
            self._endpoint.charge_egress(stop - start)
            self._disk.write_range(
                start, [self._endpoint.seal(p) for p in by_location[start:stop]]
            )
        # Reset the shelter to encrypted dummies.
        self._endpoint.charge_egress(self._shelter_size)
        self._disk.write_range(
            self._num_pages,
            [self._endpoint.seal(Page.dummy()) for _ in range(self._shelter_size)],
        )
        self._sheltered.clear()
        self._touched.clear()
        self._accesses_since_shuffle = 0

    # -- RetrievalScheme ----------------------------------------------------------

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
    def shelter_fill(self) -> int:
        return self._accesses_since_shuffle

    def retrieve(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._num_pages:
            raise PageNotFoundError(f"page id {page_id} out of range")
        # 1. Scan the whole shelter, always.
        shelter_frames = self._disk.read_range(self._num_pages, self._shelter_size)
        self._endpoint.charge_ingest(self._shelter_size)
        shelter_pages = [self._endpoint.unseal(f) for f in shelter_frames]
        found: Optional[Page] = None
        for page in shelter_pages:
            if not page.is_dummy and page.page_id == page_id:
                found = page
        # 2. One main-array read: real target or an untouched dummy.
        if found is None:
            location = self._permutation.apply(page_id)
        else:
            location = self._random_untouched_location()
        self._touched.add(location)
        frame = self._disk.read(location)
        self._endpoint.charge_ingest(1)
        fetched = self._endpoint.unseal(frame)
        if found is None:
            if fetched.page_id != page_id:
                raise PageNotFoundError("permuted layout corrupted")
            result = fetched
        else:
            result = found
        # 3. Append the target to the shelter (re-encrypted fresh).
        slot = self._num_pages + self._accesses_since_shuffle
        self._endpoint.charge_egress(1)
        self._disk.write(slot, self._endpoint.seal(result))
        self._sheltered[result.page_id] = slot
        self._accesses_since_shuffle += 1
        # 4. Epoch end: reshuffle everything.
        if self._accesses_since_shuffle >= self._shelter_size:
            self._reshuffle()
        return result.payload

    # -- internals -------------------------------------------------------------------

    def _random_untouched_location(self) -> int:
        while True:
            location = self._endpoint.rng.randrange(self._num_pages)
            if location not in self._touched:
                return location

    def _reshuffle(self) -> None:
        pages: List[Optional[Page]] = [None] * self._num_pages
        for start in range(0, self._num_pages, _BATCH):
            count = min(_BATCH, self._num_pages - start)
            frames = self._disk.read_range(start, count)
            self._endpoint.charge_ingest(count)
            for frame in frames:
                page = self._endpoint.unseal(frame)
                pages[page.page_id] = page
        # Shelter copies are fresher than main-array copies.
        shelter_frames = self._disk.read_range(self._num_pages, self._shelter_size)
        self._endpoint.charge_ingest(self._shelter_size)
        for frame in shelter_frames:
            page = self._endpoint.unseal(frame)
            if not page.is_dummy:
                pages[page.page_id] = page
        missing = [i for i, page in enumerate(pages) if page is None]
        if missing:
            raise PageNotFoundError(f"pages lost during reshuffle: {missing[:5]}")
        self.reshuffle_count += 1
        self._install(
            [page for page in pages if page is not None],
            Permutation.random(self._num_pages, self._endpoint.rng),
        )
