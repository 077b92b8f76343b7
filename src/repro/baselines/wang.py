"""Wang et al. (ESORICS 2006): cache-until-full, then reshuffle everything.

The scheme the paper cites as [24]: the database is encrypted and secretly
permuted; the secure hardware's internal storage holds up to ``m`` pages.
Each query moves one page into the secure storage — the target if it is not
already there, otherwise a random *untouched* page, so the server always
sees one never-before-read location per query.  When the storage fills
(every ``m`` queries), the hardware reshuffles the entire database under a
fresh permutation and empties the storage.

Privacy is perfect, but the cost is amortized O(n/m): most queries cost a
single page read, and every m-th query costs a full 2n-page reshuffle —
exactly the latency spike the c-approximate scheme is designed to remove.
The reshuffle here is executed for real (stream-read all pages, re-encrypt,
write back under the new permutation); obliviousness of that pass is argued
as in :mod:`repro.shuffle.oblivious` and not re-simulated per reshuffle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from .base import CryptoEndpoint, RetrievalScheme
from ..errors import ConfigurationError, PageNotFoundError
from ..hardware.specs import HardwareSpec
from ..shuffle.permutation import Permutation
from ..sim.clock import VirtualClock
from ..storage.page import Page

__all__ = ["WangPir"]

_RESHUFFLE_BATCH = 1024


class WangPir(RetrievalScheme):
    """Perfect-privacy secure-hardware PIR with amortized O(n/m) cost."""

    name = "wang2006"

    def __init__(
        self,
        endpoint: CryptoEndpoint,
        disk,
        num_pages: int,
        storage_capacity: int,
    ):
        if storage_capacity < 1 or storage_capacity >= num_pages:
            raise ConfigurationError("need 1 <= storage capacity < n")
        self._endpoint = endpoint
        self._disk = disk
        self._num_pages = num_pages
        self._capacity = storage_capacity
        self._storage: Dict[int, Page] = {}
        self._touched: Set[int] = set()
        self._permutation = Permutation.identity(num_pages)
        self.reshuffle_count = 0

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        storage_capacity: int,
        page_capacity: int = 64,
        spec: Optional[HardwareSpec] = None,
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
        master_key: bytes = b"wang-pir-key",
    ) -> "WangPir":
        if not records:
            raise ConfigurationError("records must be non-empty")
        endpoint = CryptoEndpoint(page_capacity, master_key, spec, seed, cipher_backend)
        disk = endpoint.new_disk(len(records))
        scheme = cls(endpoint, disk, len(records), storage_capacity)
        pages = [Page(i, bytes(payload)) for i, payload in enumerate(records)]
        scheme._install(pages, Permutation.random(len(records), endpoint.rng))
        return scheme

    def _install(self, pages: List[Page], permutation: Permutation) -> None:
        """Write all pages to disk under ``permutation`` (id -> location)."""
        self._permutation = permutation
        by_location: List[Page] = [pages[0]] * self._num_pages
        for page in pages:
            by_location[permutation.apply(page.page_id)] = page
        for start in range(0, self._num_pages, _RESHUFFLE_BATCH):
            stop = min(start + _RESHUFFLE_BATCH, self._num_pages)
            self._endpoint.charge_egress(stop - start)
            self._disk.write_range(
                start, [self._endpoint.seal(p) for p in by_location[start:stop]]
            )

    # -- RetrievalScheme ---------------------------------------------------------

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
    def storage_fill(self) -> int:
        return len(self._storage)

    def retrieve(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._num_pages:
            raise PageNotFoundError(f"page id {page_id} out of range")
        if page_id in self._storage:
            fetch_location = self._random_untouched_location()
        else:
            fetch_location = self._permutation.apply(page_id)
        frame = self._disk.read(fetch_location)
        self._endpoint.charge_ingest(1)
        fetched = self._endpoint.unseal(frame)
        self._touched.add(fetch_location)
        self._storage[fetched.page_id] = fetched
        result = self._storage[page_id].payload
        if len(self._storage) >= self._capacity:
            self._reshuffle()
        return result

    def update(self, page_id: int, payload: bytes) -> None:
        """Replace a page's contents (extension of [24]'s read-only scheme).

        The page is first retrieved as usual — so the access pattern of an
        update is identical to a query's — then its secure-storage copy is
        replaced; the next reshuffle persists the new version to disk.
        """
        self.retrieve(page_id)
        if page_id in self._storage:
            self._storage[page_id] = Page(page_id, bytes(payload))
        else:
            # retrieve() triggered a reshuffle that emptied the storage;
            # fetch again (starts the next epoch) and replace.
            self.retrieve(page_id)
            self._storage[page_id] = Page(page_id, bytes(payload))

    # -- internals -----------------------------------------------------------------

    def _random_untouched_location(self) -> int:
        # Storage fill < capacity < n guarantees an untouched location exists.
        while True:
            location = self._endpoint.rng.randrange(self._num_pages)
            if location not in self._touched:
                return location

    def _reshuffle(self) -> None:
        """Stream the database in, merge the storage, write back re-permuted."""
        pages: List[Optional[Page]] = [None] * self._num_pages
        for start in range(0, self._num_pages, _RESHUFFLE_BATCH):
            count = min(_RESHUFFLE_BATCH, self._num_pages - start)
            frames = self._disk.read_range(start, count)
            self._endpoint.charge_ingest(count)
            for frame in frames:
                page = self._endpoint.unseal(frame)
                pages[page.page_id] = page
        # Secure-storage copies are authoritative (they may carry updates in
        # extensions of the scheme); merge them over the disk copies.
        for page_id, page in self._storage.items():
            pages[page_id] = page
        missing = [i for i, page in enumerate(pages) if page is None]
        if missing:
            raise PageNotFoundError(f"pages lost during reshuffle: {missing[:5]}")
        self._storage.clear()
        self._touched.clear()
        self.reshuffle_count += 1
        self._install(
            [page for page in pages if page is not None],
            Permutation.random(self._num_pages, self._endpoint.rng),
        )
