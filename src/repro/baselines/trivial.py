"""Trivial PIR: download the whole database for every query.

The information-theoretic gold standard (and the paper's c = 1 degenerate
case, §4.2): the server streams all n encrypted pages through the secure
endpoint per request, so the access pattern carries zero information.  Cost
is O(n) per query — the yardstick every other scheme is trying to beat.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .base import CryptoEndpoint, RetrievalScheme
from ..errors import ConfigurationError, PageNotFoundError
from ..hardware.specs import HardwareSpec
from ..sim.clock import VirtualClock
from ..storage.page import Page

__all__ = ["TrivialPir"]

_SCAN_BATCH = 1024  # frames per contiguous read while streaming the database


class TrivialPir(RetrievalScheme):
    """Full-scan private retrieval (perfect privacy, maximal cost)."""

    name = "trivial"

    def __init__(self, endpoint: CryptoEndpoint, disk, num_pages: int):
        self._endpoint = endpoint
        self._disk = disk
        self._num_pages = num_pages

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        page_capacity: int = 64,
        spec: Optional[HardwareSpec] = None,
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
        master_key: bytes = b"trivial-pir-key",
    ) -> "TrivialPir":
        if not records:
            raise ConfigurationError("records must be non-empty")
        endpoint = CryptoEndpoint(page_capacity, master_key, spec, seed, cipher_backend)
        disk = endpoint.new_disk(len(records))
        for page_id, payload in enumerate(records):
            disk.write(page_id, endpoint.seal(Page(page_id, bytes(payload))))
        return cls(endpoint, disk, len(records))

    # -- RetrievalScheme ------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self._endpoint.clock

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def trace(self):
        return self._disk.trace

    def retrieve(self, page_id: int) -> bytes:
        if not 0 <= page_id < self._num_pages:
            raise PageNotFoundError(f"page id {page_id} out of range")
        result: bytes = b""
        for start in range(0, self._num_pages, _SCAN_BATCH):
            count = min(_SCAN_BATCH, self._num_pages - start)
            frames = self._disk.read_range(start, count)
            self._endpoint.charge_ingest(count)
            for offset, frame in enumerate(frames):
                page = self._endpoint.unseal(frame)
                if page.page_id != start + offset:
                    raise PageNotFoundError("database layout corrupted")
                if page.page_id == page_id:
                    result = page.payload
        return result
