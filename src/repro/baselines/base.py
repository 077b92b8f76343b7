"""Shared infrastructure for the baseline retrieval schemes.

The paper positions its scheme against three families (§2): trivial PIR
(read everything, perfect privacy), Wang et al.'s cache-then-reshuffle
secure-hardware PIR (amortized O(n/m)), and the ORAM line (square-root /
hierarchical, amortized polylog with large reshuffle spikes).  Each baseline
here is a real executable implementation over the same substrates
(:class:`DiskStore`, :class:`CipherSuite`, virtual clock), so latency
*profiles* — not just averages — can be compared like-for-like with the
c-approximate scheme.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from ..analysis.stats import LatencySeries
from ..crypto.rng import SecureRandom
from ..crypto.suite import CipherSuite
from ..errors import ConfigurationError
from ..hardware.specs import HardwareSpec
from ..sim.clock import VirtualClock
from ..storage.disk import DiskStore
from ..storage.page import Page
from ..storage.trace import AccessTrace

__all__ = ["CryptoEndpoint", "RetrievalScheme", "measure_latencies"]


class CryptoEndpoint:
    """A minimal trusted endpoint: keys, rng, clock, timing charges.

    The secure-hardware schemes (Wang, sqrt-ORAM) and the trivial download
    scheme all need exactly this much trusted machinery; the full
    :class:`~repro.hardware.coprocessor.SecureCoprocessor` adds the paper's
    cache/page-map which the baselines do not share.
    """

    def __init__(
        self,
        page_capacity: int,
        master_key: bytes,
        spec: Optional[HardwareSpec] = None,
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
    ):
        self.spec = spec if spec is not None else HardwareSpec.instantaneous()
        self.clock = VirtualClock()
        self.rng = SecureRandom(seed)
        self.suite = CipherSuite(master_key, backend=cipher_backend, rng=self.rng)
        self.page_capacity = page_capacity

    @property
    def frame_size(self) -> int:
        return self.suite.frame_size(Page.plaintext_size(self.page_capacity))

    def seal(self, page: Page) -> bytes:
        return self.suite.encrypt_page(page.encode(self.page_capacity))

    def unseal(self, frame: bytes) -> Page:
        return Page.decode(self.suite.decrypt_page(frame))

    def charge_ingest(self, num_frames: int) -> None:
        self.clock.advance(self.spec.ingest_time(num_frames * self.frame_size))

    def charge_egress(self, num_frames: int) -> None:
        self.clock.advance(self.spec.egress_time(num_frames * self.frame_size))

    def new_disk(self, num_locations: int, trace_enabled: bool = True) -> DiskStore:
        return DiskStore(
            num_locations=num_locations,
            frame_size=self.frame_size,
            timing=self.spec.disk,
            clock=self.clock,
            trace=AccessTrace(enabled=trace_enabled),
        )


class RetrievalScheme(abc.ABC):
    """Common interface every private-retrieval scheme implements."""

    #: Human-readable scheme name for benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def retrieve(self, page_id: int) -> bytes:
        """Privately fetch the payload of ``page_id``."""

    @property
    @abc.abstractmethod
    def clock(self) -> VirtualClock:
        """The virtual clock all of this scheme's costs are charged to."""

    @property
    @abc.abstractmethod
    def num_pages(self) -> int:
        """Number of user-addressable pages."""


def measure_latencies(
    scheme: RetrievalScheme, request_ids: Sequence[int]
) -> LatencySeries:
    """Per-request simulated latency of a request stream against a scheme."""
    if not request_ids:
        raise ConfigurationError("request stream must be non-empty")
    series = LatencySeries()
    for page_id in request_ids:
        started = scheme.clock.now
        scheme.retrieve(page_id)
        series.record(scheme.clock.now - started)
    return series


def make_records(count: int, payload_size: int = 16) -> List[bytes]:
    """Deterministic distinguishable payloads for correctness checks."""
    if count <= 0 or payload_size < 8:
        raise ConfigurationError("need count > 0 and payload_size >= 8")
    return [
        page_id.to_bytes(8, "big") * (payload_size // 8)
        for page_id in range(count)
    ]
