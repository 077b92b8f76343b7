"""Frequency-analysis attack: why encryption alone is not enough (§1).

The paper's introduction dismisses encryption-only outsourcing because "if
the server has knowledge of the access patterns of the database records
(i.e., their relative popularities), it can extract some information about
a query through the records included in the result set."  This module makes
that argument executable:

* :class:`StaticEncryptedStore` — the strawman: pages encrypted once and
  parked at fixed (secretly permuted) locations; each query reads exactly
  the target's location.
* :class:`FrequencyAnalyst` — the server-side attack: count reads per
  location, rank locations by frequency, and match them against the known
  popularity ranking of the plaintext records.

Against the static store under a skewed workload the analyst recovers the
hot pages almost perfectly; against the c-approximate scheme the continuous
relocation flattens per-location frequencies toward uniform and the
correlation collapses.  ``bench_frequency`` runs both and prints the
comparison; the tests pin the qualitative gap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .stats import spearman_rank_correlation
from ..baselines.base import CryptoEndpoint
from ..core.database import PirDatabase
from ..errors import ConfigurationError, PageNotFoundError
from ..hardware.specs import HardwareSpec
from ..shuffle.permutation import Permutation
from ..storage.page import Page
from ..storage.trace import READ, AccessTrace

__all__ = ["StaticEncryptedStore", "FrequencyAnalyst", "run_frequency_experiment",
           "FrequencyExperimentResult"]


class StaticEncryptedStore:
    """Encryption-only outsourcing: secret permutation, fixed locations.

    This is the §1 "data encryption" strawman, not a PIR scheme: contents
    are hidden, but each logical page always resolves to the same physical
    location, so access frequencies transfer one-to-one.
    """

    name = "static-encrypted"

    def __init__(self, endpoint: CryptoEndpoint, disk, permutation: Permutation):
        self._endpoint = endpoint
        self._disk = disk
        self._permutation = permutation

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        page_capacity: int = 64,
        spec: Optional[HardwareSpec] = None,
        seed: Optional[int] = None,
        cipher_backend: str = "shake",
        master_key: bytes = b"static-store-key",
    ) -> "StaticEncryptedStore":
        if not records:
            raise ConfigurationError("records must be non-empty")
        endpoint = CryptoEndpoint(page_capacity, master_key, spec, seed,
                                  cipher_backend)
        disk = endpoint.new_disk(len(records))
        permutation = Permutation.random(len(records), endpoint.rng)
        for page_id, payload in enumerate(records):
            disk.write(
                permutation.apply(page_id),
                endpoint.seal(Page(page_id, bytes(payload))),
            )
        return cls(endpoint, disk, permutation)

    @property
    def num_pages(self) -> int:
        return self._disk.num_locations

    @property
    def trace(self) -> AccessTrace:
        return self._disk.trace

    def retrieve(self, page_id: int) -> bytes:
        if not 0 <= page_id < self.num_pages:
            raise PageNotFoundError(f"page id {page_id} out of range")
        frame = self._disk.read(self._permutation.apply(page_id))
        self._endpoint.charge_ingest(1)
        return self._endpoint.unseal(frame).payload

    def location_of(self, page_id: int) -> int:
        """Ground truth for scoring the attack (not available to the server)."""
        return self._permutation.apply(page_id)


class FrequencyAnalyst:
    """The honest-but-curious server counting reads per disk location."""

    def __init__(self, num_locations: int):
        if num_locations <= 0:
            raise ConfigurationError("num_locations must be positive")
        self.num_locations = num_locations

    def read_counts(
        self, trace: AccessTrace, setup_cutoff: Optional[int] = None
    ) -> Counter:
        """Per-location read counts over a trace.

        Pass ``setup_cutoff`` to ignore accesses attributed to requests
        before that index (e.g. to drop a warm-up phase); by default every
        read in the trace counts, which is what a server that watched from
        the start would have.
        """
        counts: Counter = Counter()
        for event in trace:
            if event.op != READ:
                continue
            if setup_cutoff is not None and event.request_index < setup_cutoff:
                continue
            for location in event.locations:
                counts[location] += 1
        return counts

    def hottest_locations(self, trace: AccessTrace, top: int = 1) -> List[int]:
        counts = self.read_counts(trace)
        ranked = sorted(range(self.num_locations),
                        key=lambda loc: (-counts[loc], loc))
        return ranked[:top]

    def frequency_vector(self, trace: AccessTrace) -> List[float]:
        counts = self.read_counts(trace)
        total = sum(counts.values()) or 1
        return [counts[loc] / total for loc in range(self.num_locations)]

    def uniformity_gap(self, trace: AccessTrace) -> float:
        """Total-variation distance of observed read frequencies from uniform.

        Near 0 means the trace carries no popularity signal at all.
        """
        frequencies = self.frequency_vector(trace)
        uniform = 1.0 / self.num_locations
        return 0.5 * sum(abs(f - uniform) for f in frequencies)


@dataclass(frozen=True)
class FrequencyExperimentResult:
    """Attack effectiveness against one scheme."""

    scheme: str
    popularity_correlation: float
    hot_page_identified: bool
    uniformity_gap: float


def run_frequency_experiment(
    workload: Sequence[int],
    static_store: StaticEncryptedStore,
    pir_database: PirDatabase,
    popularity: Optional[Dict[int, int]] = None,
) -> List[FrequencyExperimentResult]:
    """Run the same workload against both schemes and score the attack.

    ``popularity`` defaults to the workload's own empirical counts (the
    strongest background knowledge the §1 adversary could have).
    Correlation is computed between each *location's* read count and the
    popularity of the page that truly lives there (static ground truth;
    for the PIR scheme, the page that lived there at setup — which is the
    best stale knowledge an adversary could hold).
    """
    if not workload:
        raise ConfigurationError("workload must be non-empty")
    counts = popularity if popularity is not None else Counter(workload)

    # Remember the PIR database's initial layout before it churns.
    pm = pir_database.cop.state
    initial_layout: Dict[int, int] = {}
    for page_id in range(pir_database.num_pages):
        location = pm.lookup(page_id)
        if not location.in_cache:
            initial_layout[location.position] = page_id

    static_store.trace.clear()
    pir_database.trace.clear()
    for page_id in workload:
        static_store.retrieve(page_id)
        pir_database.query(page_id)

    results = []
    hot_page = max(counts, key=lambda pid: counts[pid])

    analyst = FrequencyAnalyst(static_store.num_pages)
    vector = analyst.frequency_vector(static_store.trace)
    truth = [
        counts.get(static_store._permutation.invert(loc), 0)
        for loc in range(static_store.num_pages)
    ]
    results.append(
        FrequencyExperimentResult(
            scheme=static_store.name,
            popularity_correlation=spearman_rank_correlation(vector, truth),
            hot_page_identified=(
                analyst.hottest_locations(static_store.trace, 1)[0]
                == static_store.location_of(hot_page)
            ),
            uniformity_gap=analyst.uniformity_gap(static_store.trace),
        )
    )

    analyst = FrequencyAnalyst(pir_database.params.num_locations)
    vector = analyst.frequency_vector(pir_database.trace)
    truth = [
        counts.get(initial_layout.get(loc, -1), 0)
        for loc in range(pir_database.params.num_locations)
    ]
    hot_initial_location = next(
        (loc for loc, pid in initial_layout.items() if pid == hot_page), -1
    )
    results.append(
        FrequencyExperimentResult(
            scheme="c-approx",
            popularity_correlation=spearman_rank_correlation(vector, truth),
            hot_page_identified=(
                analyst.hottest_locations(pir_database.trace, 1)[0]
                == hot_initial_location
            ),
            uniformity_gap=analyst.uniformity_gap(pir_database.trace),
        )
    )
    return results
