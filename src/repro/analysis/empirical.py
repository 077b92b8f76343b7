"""Monte-Carlo validation of the privacy analysis on the *real* engine.

The theory of §4.2 predicts, for a page entering the cache at t = 0:

* it leaves at request t with geometric probability (Eq. 1),
* it lands uniformly within the k locations of the block accessed at t (Eq. 2),
* grouped by scan offset, landing probabilities decay by (1-1/m) per offset,
  giving the max/min ratio c of Eq. 5.

:func:`measure_landing_distribution` runs the actual
:class:`~repro.core.engine.RetrievalEngine` (not a re-derivation of the math)
many times: it pushes a tracked page into the cache, drives the system with
background queries until the page is evicted, and records where it landed
relative to the scan position at insertion time.  The resulting histograms
are compared against the closed forms by the test-suite and the
``bench_privacy`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .privacy import empirical_ratio, offset_landing_probabilities
from ..core.database import PirDatabase
from ..crypto.rng import SecureRandom
from ..errors import ConfigurationError

__all__ = ["LandingExperiment", "measure_landing_distribution"]


@dataclass
class LandingExperiment:
    """Aggregated Monte-Carlo landing observations."""

    num_locations: int
    block_size: int
    cache_capacity: int
    trials: int
    offset_counts: List[int] = field(default_factory=list)
    slot_counts: List[int] = field(default_factory=list)
    eviction_times: List[int] = field(default_factory=list)

    @property
    def scan_period(self) -> int:
        return self.num_locations // self.block_size

    def empirical_c(self, smoothing: float = 1.0) -> float:
        """Observed max/min landing ratio across scan offsets.

        Unbiased but high-variance (the extreme bins hold few samples);
        prefer :meth:`fitted_c` when trials are scarce relative to T.
        """
        return empirical_ratio(self.offset_counts, smoothing)

    def fitted_c(self) -> float:
        """Low-variance estimate of c via the geometric eviction law.

        Fits the eviction-time samples by maximum likelihood (`p_hat =
        1/mean`, Eq. 1) and plugs into Eq. 5:
        ``c = (1 - p_hat)^-(T - 1)``.  Uses every sample instead of only
        the two extreme offset bins.
        """
        if not self.eviction_times:
            raise ConfigurationError("no eviction times recorded")
        p_hat = len(self.eviction_times) / sum(self.eviction_times)
        p_hat = min(p_hat, 1.0 - 1e-12)
        return (1.0 - p_hat) ** (-(self.scan_period - 1))

    def theoretical_offset_probabilities(self) -> List[float]:
        """Per-offset landing probability implied by Eqs. 1-5.

        Per *block* at offset t (k locations each), i.e. the per-location
        value of :func:`offset_landing_probabilities` times k.
        """
        per_location = offset_landing_probabilities(
            self.num_locations, self.cache_capacity, self.block_size
        )
        return [p * self.block_size for p in per_location]

    def observed_offset_frequencies(self) -> List[float]:
        total = sum(self.offset_counts)
        if total == 0:
            raise ConfigurationError("no landing observations recorded")
        return [count / total for count in self.offset_counts]

    def total_variation_error(self) -> float:
        """TV distance between observed and theoretical offset distributions."""
        theory = self.theoretical_offset_probabilities()
        observed = self.observed_offset_frequencies()
        return 0.5 * sum(abs(a - b) for a, b in zip(theory, observed))

    def mean_eviction_time(self) -> float:
        """Should concentrate near m (mean of the geometric law, Eq. 1)."""
        if not self.eviction_times:
            raise ConfigurationError("no eviction times recorded")
        return sum(self.eviction_times) / len(self.eviction_times)


def measure_landing_distribution(
    db: PirDatabase,
    trials: int = 500,
    rng: Optional[SecureRandom] = None,
) -> LandingExperiment:
    """Track page relocations through the live engine.

    Each trial: (1) query a random live page until it is resident in the
    cache, (2) note the round-robin block pointer, (3) issue background
    queries for *other* pages until the tracked page is evicted to disk,
    (4) record the landing block's scan offset (1..T), the landing slot
    within that block, and the eviction time.  A page that takes more
    than ``200 * m`` requests to settle or to leave the cache raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    if db.params.num_user_pages < 2:
        raise ConfigurationError(
            "landing measurement needs at least two user pages (background "
            "queries must avoid the tracked page)"
        )
    rng = rng if rng is not None else SecureRandom()
    params = db.params
    engine = db.engine
    pm = db.cop.state
    period = params.scan_period
    wait_limit = 200 * params.cache_capacity

    experiment = LandingExperiment(
        num_locations=params.num_locations,
        block_size=params.block_size,
        cache_capacity=params.cache_capacity,
        trials=trials,
        offset_counts=[0] * period,
        slot_counts=[0] * params.block_size,
    )

    def background_query(excluding: int) -> None:
        while True:
            candidate = rng.randrange(params.num_user_pages)
            if candidate != excluding:
                engine.retrieve(candidate)
                return

    for _ in range(trials):
        tracked = rng.randrange(params.num_user_pages)
        # Step 1: ensure the tracked page is cached.
        attempts = 0
        while not pm.is_cached(tracked):
            engine.retrieve(tracked)
            attempts += 1
            if attempts > wait_limit:
                raise ConfigurationError(
                    "tracked page would not settle in the cache; configuration "
                    "is degenerate (m too small relative to churn)"
                )
        # Step 2: reference scan position at insertion time.
        start_block = engine.next_block_index
        # Step 3: drive the system until eviction.
        elapsed = 0
        while pm.is_cached(tracked):
            background_query(tracked)
            elapsed += 1
            if elapsed > wait_limit:
                raise ConfigurationError(
                    "tracked page was never evicted within the wait limit"
                )
        # Step 4: record landing placement.
        location = pm.lookup(tracked).position
        landing_block = location // params.block_size
        offset = (landing_block - start_block) % params.num_blocks  # 0-based
        experiment.offset_counts[offset] += 1
        experiment.slot_counts[location % params.block_size] += 1
        experiment.eviction_times.append(elapsed)

    return experiment
