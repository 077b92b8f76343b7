"""Long-run mixing of the continuous reshuffle.

Definition 1 bounds the distribution of a *single* relocation.  A natural
follow-up question (the paper's implicit long-run story) is how quickly the
whole layout mixes: after enough requests, a page that has been touched at
least once should be found at a uniformly random location, and the overall
permutation of touched pages should keep randomising forever instead of
decaying back to any reference layout.

This module measures that on the executed engine:

* :func:`measure_displacement` — how far pages drift from their original
  locations as requests accumulate (mean normalised displacement against
  the uniform-expectation baseline of ~n/3 for circular distance);
* :func:`measure_location_mixing` — for one tracked page, the distribution
  of its location sampled every full scan period across a long run,
  compared with uniform via total variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.database import PirDatabase
from ..crypto.rng import SecureRandom
from ..errors import ConfigurationError

__all__ = ["DisplacementSeries", "measure_displacement", "measure_location_mixing"]


@dataclass(frozen=True)
class DisplacementSeries:
    """Mean page displacement sampled along a request stream."""

    checkpoints: List[int]
    mean_displacement: List[float]
    num_locations: int

    @property
    def uniform_expectation(self) -> float:
        """Expected circular distance between two uniform locations: ~n/4."""
        return self.num_locations / 4.0

    def final_relative_to_uniform(self) -> float:
        """Final mean displacement over the uniform expectation (-> 1)."""
        return self.mean_displacement[-1] / self.uniform_expectation


def _circular_distance(a: int, b: int, n: int) -> int:
    difference = abs(a - b)
    return min(difference, n - difference)


def measure_displacement(
    db: PirDatabase,
    total_requests: int,
    checkpoints: int = 10,
    rng: SecureRandom = None,
) -> DisplacementSeries:
    """Drive uniform queries and sample mean displacement from the initial layout."""
    if total_requests <= 0 or checkpoints <= 0:
        raise ConfigurationError("positive request and checkpoint counts required")
    rng = rng if rng is not None else SecureRandom()
    pm = db.cop.state
    n = db.params.num_locations
    initial: Dict[int, int] = {}
    for page_id in range(db.params.total_pages):
        entry = pm.lookup(page_id)
        if not entry.in_cache:
            initial[page_id] = entry.position

    stops = sorted({max(1, round(total_requests * (i + 1) / checkpoints))
                    for i in range(checkpoints)})
    series_checkpoints: List[int] = []
    series_displacement: List[float] = []
    issued = 0
    for stop in stops:
        while issued < stop:
            db.query(rng.randrange(db.params.num_user_pages))
            issued += 1
        moved = []
        for page_id, origin in initial.items():
            entry = pm.lookup(page_id)
            if not entry.in_cache:
                moved.append(_circular_distance(entry.position, origin, n))
        series_checkpoints.append(issued)
        series_displacement.append(sum(moved) / len(moved))
    return DisplacementSeries(series_checkpoints, series_displacement, n)


def measure_location_mixing(
    db: PirDatabase,
    tracked_page: int,
    samples: int = 200,
    rng: SecureRandom = None,
    interval_requests: int = None,
) -> float:
    """TV distance between a tracked page's long-run location samples and uniform.

    Samples the page's disk location every ``interval_requests`` of uniform
    background traffic; a well-mixed scheme drives this toward the
    multinomial sampling-noise floor.  The interval must comfortably exceed
    the page's expected move time (~ n_user requests to be picked up plus m
    to be evicted) or consecutive samples are autocorrelated and the TV
    estimate is inflated; the default uses that expectation.
    """
    if samples <= 0:
        raise ConfigurationError("samples must be positive")
    rng = rng if rng is not None else SecureRandom()
    pm = db.cop.state
    n = db.params.num_locations
    if interval_requests is None:
        interval_requests = db.params.num_user_pages + 3 * db.params.cache_capacity
    if interval_requests <= 0:
        raise ConfigurationError("interval_requests must be positive")
    counts = [0] * n
    collected = 0
    while collected < samples:
        for _ in range(interval_requests):
            candidate = rng.randrange(db.params.num_user_pages)
            db.query(candidate)
        entry = pm.lookup(tracked_page)
        if not entry.in_cache:
            counts[entry.position] += 1
            collected += 1
    uniform = 1.0 / n
    total = sum(counts)
    return 0.5 * sum(abs(count / total - uniform) for count in counts)
