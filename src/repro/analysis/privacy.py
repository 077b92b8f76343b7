"""Theoretical privacy model of the continuous reshuffle (Eqs. 1-5).

Setting (Section 4.2): page ``p`` enters the cache at request t = 0.  At each
later request it is evicted with probability 1/m (randomized replacement), and
when evicted it lands uniformly on one of the k locations of the block being
accessed at that request.  The round-robin schedule revisits each location
every T = n/k requests, so the *stationary* probability that p ends up at a
particular location depends only on that location's phase offset within the
scan — locations visited sooner after t = 0 are more likely.

This module computes the exact landing distribution, its extremes (Eqs. 3-4),
the privacy ratio (Eq. 5 / Definition 1), and distance-from-uniform measures
used by the empirical validation in :mod:`repro.analysis.empirical`.
"""

from __future__ import annotations

import math
from typing import List

from ..core.params import achieved_privacy, eviction_probability
from ..errors import ConfigurationError

__all__ = [
    "offset_landing_probabilities",
    "location_landing_distribution",
    "max_landing_probability",
    "min_landing_probability",
    "privacy_ratio",
    "landing_entropy_bits",
    "total_variation_from_uniform",
    "empirical_ratio",
]


def _validate(n: int, m: int, k: int) -> int:
    if n <= 0 or k <= 0 or n % k != 0:
        raise ConfigurationError("need n > 0 divisible by k")
    if m < 2:
        raise ConfigurationError("cache capacity m must be at least 2")
    return n // k


def offset_landing_probabilities(n: int, m: int, k: int) -> List[float]:
    """Per-*location* landing probability by scan offset t = 1..T.

    Entry ``t-1`` is the probability that page p (cached at t = 0) is
    eventually written to one specific location of the block accessed at
    offset t of the scan — the closed form of summing Eq. 2 over all later
    sweeps:  ``(1-1/m)^(t-1) / (m k (1 - (1-1/m)^T))``.

    The k locations of the offset-1 block attain the maximum (Eq. 3); the
    offset-T block the minimum (Eq. 4).
    """
    period = _validate(n, m, k)
    decay = 1.0 - 1.0 / m
    normaliser = m * k * (1.0 - decay**period)
    return [decay ** (t - 1) / normaliser for t in range(1, period + 1)]


def location_landing_distribution(n: int, m: int, k: int) -> List[float]:
    """Landing probability for each of the n disk locations (sums to 1).

    Location ``j`` belongs to block ``j // k``, which the round-robin
    schedule reaches at offset ``(j // k) + 1`` relative to a request issued
    just before block 0 — callers tracking a specific insertion instant
    should rotate the list by the block pointer at that instant.
    """
    per_offset = offset_landing_probabilities(n, m, k)
    distribution: List[float] = []
    for block_index in range(n // k):
        distribution.extend([per_offset[block_index]] * k)
    return distribution


def max_landing_probability(n: int, m: int, k: int) -> float:
    """Eq. 3: probability of the likeliest single location."""
    return offset_landing_probabilities(n, m, k)[0]


def min_landing_probability(n: int, m: int, k: int) -> float:
    """Eq. 4: probability of the least likely single location."""
    return offset_landing_probabilities(n, m, k)[-1]


def privacy_ratio(n: int, m: int, k: int) -> float:
    """Eq. 5: max/min landing-probability ratio = the achieved c.

    Algebraically identical to :func:`repro.core.params.achieved_privacy`;
    computed from the extremes here as a cross-check used by the tests.
    """
    return max_landing_probability(n, m, k) / min_landing_probability(n, m, k)


def landing_entropy_bits(n: int, m: int, k: int) -> float:
    """Shannon entropy of the landing distribution, in bits.

    Perfect PIR (uniform relocation) gives ``log2(n)``; the gap to that
    ceiling is the information the server can gain about one relocation.
    """
    return -sum(
        p * math.log2(p) for p in location_landing_distribution(n, m, k) if p > 0
    )


def total_variation_from_uniform(n: int, m: int, k: int) -> float:
    """Total-variation distance between the landing distribution and uniform."""
    uniform = 1.0 / n
    return 0.5 * sum(
        abs(p - uniform) for p in location_landing_distribution(n, m, k)
    )


def empirical_ratio(counts: List[int], smoothing: float = 1.0) -> float:
    """Max/min ratio of observed per-bin counts with additive smoothing.

    Used to estimate c from Monte-Carlo landing histograms; ``smoothing``
    (Laplace) keeps finite-sample zeros from blowing the ratio up.
    """
    if not counts:
        raise ConfigurationError("counts must be non-empty")
    if smoothing < 0:
        raise ConfigurationError("smoothing must be non-negative")
    high = max(counts) + smoothing
    low = min(counts) + smoothing
    if low == 0:
        raise ConfigurationError("cannot form a ratio with zero counts and no smoothing")
    return high / low


def sanity_check(n: int, m: int, k: int, tolerance: float = 1e-9) -> None:
    """Assert internal consistency of the closed forms (used by tests).

    * the location distribution sums to 1;
    * Eq. 5 computed from extremes equals the params-module formula;
    * the eviction law (Eq. 1) sums to 1 over t.
    """
    distribution = location_landing_distribution(n, m, k)
    if abs(sum(distribution) - 1.0) > tolerance:
        raise ConfigurationError("landing distribution does not sum to 1")
    direct = achieved_privacy(n, m, k)
    via_extremes = privacy_ratio(n, m, k)
    if abs(direct - via_extremes) > tolerance * max(1.0, direct):
        raise ConfigurationError(
            "Eq. 5 from the location extremes disagrees with its closed form"
        )
    horizon = max(10 * m, 1000)
    mass = sum(eviction_probability(m, t) for t in range(1, horizon + 1))
    if mass > 1.0 + tolerance:
        raise ConfigurationError("eviction law exceeds unit mass")
