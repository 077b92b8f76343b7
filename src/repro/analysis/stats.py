"""Statistical tooling for the empirical privacy experiments.

The Monte-Carlo validation compares observed landing histograms against the
closed-form distribution of §4.2.  Eyeballing ratios is not enough for a
reproduction, so this module provides the standard machinery:

* Pearson chi-square goodness-of-fit (p-value via the regularised upper
  incomplete gamma function — implemented from ``math.lgamma`` so the
  library core stays dependency-light; cross-checked against scipy in the
  tests),
* Wilson score intervals for the per-offset landing frequencies,
* maximum-likelihood fit of the geometric eviction law (Eq. 1), whose
  success parameter should recover ``1/m``,
* :class:`LatencySeries`, per-operation latencies with *exact* order
  statistics: the constant-vs-amortised comparison of the baselines is
  about distribution shape (max, CV), which a bucketed histogram cannot
  give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "chi_square_test",
    "ChiSquareResult",
    "wilson_interval",
    "fit_geometric",
    "spearman_rank_correlation",
    "LatencySeries",
]


def _regularized_gamma_q(s: float, x: float) -> float:
    """Q(s, x) = Gamma(s, x) / Gamma(s): the chi-square survival function
    is Q(df/2, x/2).  Series expansion for x < s + 1, continued fraction
    otherwise (Numerical Recipes construction)."""
    if x < 0 or s <= 0:
        raise ConfigurationError("invalid incomplete-gamma arguments")
    if x == 0:
        return 1.0
    if x < s + 1:
        # P(s, x) by series; Q = 1 - P.
        term = 1.0 / s
        total = term
        denominator = s
        for _ in range(10_000):
            denominator += 1.0
            term *= x / denominator
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        log_p = math.log(total) + s * math.log(x) - x - math.lgamma(s)
        return max(0.0, 1.0 - math.exp(log_p))
    # Q(s, x) by Lentz continued fraction.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    log_q = math.log(h) + s * math.log(x) - x - math.lgamma(s)
    return min(1.0, math.exp(log_q))


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of a goodness-of-fit test."""

    statistic: float
    degrees_of_freedom: int
    p_value: float

    def rejects_at(self, alpha: float = 0.01) -> bool:
        """True if the observed data rejects the model at level alpha."""
        return self.p_value < alpha


def chi_square_test(
    observed: Sequence[int], expected_probabilities: Sequence[float]
) -> ChiSquareResult:
    """Pearson chi-square test of ``observed`` counts against a model.

    ``expected_probabilities`` must sum to ~1; degrees of freedom are
    ``len(bins) - 1`` (no parameters estimated from the data).
    """
    if len(observed) != len(expected_probabilities):
        raise ConfigurationError("observed and expected lengths differ")
    if len(observed) < 2:
        raise ConfigurationError("need at least two bins")
    total = sum(observed)
    if total <= 0:
        raise ConfigurationError("observed counts must be positive in total")
    if abs(sum(expected_probabilities) - 1.0) > 1e-6:
        raise ConfigurationError("expected probabilities must sum to 1")
    statistic = 0.0
    for count, probability in zip(observed, expected_probabilities):
        expected = total * probability
        if expected <= 0:
            raise ConfigurationError("expected bin count must be positive")
        statistic += (count - expected) ** 2 / expected
    dof = len(observed) - 1
    p_value = _regularized_gamma_q(dof / 2.0, statistic / 2.0)
    return ChiSquareResult(statistic, dof, p_value)


def wilson_interval(
    successes: int, trials: int, z: float = 2.5758  # 99% two-sided
) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion."""
    if trials <= 0 or not 0 <= successes <= trials:
        raise ConfigurationError("invalid binomial inputs")
    p_hat = successes / trials
    denominator = 1 + z**2 / trials
    centre = (p_hat + z**2 / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2))
        / denominator
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))


def fit_geometric(samples: Sequence[int]) -> float:
    """MLE of the success probability of a geometric law on {1, 2, ...}.

    For eviction times this should recover 1/m (Eq. 1):
    ``p_hat = 1 / mean(samples)``.
    """
    if not samples:
        raise ConfigurationError("need at least one sample")
    if any(value < 1 for value in samples):
        raise ConfigurationError("geometric samples start at 1")
    return len(samples) / sum(samples)


def spearman_rank_correlation(
    first: Sequence[float], second: Sequence[float]
) -> float:
    """Spearman's rho between two equal-length sequences (average ranks).

    Used by the frequency-analysis experiment to quantify how well the
    server's per-location read counts track true page popularity.
    """
    if len(first) != len(second):
        raise ConfigurationError("sequences must have equal length")
    if len(first) < 2:
        raise ConfigurationError("need at least two observations")

    def ranks(values: Sequence[float]) -> List[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        result = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            average_rank = (i + j) / 2.0 + 1.0
            for position in range(i, j + 1):
                result[order[position]] = average_rank
            i = j + 1
        return result

    rank_a = ranks(first)
    rank_b = ranks(second)
    mean_a = sum(rank_a) / len(rank_a)
    mean_b = sum(rank_b) / len(rank_b)
    covariance = sum(
        (a - mean_a) * (b - mean_b) for a, b in zip(rank_a, rank_b)
    )
    variance_a = sum((a - mean_a) ** 2 for a in rank_a)
    variance_b = sum((b - mean_b) ** 2 for b in rank_b)
    if variance_a == 0 or variance_b == 0:
        return 0.0
    return covariance / math.sqrt(variance_a * variance_b)


class LatencySeries:
    """Collects per-operation latencies (seconds) and summarises them."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ConfigurationError(f"negative latency {latency}")
        self._samples.append(latency)

    def extend(self, latencies: Iterable[float]) -> None:
        """Record a batch of samples, atomically: the whole iterable is
        validated first, so a negative latency in the middle of the batch
        leaves the series exactly as it was."""
        values = [float(value) for value in latencies]
        for value in values:
            if value < 0:
                raise ConfigurationError(f"negative latency {value}")
        self._samples.extend(values)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """A copy of the raw sample list, in arrival order."""
        return list(self._samples)

    def mean(self) -> float:
        self._require_data()
        return sum(self._samples) / len(self._samples)

    def minimum(self) -> float:
        self._require_data()
        return min(self._samples)

    def maximum(self) -> float:
        self._require_data()
        return max(self._samples)

    def stddev(self) -> float:
        self._require_data()
        if len(self._samples) == 1:
            return 0.0
        mu = self.mean()
        variance = sum((x - mu) ** 2 for x in self._samples) / (len(self._samples) - 1)
        return math.sqrt(variance)

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (nearest-rank), q in [0, 100]."""
        self._require_data()
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile {q} out of [0, 100]")
        ordered = sorted(self._samples)
        if q == 0:
            return ordered[0]
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def coefficient_of_variation(self) -> float:
        """stddev / mean — near zero for a constant-time scheme."""
        mu = self.mean()
        if mu == 0:
            return 0.0
        return self.stddev() / mu

    def summary(self) -> Dict[str, float]:
        """All headline statistics in one dict (for table printing)."""
        return {
            "count": float(len(self._samples)),
            "mean": self.mean(),
            "min": self.minimum(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum(),
            "stddev": self.stddev(),
            "cv": self.coefficient_of_variation(),
        }

    def _require_data(self) -> None:
        if not self._samples:
            raise ConfigurationError("no latency samples recorded")
