"""System parameters and the privacy/cost trade-off math (Eqs. 1-6, Table 1).

Symbols (Table 1):

====  ==========================================================
n     database size in pages (disk locations, after padding)
k     block size: pages read round-robin per request
N     number of blocks ``n / k``
m     cache capacity in pages
B     page size in bytes
T     scan period ``n / k``: requests needed to touch every
      location once via the round-robin schedule
c     privacy parameter of c-approximate PIR (Definition 1)
====  ==========================================================

Key relations:

* Eq. 1  — probability the cached page returns to disk at request t:
  ``P_t = (1 - 1/m)^(t-1) * (1/m)`` (geometric, memoryless).
* Eq. 2  — probability it lands on a specific location of the block
  accessed at t: ``P_t / k``.
* Eqs. 3-4 — extreme location probabilities obtained by summing the
  geometric series over scan periods.
* Eq. 5  — their ratio ``1 / (1-1/m)^(T-1) = c``.
* Eq. 6  — solved for the security parameter:
  ``k = n / (log(1/c)/log(1-1/m) + 1)``, or for the cache:
  ``m = 1 / (1 - c^(-1/(T-1)))``.

This module solves those equations with explicit rounding rules (rounding k
*up* can only improve privacy, i.e. lower the achieved c) and packages the
result as an immutable :class:`SystemParameters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "SystemParameters",
    "scan_period_for_privacy",
    "required_block_size",
    "cache_for_privacy",
    "padded_locations",
    "achieved_privacy",
    "eviction_probability",
    "landing_probability",
]


# ---------------------------------------------------------------------------
# Scalar relations
# ---------------------------------------------------------------------------


def _validate_cache(m: int) -> None:
    if m < 2:
        raise ConfigurationError(
            "cache capacity m must be at least 2 (with m=1 the eviction law "
            "degenerates and only the trivial k=n scheme is private)"
        )


def scan_period_for_privacy(m: int, c: float) -> float:
    """Eq. 5/6 intermediate: the (real-valued) scan period T achieving privacy c.

    ``T = log(1/c) / log(1 - 1/m) + 1``.  ``c = 1`` gives ``T = 1`` (every
    request scans the whole database: trivial PIR).
    """
    _validate_cache(m)
    if c < 1:
        raise ConfigurationError(f"privacy parameter c must be >= 1, got {c}")
    if c == 1:
        return 1.0
    return math.log(1.0 / c) / math.log(1.0 - 1.0 / m) + 1.0


def required_block_size(n: int, m: int, c: float) -> int:
    """Eq. 6: the smallest block size k meeting privacy target c.

    Rounded up, because a larger k shortens the scan period T and therefore
    lowers (improves) the achieved c.
    """
    if n <= 0:
        raise ConfigurationError("database size n must be positive")
    period = scan_period_for_privacy(m, c)
    k = math.ceil(n / period)
    return max(1, min(n, k))


def cache_for_privacy(n: int, k: int, c: float) -> int:
    """Eq. 6 inverted for m: the smallest cache meeting privacy c at (n, k).

    "Meeting" is :func:`achieved_privacy` within the tolerance of
    :meth:`SystemParameters.meets_target`.  The closed form
    ``m = 1 / (1 - c^(-1/(T-1)))`` is exact up to float rounding, so the
    boundary is bracketed around it and found by bisection.  ``T <= 1``
    (k = n: every request scans the database) meets any c with m = 2.
    """
    if n <= 0:
        raise ConfigurationError("database size n must be positive")
    if not 1 <= k <= n:
        raise ConfigurationError(f"block size k={k} must lie in [1, n={n}]")
    if c <= 1:
        raise ConfigurationError(
            f"privacy parameter c must be > 1 to size a cache, got {c}"
        )
    period = n / k
    if period <= 1:
        return 2

    def meets(m: int) -> bool:
        return achieved_privacy(n, m, k) <= c * (1 + 1e-12)

    guess = max(2, math.ceil(1.0 / (1.0 - c ** (-1.0 / (period - 1.0)))))
    # Invariant once bracketed: ``lo`` fails (``lo = 1`` stands for "m = 2
    # already meets") and ``hi`` meets; the steps double either way.
    lo, hi, step = guess - 1, guess, 1
    while not meets(hi):
        lo, hi, step = hi, hi + step, 2 * step
    step = 1
    while lo >= 2 and meets(lo):
        lo, hi, step = max(1, lo - step), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi


def padded_locations(n: int, k: int) -> int:
    """Disk locations for n pages at block size k: whole blocks, and at
    least k + 2 so the random-page rejection loop of Retrieve() ends."""
    locations = k * math.ceil(n / k)
    while locations < k + 2:
        locations += k
    return locations


def achieved_privacy(n: int, m: int, k: int) -> float:
    """Eq. 5 rearranged: the privacy level c actually provided by (n, m, k).

    ``c = 1 / (1 - 1/m)^(T - 1)`` with ``T = n / k``.
    """
    _validate_cache(m)
    if not 1 <= k <= n:
        raise ConfigurationError(f"block size k={k} must lie in [1, n={n}]")
    period = n / k
    return (1.0 - 1.0 / m) ** (-(period - 1.0))


def eviction_probability(m: int, t: int) -> float:
    """Eq. 1: probability a page that entered the cache at t=0 leaves at request t."""
    _validate_cache(m)
    if t < 1:
        raise ConfigurationError("eviction time t starts at 1")
    return (1.0 - 1.0 / m) ** (t - 1) / m


def landing_probability(m: int, k: int, t: int) -> float:
    """Eq. 2: probability the page lands on one specific location of block t."""
    if k < 1:
        raise ConfigurationError("block size k must be positive")
    return eviction_probability(m, t) / k


# ---------------------------------------------------------------------------
# Packaged parameter set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemParameters:
    """A fully resolved configuration of the c-approximate PIR scheme.

    Use :meth:`solve` to derive k and the padded layout from a privacy
    target, or :meth:`from_block_size` when k itself is the experimental
    variable.
    """

    num_user_pages: int
    reserve_pages: int
    cache_capacity: int
    block_size: int
    num_locations: int
    page_capacity: int
    target_c: float

    def __post_init__(self) -> None:
        if self.num_user_pages <= 0:
            raise ConfigurationError("need at least one user page")
        if self.reserve_pages < 0:
            raise ConfigurationError("reserve_pages must be non-negative")
        _validate_cache(self.cache_capacity)
        if self.page_capacity < 0:
            raise ConfigurationError("page_capacity must be non-negative")
        if self.num_locations % self.block_size != 0:
            raise ConfigurationError(
                "num_locations must be a multiple of block_size (pad with dummies)"
            )
        if self.num_locations < self.num_user_pages + self.reserve_pages:
            raise ConfigurationError("locations cannot be fewer than stored pages")
        if self.num_locations < self.block_size + 2:
            raise ConfigurationError(
                "need num_locations >= block_size + 2 so the random-page "
                "rejection loop of Retrieve() can terminate; for k = n use "
                "the trivial-PIR baseline instead"
            )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def solve(
        cls,
        num_user_pages: int,
        cache_capacity: int,
        target_c: float,
        page_capacity: int = 1024,
        reserve_fraction: float = 0.0,
    ) -> "SystemParameters":
        """Derive (k, padded n) from a privacy target c via Eq. 6."""
        if not 0 <= reserve_fraction < 1000:
            raise ConfigurationError("reserve_fraction out of sane range [0, 1000)")
        if target_c <= 1:
            raise ConfigurationError(
                "target_c must be > 1; c = 1 is perfect privacy, i.e. reading "
                "the whole database per request — use repro.baselines.TrivialPir"
            )
        reserve = math.ceil(num_user_pages * reserve_fraction)
        base = num_user_pages + reserve
        # Eq. 6 gives a real-valued k; padding n up to a multiple of k changes
        # T = n/k, so walk k upward until the *padded* layout still meets c.
        k = required_block_size(base, cache_capacity, target_c)
        while True:
            num_locations = k * math.ceil(base / k)
            if achieved_privacy(num_locations, cache_capacity, k) <= target_c:
                break
            k += 1
            if k > base:
                raise ConfigurationError(
                    f"no block size k <= n meets c={target_c} with m={cache_capacity}; "
                    "increase the cache or relax the privacy target"
                )
        # One more block of dummies if the target c pushed k right up
        # against n (the rejection-sampling headroom).
        num_locations = padded_locations(base, k)
        return cls(
            num_user_pages=num_user_pages,
            reserve_pages=num_locations - num_user_pages,
            cache_capacity=cache_capacity,
            block_size=k,
            num_locations=num_locations,
            page_capacity=page_capacity,
            target_c=target_c,
        )

    @classmethod
    def from_block_size(
        cls,
        num_user_pages: int,
        cache_capacity: int,
        block_size: int,
        page_capacity: int = 1024,
        reserve_fraction: float = 0.0,
    ) -> "SystemParameters":
        """Fix k directly and compute the privacy that follows from it."""
        reserve = math.ceil(num_user_pages * reserve_fraction)
        base = num_user_pages + reserve
        num_locations = padded_locations(base, block_size)
        c = achieved_privacy(num_locations, cache_capacity, block_size)
        return cls(
            num_user_pages=num_user_pages,
            reserve_pages=num_locations - num_user_pages,
            cache_capacity=cache_capacity,
            block_size=block_size,
            num_locations=num_locations,
            page_capacity=page_capacity,
            target_c=c,
        )

    # -- derived quantities --------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of round-robin blocks N = n / k."""
        return self.num_locations // self.block_size

    @property
    def scan_period(self) -> int:
        """T = n / k: requests needed to sweep every disk location once."""
        return self.num_blocks

    @property
    def total_pages(self) -> int:
        """All logical pages: disk locations + pages resident in the cache."""
        return self.num_locations + self.cache_capacity

    @property
    def achieved_c(self) -> float:
        """The privacy level actually provided after integer rounding of k."""
        return achieved_privacy(
            self.num_locations, self.cache_capacity, self.block_size
        )

    @property
    def free_pages(self) -> int:
        """Padding/reserve pages available for insertions at setup time."""
        return self.num_locations - self.num_user_pages

    def meets_target(self) -> bool:
        """True iff rounding did not weaken privacy below the requested c."""
        return self.achieved_c <= self.target_c * (1 + 1e-12)

    def describe(self) -> str:
        return (
            f"SystemParameters(n={self.num_locations}, k={self.block_size}, "
            f"T={self.scan_period}, m={self.cache_capacity}, "
            f"B={self.page_capacity}, c_target={self.target_c:.4f}, "
            f"c_achieved={self.achieved_c:.4f})"
        )
