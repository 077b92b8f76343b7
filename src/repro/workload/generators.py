"""Request-stream generators for experiments.

The paper's evaluation is workload-agnostic (the scheme's cost is constant
per request), but the *privacy* argument matters most under skew: with
plain encryption, popularity leaks ("if the server has knowledge of the
access patterns of the database records ... it can extract some information",
§1).  These generators produce the uniform and skewed (Zipf) streams the
benchmarks and adversary experiments use, plus mixed read/write operation
streams for the §4.3 update experiments.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..crypto.rng import SecureRandom
from ..errors import ConfigurationError

__all__ = [
    "uniform_stream",
    "ZipfSampler",
    "zipf_stream",
    "Operation",
    "operation_stream",
]


def _check(num_pages: int, count: int) -> None:
    if num_pages <= 0:
        raise ConfigurationError("num_pages must be positive")
    if count < 0:
        raise ConfigurationError("count must be non-negative")


def uniform_stream(num_pages: int, count: int, rng: SecureRandom) -> List[int]:
    """Independent uniform page ids."""
    _check(num_pages, count)
    return [rng.randrange(num_pages) for _ in range(count)]


class ZipfSampler:
    """Zipf(theta) over [0, num_pages) via inverse-CDF lookup.

    ``theta = 0`` degenerates to uniform; web-like skew is ~0.8-1.2.
    Rank 0 is the most popular id; callers wanting a scattered hot set can
    compose with a permutation.
    """

    def __init__(self, num_pages: int, theta: float):
        if num_pages <= 0:
            raise ConfigurationError("num_pages must be positive")
        if theta < 0:
            raise ConfigurationError("theta must be non-negative")
        self.num_pages = num_pages
        self.theta = theta
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, num_pages + 1):
            total += rank**-theta
            cumulative.append(total)
        self._cumulative = [value / total for value in cumulative]

    def sample(self, rng: SecureRandom) -> int:
        return bisect.bisect_left(self._cumulative, rng.random())

    def probability(self, page_id: int) -> float:
        if not 0 <= page_id < self.num_pages:
            raise ConfigurationError("page id out of range")
        previous = self._cumulative[page_id - 1] if page_id > 0 else 0.0
        return self._cumulative[page_id] - previous


def zipf_stream(
    num_pages: int, count: int, rng: SecureRandom, theta: float = 0.9
) -> List[int]:
    """Zipf-skewed ids (rank 0 hottest)."""
    _check(num_pages, count)
    sampler = ZipfSampler(num_pages, theta)
    return [sampler.sample(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Mixed operation streams for the §4.3 update experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Operation:
    """One database operation in a mixed workload."""

    kind: str  # "query" | "update" | "insert" | "delete"
    page_id: Optional[int] = None
    payload: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.kind not in ("query", "update", "insert", "delete"):
            raise ConfigurationError(f"unknown operation kind {self.kind!r}")


def operation_stream(
    num_pages: int,
    count: int,
    rng: SecureRandom,
    mix: Sequence[float] = (0.7, 0.2, 0.05, 0.05),
    payload_size: int = 8,
) -> List[Operation]:
    """A randomized stream of (query, update, insert, delete) operations.

    ``mix`` gives the probabilities for the four kinds in that order.
    Deletions target live ids (the caller's database may still reject a
    double delete — the generator tracks its own view to avoid most of them).
    """
    _check(num_pages, count)
    if len(mix) != 4 or abs(sum(mix) - 1.0) > 1e-9 or any(p < 0 for p in mix):
        raise ConfigurationError("mix must be four non-negative probs summing to 1")
    cumulative = [mix[0], mix[0] + mix[1], mix[0] + mix[1] + mix[2], 1.0]
    live = set(range(num_pages))
    operations: List[Operation] = []
    serial = 0
    for _ in range(count):
        roll = rng.random()
        kind = "query"
        for index, bound in enumerate(cumulative):
            if roll <= bound:
                kind = ("query", "update", "insert", "delete")[index]
                break
        if kind in ("query", "update", "delete") and not live:
            kind = "insert"
        if kind == "query":
            operations.append(Operation("query", rng.choice(sorted(live))))
        elif kind == "update":
            payload = serial.to_bytes(payload_size, "big")
            operations.append(Operation("update", rng.choice(sorted(live)), payload))
        elif kind == "insert":
            payload = serial.to_bytes(payload_size, "big")
            operations.append(Operation("insert", None, payload))
        else:
            victim = rng.choice(sorted(live))
            live.discard(victim)
            operations.append(Operation("delete", victim))
        serial += 1
    return operations
