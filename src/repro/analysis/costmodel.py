"""Analytical cost model of §5 — regenerates Figures 4, 5, 6, 7.

Eq. 7 (secure storage)::

    S = n * (log2(n) + 1) / 8  +  (m + k + 1) * B     [bytes]

Eq. 8 (constant per-query time)::

    Q_t = 4 * t_s + 2 * (k + 1) * B * (1/r_d + 1/r_b + 1/r_ed)

with k from Eq. 6.  The paper's §5 numbers are analytical evaluations of
these formulas over the Table-2 constants; this module reproduces them
exactly (the tests pin the headline values: 27 ms for 1 GB / 1 KB pages at
c = 2, etc.) and adds the two-party variant behind Figure 7.

Every figure's panel definitions (database sizes, cache-size sweeps, c − 1
sweeps) are encoded here so benchmarks and docs share one source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..core.params import cache_for_privacy, required_block_size
from ..errors import ConfigurationError
from ..hardware.specs import GIGABYTE, IBM_4764, HardwareSpec

__all__ = [
    "ConfigurationPoint",
    "AnalyticalCostModel",
    "TwoPartyCostModel",
    "eq8_terms",
    "largest_block_size",
    "figure4_series",
    "figure5_series",
    "figure6_series",
    "figure7_series",
    "headline_numbers",
    "FIGURE4_PANELS",
    "FIGURE5_PANELS",
    "FIGURE6_PANELS",
    "FIGURE7_PANELS",
    "FIGURE6_C_MINUS_ONE",
]


@dataclass(frozen=True)
class ConfigurationPoint:
    """One point of a figure: a fully resolved (n, m, k) with its costs."""

    database_bytes: int
    page_size: int
    num_pages: int
    cache_pages: int
    block_size: int
    privacy_c: float
    query_time: float
    secure_storage_bytes: float

    @property
    def scan_period(self) -> float:
        return self.num_pages / self.block_size

    @property
    def secure_storage_mb(self) -> float:
        return self.secure_storage_bytes / 1e6

    @property
    def secure_storage_gb(self) -> float:
        return self.secure_storage_bytes / 1e9


def eq8_terms(
    spec: HardwareSpec, block_size: int, page_size: int
) -> Dict[str, float]:
    """Eq. 8 decomposed into its four additive terms, in seconds per query.

    ``seek`` is ``4 * t_s`` (two reads + two writes, one seek each);
    ``disk``, ``link`` and ``crypto`` are the ``2(k+1)B`` transfer charged
    at ``r_d``, ``r_b`` and ``r_ed`` respectively; ``total`` is Eq. 8
    itself, in its factored form (equal to the sum of the four terms to
    within rounding).  This is the single implementation of the formula:
    :meth:`AnalyticalCostModel.query_time`,
    :meth:`PirDatabase.expected_query_time
    <repro.core.database.PirDatabase.expected_query_time>`,
    and the per-phase columns of ``benchmarks/bench_headline.py`` all
    read it, and :meth:`repro.plan.CalibratedCostModel.from_spec` sums to
    it at the frame size (the model a traced run is checked against).
    """
    if block_size < 1 or page_size <= 0:
        raise ConfigurationError("block_size and page_size must be positive")
    moved = 2 * (block_size + 1) * page_size
    terms = {
        "seek": 4 * spec.disk.seek_time,
        "disk": moved / spec.disk.read_bandwidth,
        "link": moved / spec.link_bandwidth,
        "crypto": moved / spec.crypto_throughput,
    }
    per_byte = (
        1.0 / spec.disk.read_bandwidth
        + 1.0 / spec.link_bandwidth
        + 1.0 / spec.crypto_throughput
    )
    terms["total"] = terms["seek"] + moved * per_byte
    return terms


def largest_block_size(
    query_time: Callable[[int], float], budget: float, num_pages: int
) -> int:
    """Eq. 8 inverted: the largest k in ``[1, num_pages]`` whose
    ``query_time(k)`` fits ``budget``, by binary search (Eq. 8 increases
    with k).  Returns 1 when even k = 1 misses; callers refuse that case."""
    lo, hi = 1, max(1, num_pages)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if query_time(mid) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


class AnalyticalCostModel:
    """Eqs. 7-8 over a hardware spec (three-party, coprocessor deployment)."""

    def __init__(self, spec: HardwareSpec = IBM_4764):
        self.spec = spec

    def query_time(self, block_size: int, page_size: int) -> float:
        """Eq. 8: the constant response time for one private retrieval."""
        return eq8_terms(self.spec, block_size, page_size)["total"]

    @staticmethod
    def secure_storage_bytes(
        num_pages: int, cache_pages: int, block_size: int, page_size: int
    ) -> float:
        """Eq. 7: pageMap bits plus the cache and serverBlock page buffers."""
        if min(num_pages, cache_pages, block_size, page_size) <= 0:
            raise ConfigurationError("all Eq. 7 inputs must be positive")
        page_map = num_pages * (math.log2(num_pages) + 1) / 8.0
        return page_map + (cache_pages + block_size + 1) * page_size

    def point(
        self,
        database_bytes: int,
        page_size: int,
        cache_pages: int,
        privacy_c: float,
    ) -> ConfigurationPoint:
        """Resolve one configuration: n from the DB size, k from Eq. 6."""
        num_pages = database_bytes // page_size
        if num_pages <= 0:
            raise ConfigurationError("database smaller than one page")
        block_size = required_block_size(num_pages, cache_pages, privacy_c)
        return ConfigurationPoint(
            database_bytes=database_bytes,
            page_size=page_size,
            num_pages=num_pages,
            cache_pages=cache_pages,
            block_size=block_size,
            privacy_c=privacy_c,
            query_time=self.query_time(block_size, page_size),
            secure_storage_bytes=self.secure_storage_bytes(
                num_pages, cache_pages, block_size, page_size
            ),
        )

    def units_required(self, point: ConfigurationPoint) -> int:
        """Coprocessors needed to host the configuration's secure storage."""
        return math.ceil(point.secure_storage_bytes / self.spec.secure_memory)

    def cache_required(
        self,
        database_bytes: int,
        page_size: int,
        privacy_c: float,
        target_seconds: float,
    ) -> ConfigurationPoint:
        """Smallest cache m meeting a response-time target (inverse of §5).

        Takes the largest block size whose :meth:`query_time` fits the
        target, then the smallest m whose Eq. 6 block size is no larger
        (:func:`~repro.core.params.cache_for_privacy`) — the calculation
        behind §5's "sub-second page retrieval on 1 TB needs over 4 GB of
        secure storage".  Raises if the target is below the 4-seek floor or
        leaves no room for k = 1.
        """
        floor = 4 * self.spec.disk.seek_time
        if target_seconds <= floor:
            raise ConfigurationError(
                f"target {target_seconds}s is below the 4-seek floor {floor}s"
            )
        if self.query_time(1, page_size) > target_seconds:
            raise ConfigurationError(
                "target time admits no block at this page size"
            )
        num_pages = database_bytes // page_size
        block_size = largest_block_size(
            lambda k: self.query_time(k, page_size), target_seconds, num_pages
        )
        cache = cache_for_privacy(num_pages, block_size, privacy_c)
        return self.point(database_bytes, page_size, cache, privacy_c)


class TwoPartyCostModel(AnalyticalCostModel):
    """Figure 7's deployment: the owner *is* the secure hardware (§3.1, §5).

    The secure-memory constraint disappears (any server has gigabytes of
    RAM, and Eq. 7 is charged against it); the bottleneck becomes the
    network, which must carry 2(k+1) pages per query.  The paper's
    prototype ran over WiFi with a simulated 50 ms RTT;
    ``network_bandwidth`` is calibrated (DESIGN.md §3, EXPERIMENTS.md) so
    the model reproduces the paper's measured 0.737 s at
    (1 TB, B = 1 KB, m = 2 x 10^6).  The three class constants below are
    that calibration.
    """

    rtt = 0.05
    network_bandwidth = 2.33e6
    owner_crypto_throughput = 100e6

    def query_time(self, block_size: int, page_size: int) -> float:
        """One RTT plus provider disk plus the double page transfer + crypto."""
        if block_size < 1 or page_size <= 0:
            raise ConfigurationError("block_size and page_size must be positive")
        moved = 2 * (block_size + 1) * page_size
        per_byte = 1.0 / self.network_bandwidth + 1.0 / self.owner_crypto_throughput
        disk = 4 * self.spec.disk.seek_time + moved / self.spec.disk.read_bandwidth
        return self.rtt + disk + moved * per_byte


# ---------------------------------------------------------------------------
# Figure definitions — panels exactly as printed in the paper.
# ---------------------------------------------------------------------------

KILOBYTE = 1000  # the paper's 1KB page with n = 10^6 for 1GB implies decimal units

#: Figure 4: B = 1 KB, c = 2; cache-size sweeps per database size.
FIGURE4_PANELS: Dict[str, Dict[str, Sequence[int]]] = {
    "1GB": {"db_bytes": (1 * GIGABYTE,), "cache_sizes": (1_000, 5_000, 10_000, 20_000, 50_000)},
    "10GB": {"db_bytes": (10 * GIGABYTE,), "cache_sizes": (10_000, 20_000, 50_000, 80_000, 100_000)},
    "100GB": {"db_bytes": (100 * GIGABYTE,), "cache_sizes": (50_000, 100_000, 200_000, 300_000, 500_000)},
    "1TB": {"db_bytes": (1000 * GIGABYTE,), "cache_sizes": (100_000, 200_000, 300_000, 400_000, 500_000)},
}

#: Figure 5: B = 10 KB, c = 2.
FIGURE5_PANELS: Dict[str, Dict[str, Sequence[int]]] = {
    "1GB": {"db_bytes": (1 * GIGABYTE,), "cache_sizes": (1_000, 2_000, 3_000, 4_000, 5_000)},
    "10GB": {"db_bytes": (10 * GIGABYTE,), "cache_sizes": (2_500, 5_000, 10_000, 20_000, 50_000)},
    "100GB": {"db_bytes": (100 * GIGABYTE,), "cache_sizes": (10_000, 20_000, 40_000, 60_000, 80_000)},
    "1TB": {"db_bytes": (1000 * GIGABYTE,), "cache_sizes": (50_000, 100_000, 200_000, 300_000, 400_000)},
}

#: Figure 6: response time vs. c − 1, B = 1 KB, m fixed per DB.
FIGURE6_PANELS: Dict[str, Dict[str, int]] = {
    "1GB": {"db_bytes": 1 * GIGABYTE, "cache_pages": 50_000},
    "10GB": {"db_bytes": 10 * GIGABYTE, "cache_pages": 100_000},
    "100GB": {"db_bytes": 100 * GIGABYTE, "cache_pages": 500_000},
    "1TB": {"db_bytes": 1000 * GIGABYTE, "cache_pages": 500_000},
}

FIGURE6_C_MINUS_ONE: Sequence[float] = (0.01, 0.05, 0.1, 0.5, 1.0)

#: Figure 7: two-party model, 1 TB database, c = 2.
FIGURE7_PANELS: Dict[str, Dict[str, Sequence[int]]] = {
    "1KB": {
        "db_bytes": (1000 * GIGABYTE,),
        "page_size": (1 * KILOBYTE,),
        "cache_sizes": (500_000, 1_000_000, 1_500_000, 2_000_000),
    },
    "10KB": {
        "db_bytes": (1000 * GIGABYTE,),
        "page_size": (10 * KILOBYTE,),
        "cache_sizes": (300_000, 500_000, 700_000, 1_000_000),
    },
}


def figure4_series(
    model: AnalyticalCostModel = AnalyticalCostModel(), privacy_c: float = 2.0
) -> Dict[str, List[ConfigurationPoint]]:
    """All four panels of Figure 4 (1 KB pages)."""
    return {
        panel: [
            model.point(definition["db_bytes"][0], 1 * KILOBYTE, m, privacy_c)
            for m in definition["cache_sizes"]
        ]
        for panel, definition in FIGURE4_PANELS.items()
    }


def figure5_series(
    model: AnalyticalCostModel = AnalyticalCostModel(), privacy_c: float = 2.0
) -> Dict[str, List[ConfigurationPoint]]:
    """All four panels of Figure 5 (10 KB pages)."""
    return {
        panel: [
            model.point(definition["db_bytes"][0], 10 * KILOBYTE, m, privacy_c)
            for m in definition["cache_sizes"]
        ]
        for panel, definition in FIGURE5_PANELS.items()
    }


def figure6_series(
    model: AnalyticalCostModel = AnalyticalCostModel(),
    c_minus_one: Sequence[float] = FIGURE6_C_MINUS_ONE,
) -> Dict[str, List[ConfigurationPoint]]:
    """All four panels of Figure 6 (response time vs. c − 1, 1 KB pages)."""
    return {
        panel: [
            model.point(
                definition["db_bytes"], 1 * KILOBYTE,
                definition["cache_pages"], 1.0 + excess,
            )
            for excess in c_minus_one
        ]
        for panel, definition in FIGURE6_PANELS.items()
    }


def figure7_series(
    model: TwoPartyCostModel = TwoPartyCostModel(), privacy_c: float = 2.0
) -> Dict[str, List[ConfigurationPoint]]:
    """Both panels of Figure 7 (two-party model, 1 TB database)."""
    return {
        panel: [
            model.point(
                definition["db_bytes"][0], definition["page_size"][0], m, privacy_c
            )
            for m in definition["cache_sizes"]
        ]
        for panel, definition in FIGURE7_PANELS.items()
    }


def headline_numbers(
    model: AnalyticalCostModel = AnalyticalCostModel(),
) -> List[Dict[str, object]]:
    """The response times quoted in §5's prose, with the paper's values.

    Each row: description, paper-reported seconds, model-computed seconds.
    """
    rows = [
        ("1GB, 1KB pages, m=50k, c=2", 1 * GIGABYTE, KILOBYTE, 50_000, 2.0, 0.027),
        ("1GB, 10KB pages, m=5k, c=2", 1 * GIGABYTE, 10 * KILOBYTE, 5_000, 2.0, 0.094),
        ("10GB, 1KB pages, 1 unit (m=20k), c=2", 10 * GIGABYTE, KILOBYTE, 20_000, 2.0, 0.197),
        ("10GB, 1KB pages, 2 units (m=80k), c=2", 10 * GIGABYTE, KILOBYTE, 80_000, 2.0, 0.065),
        ("100GB, 1KB pages, m=200k, c=2", 100 * GIGABYTE, KILOBYTE, 200_000, 2.0, 0.197),
        ("1TB, 1KB pages, m=500k, c=2", 1000 * GIGABYTE, KILOBYTE, 500_000, 2.0, 0.727),
    ]
    results: List[Dict[str, object]] = []
    for label, db_bytes, page, m, c, paper_seconds in rows:
        point = model.point(db_bytes, page, m, c)
        results.append(
            {
                "label": label,
                "paper_seconds": paper_seconds,
                "model_seconds": point.query_time,
                "block_size": point.block_size,
                "page_size": point.page_size,
                "storage_mb": point.secure_storage_mb,
                "units": model.units_required(point),
            }
        )
    return results
