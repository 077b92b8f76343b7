"""Latency and counter metrics for experiments.

Small, dependency-light accumulators used by the benchmark harness and the
baseline comparisons.  The paper's central empirical claim is about latency
*distribution shape* (constant for this scheme, heavy-tailed for amortized
schemes), so :class:`LatencySeries` keeps the full sample and exposes exact
order statistics rather than streaming approximations.

Both accumulators can *mirror* into the unified
:class:`~repro.obs.registry.MetricsRegistry` (see DESIGN.md §9): a
``CounterSet`` built with ``registry=`` forwards every increment to a
registry counter under its ``prefix``, and a ``LatencySeries`` built with
``histogram=`` feeds each sample into a registry histogram.  The legacy
in-place behaviour is unchanged when neither is supplied; new code should
prefer the registry directly.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional

from ..errors import ConfigurationError

__all__ = ["LatencySeries", "CounterSet"]


class LatencySeries:
    """Collects per-operation latencies (seconds) and summarises them.

    ``histogram`` is an optional sink with an ``observe(value)`` method
    (e.g. :class:`repro.obs.registry.Histogram`); every accepted sample is
    forwarded to it.
    """

    def __init__(self, histogram=None) -> None:
        self._samples: List[float] = []
        self._histogram = histogram

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ConfigurationError(f"negative latency {latency}")
        self._samples.append(latency)
        if self._histogram is not None:
            self._histogram.observe(latency)

    def extend(self, latencies: Iterable[float]) -> None:
        """Record a batch of samples, atomically.

        The whole iterable is validated before any sample is committed, so
        a negative latency in the middle of the batch leaves the series
        (and the mirrored histogram) exactly as it was — previously the
        leading valid samples were appended and then the error raised,
        leaving the series partially mutated.
        """
        values = [float(value) for value in latencies]
        for value in values:
            if value < 0:
                raise ConfigurationError(f"negative latency {value}")
        self._samples.extend(values)
        if self._histogram is not None:
            for value in values:
                self._histogram.observe(value)

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


class CounterSet:
    """Named monotonically increasing counters.

    With ``registry=`` (a :class:`~repro.obs.registry.MetricsRegistry`),
    every increment is mirrored to ``registry.counter(prefix + name)`` —
    the migration path that lets the engine, frontend, health monitor and
    fault injector publish into the unified registry without changing any
    call site.  ``reset()`` clears only the local counts; the registry's
    counters are monotonic by contract and keep their values.

    Thread-safe: server workers and the event loop bump shared sets, so
    every mutation holds one lock (the local count is a read-modify-write).
    """

    def __init__(self, registry=None, prefix: str = "") -> None:
        self._counts: Dict[str, int] = {}
        self._registry = registry
        self._prefix = prefix
        self._lock = threading.Lock()

    def increment(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counter increments must be non-negative")
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount
            if self._registry is not None:
                self._registry.counter(self._prefix + name).inc(amount)

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def merge(self, other: "CounterSet", prefix: str = "") -> None:
        """Fold another counter set into this one, optionally namespaced.

        Used to aggregate per-component fault/retry/health counters (engine,
        injector, frontend, client) into one report:
        ``totals.merge(engine.counters, prefix="engine.")``.
        """
        for name, amount in other.as_dict().items():
            self.increment(prefix + name, amount)

    def bind_registry(self, registry, prefix: Optional[str] = None) -> None:
        """Start mirroring future increments into ``registry``.

        Existing local counts are folded in immediately so the registry
        view is complete from the moment of binding.
        """
        with self._lock:
            self._registry = registry
            if prefix is not None:
                self._prefix = prefix
            if registry is not None:
                for name, amount in self._counts.items():
                    registry.counter(self._prefix + name).inc(amount)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
