"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the one home of every count in the codebase (DESIGN.md
§9).  A *series* is a metric name plus a label set.  Labels are fixed
where a deployment is wired — ``shard=`` by
``ShardedPirDatabase.create``, ``member=`` by ``build_cluster`` and
``connect_replication`` — through :meth:`MetricsRegistry.labelled`, which
returns a registry over the same store whose writes carry the labels.
Every writer owns a *cell* of its series:

* ``registry.counter(name)`` / ``gauge`` / ``histogram`` return the one
  cell shared by every direct caller under the registry's labels;
* ``registry.counter_view(prefix)`` gives one instance cells of its own —
  the ``.counters`` of the engine, frontend, server, tier, … — so
  ``obj.counters.get(name)`` is that instance's count even when two
  objects share a registry and a name (``PirServer`` and
  ``AdmissionController`` both count ``net.shed``).

Reads aggregate: an instrument's ``value`` / ``state()`` and the flat maps
of :meth:`MetricsRegistry.snapshot` are the sum (for histograms, the
merged buckets) over every series under the registry's labels, and the
snapshot lists each labelled series beside them.  Every ``metrics=``
keyword defaults to a private registry (:func:`registry_or_private`), so
an instrument is never optional.

Naming scheme: dot-separated ``component.event`` names —
``engine.recovery.replayed``, ``frontend.requests``, ``faults.fault.crash``,
``health.state``.

All instruments are created on first use and are safe to update from
multiple threads; reads take the same lock, so they are consistent.  A
re-entrant lock is used so a callback updating the registry from inside
``snapshot`` post-processing cannot deadlock.
"""

from __future__ import annotations

import bisect
import copy
import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "HistogramState",
    "quantile_from_counts",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "registry_or_private",
]

#: Log-spaced seconds buckets from 1 µs to 100 s — wide enough for both
#: wall-clock micro-benchmarks and Table-2 virtual latencies.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.5, 5.0)
) + (100.0,)

Labels = FrozenSet[Tuple[str, object]]


class _Cell:
    """One writer's share of a series; the base of the three instruments.

    ``siblings`` is every cell of the same name (this one included).
    ``own()`` is the cell's raw state (read under the registry lock) and
    ``merge`` folds the raw states of several cells into one.
    """

    __slots__ = ("name", "labels", "_siblings", "_lock")

    def __init__(self, name: str, labels: Labels, siblings: List["_Cell"],
                 lock: threading.RLock, buckets=None):
        self.name = name
        self.labels = labels
        self._siblings = siblings
        self._lock = lock

    def _aggregate(self):
        """The merged state of every series under this cell's labels."""
        with self._lock:
            raws = [cell.own() for cell in self._siblings
                    if self.labels <= cell.labels]
        return self.merge(raws)


class _Scalar(_Cell):
    """A cell holding one number; read across series it is their sum."""

    __slots__ = ("_value",)

    def __init__(self, name, labels, siblings, lock, buckets=None):
        super().__init__(name, labels, siblings, lock)
        self._value = self._ZERO

    def own(self):
        return self._value

    def merge(self, values):
        return sum(values)

    @staticmethod
    def report(total):
        return total

    @staticmethod
    def fields(total) -> Dict[str, object]:
        return {"value": total}

    @property
    def value(self):
        """The sum over every series of this name under its labels."""
        return self._aggregate()


class Counter(_Scalar):
    """Monotonically increasing count."""

    __slots__ = ()
    _SECTION = "counters"
    _ZERO = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counter increments must be non-negative")
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A value that can move both ways (health state, queue depth, ...).

    Per series it is the last value written; read across series (a flat
    snapshot, an unlabelled ``value``) it is their sum — total sessions,
    total queue depth — and each labelled series is reported on its own.
    """

    __slots__ = ()
    _SECTION = "gauges"
    _ZERO = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta


class HistogramState:
    """An immutable point-in-time copy of one histogram's raw contents.

    Cheap to take (one list copy under the lock) and safe to post-process
    on any thread afterwards — the shape :meth:`MetricsRegistry.snapshot`
    relies on, so it never holds the histogram lock while computing
    quantiles or serializing.  Windowed statistics come from subtracting
    two states' bucket ``counts``.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Tuple[float, ...], counts: List[int],
                 count: int, total: float, minimum: float, maximum: float):
        self.buckets = buckets
        self.counts = counts
        self.count = count
        self.sum = total
        self.min = minimum
        self.max = maximum

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """See :meth:`Histogram.quantile`; operates on the frozen copy."""
        return quantile_from_counts(
            self.buckets, self.counts, self.count, q,
            minimum=self.min, maximum=self.max,
        )

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }

    def nonzero_buckets(self) -> List[Tuple[str, int]]:
        """(upper-bound label, count) pairs for buckets that saw samples."""
        out: List[Tuple[str, int]] = []
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            label = (f"{self.buckets[index]:g}"
                     if index < len(self.buckets) else "+Inf")
            out.append((label, count))
        return out


def quantile_from_counts(
    buckets: Sequence[float],
    counts: Sequence[int],
    count: int,
    q: float,
    minimum: float = float("inf"),
    maximum: float = float("-inf"),
) -> float:
    """The q-quantile of a fixed-bucket distribution.

    Interpolates linearly within the bucket containing the q-th
    observation (rank position between the bucket's bounds) and clamps to
    the observed ``[min, max]``, so a reported p99 follows the measured
    tail, not the bucket grid — the bucket's upper bound alone overstates
    the quantile by up to a whole bucket width, a 2.5x error on the
    coarse log-spaced default buckets.
    Observations in the +Inf overflow bucket return ``maximum`` (there is
    no upper bound to lerp to).
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile {q} out of [0, 1]")
    if count == 0:
        return 0.0
    rank = max(1, int(q * count + 0.5))
    running = 0
    for index, bucket_count in enumerate(counts):
        running += bucket_count
        if running < rank:
            continue
        if index >= len(buckets):
            return maximum
        upper = buckets[index]
        lower = buckets[index - 1] if index > 0 else 0.0
        fraction = (rank - (running - bucket_count)) / bucket_count
        value = lower + fraction * (upper - lower)
        # The true samples never leave [min, max]; the lerp grid can.
        return min(max(value, minimum), maximum)
    return maximum


class Histogram(_Cell):
    """Fixed-bucket histogram (cumulative-style buckets, like Prometheus).

    ``buckets`` are inclusive upper bounds in ascending order, fixed per
    name by its first caller; observations above the last bound land in
    the implicit +Inf bucket.  Keeps count and sum exactly; quantiles are
    estimated from the buckets, linearly interpolated within the
    containing bucket.  Every read is of the merged series under the
    histogram's labels.
    """

    __slots__ = ("buckets", "counts", "_count", "_sum", "_min", "_max")
    _SECTION = "histograms"

    def __init__(self, name, labels, siblings, lock, buckets=None):
        super().__init__(name, labels, siblings, lock)
        self.buckets = (siblings[0].buckets if siblings
                        else _bucket_bounds(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def own(self) -> HistogramState:
        return HistogramState(self.buckets, list(self.counts), self._count,
                              self._sum, self._min, self._max)

    def merge(self, states) -> HistogramState:
        return HistogramState(
            self.buckets,
            [sum(column) for column in zip(*(s.counts for s in states))],
            sum(s.count for s in states), sum(s.sum for s in states),
            min(s.min for s in states), max(s.max for s in states),
        )

    @staticmethod
    def report(state: HistogramState) -> Dict[str, object]:
        return dict(state.summary(), buckets=state.nonzero_buckets())

    fields = report

    def state(self) -> HistogramState:
        """A consistent point-in-time copy of the raw bucket contents.

        The only histogram read that takes the lock; every derived
        statistic (quantiles, summary, export rows) is computed from the
        returned copy so writers are never blocked behind serialization.
        """
        return self._aggregate()

    @property
    def count(self) -> int:
        return self.state().count

    @property
    def sum(self) -> float:
        return self.state().sum

    def mean(self) -> float:
        return self.state().mean()

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) estimated from the buckets, see
        :func:`quantile_from_counts`."""
        return self.state().quantile(q)

    def summary(self) -> Dict[str, float]:
        return self.state().summary()

    def nonzero_buckets(self) -> List[Tuple[str, int]]:
        """(upper-bound label, count) pairs for buckets that saw samples."""
        return self.state().nonzero_buckets()


def _bucket_bounds(buckets: Optional[Sequence[float]]) -> Tuple[float, ...]:
    bounds = tuple(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS))
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ConfigurationError(
            "histogram buckets must be non-empty and strictly increasing"
        )
    return bounds


class CounterView:
    """One instance's own counters — ``obj.counters`` across the codebase.

    Names are relative to the view's prefix.  Each is a cell of its own in
    the registry's ``prefix + name`` series, so ``get`` / ``[name]`` /
    ``as_dict`` read this instance's counts alone while the registry's
    reads and exports include them.  Thread-safe: server workers and the
    event loop bump shared views.
    """

    __slots__ = ("_registry", "_prefix", "_cells", "_lock")

    def __init__(self, registry: "MetricsRegistry", prefix: str = ""):
        self._registry = registry
        self._prefix = prefix
        self._cells: Dict[str, Counter] = {}
        self._lock = registry._lock

    def increment(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counter increments must be non-negative")
        with self._lock:
            cell = self._cells.get(name)
            if cell is None:
                cell = self._cells[name] = self._registry._cell(
                    Counter, self._prefix + name)
            cell._value += amount

    def get(self, name: str) -> int:
        cell = self._cells.get(name)
        return 0 if cell is None else cell.own()

    __getitem__ = get

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {name: cell.own() for name, cell in self._cells.items()}


class MetricsRegistry:
    """Get-or-create registry of labelled series (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: Dict[str, List[_Cell]] = {}
        self._shared: Dict[Tuple[type, str, Labels], _Cell] = {}
        self._labels: Labels = frozenset()

    def labelled(self, **labels) -> "MetricsRegistry":
        """A registry over the same store whose writes also carry
        ``labels`` (a repeated key overrides) and whose reads aggregate
        only the series that carry them."""
        child = copy.copy(self)
        child._labels = frozenset({**dict(self._labels), **labels}.items())
        return child

    # -- instrument accessors -------------------------------------------------

    def _cell(self, kind: type, name: str,
              buckets: Optional[Sequence[float]] = None) -> _Cell:
        """A new cell of ``name`` under this registry's labels."""
        with self._lock:
            cells = self._families.setdefault(name, [])
            if cells and type(cells[0]) is not kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a "
                    f"{type(cells[0]).__name__.lower()}"
                )
            cell = kind(name, self._labels, cells, self._lock, buckets)
            cells.append(cell)
            return cell

    def _shared_cell(self, kind: type, name: str, buckets=None) -> _Cell:
        key = (kind, name, self._labels)
        with self._lock:
            cell = self._shared.get(key)
            if cell is None:
                cell = self._shared[key] = self._cell(kind, name, buckets)
            return cell

    def counter(self, name: str) -> Counter:
        return self._shared_cell(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._shared_cell(Gauge, name)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._shared_cell(Histogram, name, buckets)

    def counter_view(self, prefix: str = "") -> CounterView:
        """Cells of one instance's own, named ``prefix + name``."""
        return CounterView(self, prefix)

    # -- introspection / export ----------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A consistent point-in-time copy of every series.

        ``counters`` / ``gauges`` / ``histograms`` map each name to its
        total over the series under this registry's labels; ``labelled``
        holds one export row per labelled series (``kind``, ``name``,
        ``labels`` and the value fields).  Holds the registry lock only to
        copy primitive state; the merging, histogram summaries and the
        result dict are computed outside it, so a sampling loop calling
        this every interval never stalls the hot observation path.
        """
        with self._lock:
            copies = [
                (name, cells[0], [(cell.labels, cell.own()) for cell in cells
                                  if self._labels <= cell.labels])
                for name, cells in sorted(self._families.items()) if cells
            ]
        out: Dict[str, object] = {"counters": {}, "gauges": {},
                                  "histograms": {}, "labelled": []}
        for name, first, owned in copies:
            if not owned:
                continue
            total = first.merge([raw for _, raw in owned])
            out[first._SECTION][name] = first.report(total)
            by_labels: Dict[Labels, list] = {}
            for labels, raw in owned:
                if labels:
                    by_labels.setdefault(labels, []).append(raw)
            for labels in sorted(by_labels, key=sorted):
                out["labelled"].append(dict(
                    {"kind": type(first).__name__.lower(), "name": name,
                     "labels": dict(sorted(labels))},
                    **first.fields(first.merge(by_labels[labels])),
                ))
        return out

    def rows(self) -> Iterable[Dict[str, object]]:
        """One flat dict per name (the total), then one per labelled
        series — the JSONL export shape."""
        snap = self.snapshot()
        for name, value in snap["counters"].items():
            yield {"kind": "counter", "name": name, "value": value}
        for name, value in snap["gauges"].items():
            yield {"kind": "gauge", "name": name, "value": value}
        for name, summary in snap["histograms"].items():
            yield dict({"kind": "histogram", "name": name}, **summary)
        yield from snap["labelled"]


def registry_or_private(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """What a ``metrics=`` keyword means: the registry given, or a private
    one when it is None."""
    return MetricsRegistry() if metrics is None else metrics
