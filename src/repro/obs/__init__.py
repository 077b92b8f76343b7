"""repro.obs — dependency-light observability for the query path.

Two pieces (DESIGN.md §9):

* :class:`~repro.obs.tracer.Tracer` — nested, low-overhead spans for the
  canonical query phases, with a no-op fast path when disabled and dual
  wall/virtual timing;
* :class:`~repro.obs.registry.MetricsRegistry` — the thread-safe, one
  home of every counter, gauge and fixed-bucket histogram: series carry
  labels fixed at wiring (``member=``, ``shard=``), and each instance's
  ``.counters`` is a :class:`~repro.obs.registry.CounterView` onto cells
  of its own.

Plus JSONL export (:mod:`repro.obs.export`): ``python -m repro metrics``
writes it, the planner's ``--obs`` calibration reads it.  A traced run is
held against Eq. 8 by the planner's model,
:meth:`repro.plan.CalibratedCostModel.check`.
"""

from .export import (
    phase_rows,
    read_jsonl,
    rows_by_kind,
    run_rows,
    span_rows,
    write_jsonl,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterView,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_or_private,
)
from .tracer import (
    DETAIL_FINE,
    DETAIL_PHASE,
    NULL_TRACER,
    PhaseTotal,
    Span,
    Tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "PhaseTotal",
    "NULL_TRACER",
    "DETAIL_PHASE",
    "DETAIL_FINE",
    "MetricsRegistry",
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "registry_or_private",
    "phase_rows",
    "span_rows",
    "run_rows",
    "write_jsonl",
    "read_jsonl",
    "rows_by_kind",
]
