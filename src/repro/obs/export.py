"""JSONL import/export for traces, metrics and Eq. 8 check rows.

One JSON object per line, every line carrying a ``kind`` discriminator
(``meta`` | ``phase`` | ``span`` | ``counter`` | ``gauge`` | ``histogram``
| ``costcheck``, one :meth:`repro.plan.CalibratedCostModel.check` row per
phase), so one file can hold a whole run's observability output
and consumers can filter by kind.  ``python -m repro metrics --out`` writes
it; ``python -m repro plan --obs`` reads it back.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from .registry import MetricsRegistry
from .tracer import Tracer
from ..errors import ConfigurationError

__all__ = [
    "phase_rows",
    "span_rows",
    "run_rows",
    "write_jsonl",
    "read_jsonl",
    "rows_by_kind",
]


def phase_rows(tracer: Tracer) -> List[Dict[str, object]]:
    """One ``phase`` row per span name with count/wall/virtual/byte totals."""
    return [
        dict({"kind": "phase", "name": name}, **total.as_dict())
        for name, total in sorted(tracer.phase_totals().items())
    ]


def span_rows(tracer: Tracer) -> List[Dict[str, object]]:
    """One ``span`` row per retained raw span, in completion order."""
    return [dict({"kind": "span"}, **span.as_dict()) for span in tracer.spans]


def run_rows(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, object]] = None,
    spans: bool = False,
) -> List[Dict[str, object]]:
    """Assemble a full run export: meta line, phases, metrics, raw spans."""
    rows: List[Dict[str, object]] = []
    if meta is not None:
        rows.append(dict({"kind": "meta"}, **meta))
    if tracer is not None:
        rows.extend(phase_rows(tracer))
        if spans:
            rows.extend(span_rows(tracer))
    if registry is not None:
        rows.extend(registry.rows())
    return rows


def write_jsonl(path: str, rows: Iterable[Dict[str, object]]) -> int:
    """Write rows to ``path``; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a JSONL file, skipping blank lines; raises on malformed JSON."""
    rows: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{number}: malformed JSONL ({exc})"
                ) from exc
    return rows


def rows_by_kind(
    rows: Iterable[Dict[str, object]], kind: str
) -> List[Dict[str, object]]:
    """Filter loaded rows down to one ``kind``."""
    return [row for row in rows if row.get("kind") == kind]
