"""Workload trace files: persist, load, and replay request streams.

Experiments gain reproducibility when the exact request sequence is an
artifact: generators write JSONL traces, benches replay them, and different
schemes can be compared on byte-identical workloads.  Format (one JSON
object per line)::

    {"op": "query",  "page": 17}
    {"op": "update", "page": 3, "payload": "<hex>"}
    {"op": "insert", "payload": "<hex>"}
    {"op": "delete", "page": 9}
"""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence

from .generators import Operation
from ..core.database import PirDatabase
from ..errors import (
    CapacityError,
    ConfigurationError,
    PageDeletedError,
    PageNotFoundError,
)
from ..obs.registry import CounterView, MetricsRegistry

__all__ = ["save_trace", "load_trace", "replay_trace", "queries_as_operations"]


def queries_as_operations(page_ids: Sequence[int]) -> List[Operation]:
    """Wrap a plain request stream as query operations."""
    return [Operation("query", page_id) for page_id in page_ids]


def save_trace(path: str, operations: Iterable[Operation]) -> int:
    """Write operations as JSONL; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for op in operations:
            record = {"op": op.kind}
            if op.page_id is not None:
                record["page"] = op.page_id
            if op.payload is not None:
                record["payload"] = op.payload.hex()
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def load_trace(path: str) -> List[Operation]:
    """Parse a JSONL trace; malformed lines raise :class:`ConfigurationError`."""
    operations: List[Operation] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{line_number}: invalid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict) or "op" not in record:
                raise ConfigurationError(
                    f"{path}:{line_number}: each line needs an 'op' field"
                )
            payload = record.get("payload")
            try:
                operations.append(
                    Operation(
                        record["op"],
                        record.get("page"),
                        bytes.fromhex(payload) if payload is not None else None,
                    )
                )
            except (ConfigurationError, ValueError) as exc:
                raise ConfigurationError(
                    f"{path}:{line_number}: {exc}"
                ) from exc
    return operations


def replay_trace(db: PirDatabase, operations: Sequence[Operation]) -> CounterView:
    """Apply a trace to a database; returns per-outcome counters.

    Individual operation failures that a live workload would also hit
    (querying a deleted page, exhausting the insert reserve, double
    deletes) are counted rather than raised, so traces recorded against one
    database state replay cleanly against another.
    """
    counters = MetricsRegistry().counter_view()
    for op in operations:
        try:
            if op.kind == "query":
                db.query(op.page_id)
            elif op.kind == "update":
                db.update(op.page_id, op.payload or b"")
            elif op.kind == "insert":
                db.insert(op.payload or b"")
            elif op.kind == "delete":
                db.delete(op.page_id)
            counters.increment(op.kind)
        except (PageDeletedError, PageNotFoundError, CapacityError):
            counters.increment(f"{op.kind}_failed")
    return counters
