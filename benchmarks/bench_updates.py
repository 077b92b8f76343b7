"""§4.3 — database updates are trace-indistinguishable from queries.

Runs each operation type through the executed engine and prints the
observable per-request footprint; all rows must be identical.  Also
benchmarks a mixed workload's throughput.
"""

from __future__ import annotations

from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.crypto.rng import SecureRandom
from repro.errors import CapacityError, PageDeletedError, PageNotFoundError
from repro.storage.trace import shapes_identical
from repro.workload import operation_stream


def _db(seed=1):
    return PirDatabase.create(
        make_records(64, 16), cache_capacity=8, target_c=2.0,
        page_capacity=16, reserve_fraction=0.25, seed=seed,
    )


def test_operation_trace_footprints(report, benchmark):
    db = _db()
    operations = [
        ("query (miss)", lambda: db.query(1)),
        ("query (hit)", lambda: db.query(1)),
        ("modify", lambda: db.update(2, b"new")),
        ("insert", lambda: db.insert(b"fresh")),
        ("delete", lambda: db.delete(3)),
        ("dummy touch", lambda: db.touch()),
    ]
    rows = []
    for label, operation in operations:
        operation()
        request = db.engine.request_count - 1
        shape = db.trace.request_shape(request)
        rows.append([label] + [f"{op}:{count}" for op, count in shape])
    benchmark(lambda: db.touch())
    report.line("observable disk footprint per operation type (§4.3)")
    report.table(["operation", "access 1", "access 2", "access 3", "access 4"],
                 rows)
    footprints = {tuple(row[1:]) for row in rows}
    assert len(footprints) == 1, "operation types must be indistinguishable"
    assert shapes_identical(db.trace, 0)


def test_mixed_workload_throughput(report, benchmark):
    db = _db(seed=2)
    rng = SecureRandom(9)
    operations = operation_stream(db.num_pages, 50, rng)

    def run_batch():
        for op in operations:
            try:
                if op.kind == "query":
                    db.query(op.page_id)
                elif op.kind == "update":
                    db.update(op.page_id, op.payload)
                elif op.kind == "insert":
                    db.insert(op.payload)
                else:
                    db.delete(op.page_id)
            except (PageDeletedError, PageNotFoundError, CapacityError):
                pass  # generator races against its own deletes; expected

    benchmark.pedantic(run_batch, rounds=3, iterations=1)
    db.consistency_check()
    per_request = db.clock.now  # instantaneous spec: 0; wall time in bench
    report.line("mixed workload (70/20/5/5 query/update/insert/delete)")
    report.table(
        ["requests executed", "trace uniform"],
        [[db.engine.request_count, shapes_identical(db.trace, 0)]],
        terminal_only=["requests executed"],  # scales with benchmark rounds
    )
    assert shapes_identical(db.trace, 0)
    assert per_request == 0.0
