"""Micro-benchmarks of the executed system's moving parts.

Not a paper artifact — engineering numbers for this implementation: query
throughput as a function of k, setup cost (direct vs oblivious shuffle),
and the two-party protocol overhead.

Besides the pytest-benchmark tests, this file is a script::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick --out run.jsonl

which runs a pinned-seed traced workload and writes the per-phase
breakdown as JSONL (meta line + one row per phase).  The CI perf gate
diffs such a run against ``benchmarks/results/perf_baseline.jsonl`` via
``benchmarks/compare_bench.py``.  ``--slow-phase decrypt:2.0`` injects a
synthetic busy-wait slowdown into one phase, used to demonstrate that the
gate actually fails on a regression.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from os import path
from typing import List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # script mode from a checkout without PYTHONPATH
    sys.path.insert(0, path.join(path.dirname(__file__), "..", "src"))

import pytest

from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.shuffle.oblivious import network_size
from repro.twoparty import TwoPartySession


@pytest.mark.parametrize("block_size", [2, 8, 32])
def test_query_throughput_vs_k(benchmark, block_size):
    db = PirDatabase.create(
        make_records(128, 16), cache_capacity=8, block_size=block_size,
        page_capacity=16, cipher_backend="shake", trace_enabled=False,
        seed=block_size,
    )
    counter = iter(range(10**9))

    def one_query():
        return db.query(next(counter) % 128)

    benchmark(one_query)


def test_setup_direct(benchmark):
    def build():
        return PirDatabase.create(
            make_records(256, 16), cache_capacity=8, block_size=8,
            page_capacity=16, trace_enabled=False, seed=1,
        )

    db = benchmark.pedantic(build, rounds=3, iterations=1)
    assert db.params.num_locations >= 256


def test_setup_oblivious(benchmark, report):
    def build():
        return PirDatabase.create(
            make_records(64, 16), cache_capacity=8, block_size=8,
            page_capacity=16, trace_enabled=False, seed=2,
            setup_mode="oblivious",
        )

    db = benchmark.pedantic(build, rounds=1, iterations=1)
    assert db.query(5) == make_records(64, 16)[5]
    report.line("oblivious setup cost (Batcher network compare-exchanges)")
    report.table(
        ["n", "comparators", "per-comparator disk ops"],
        [[db.params.num_locations, network_size(db.params.num_locations), 4]],
    )


def test_two_party_query(benchmark):
    session = TwoPartySession.create(
        make_records(96, 16), cache_capacity=8, block_size=8,
        page_capacity=16, seed=3,
    )
    counter = iter(range(10**9))

    def one_query():
        return session.query(next(counter) % 96)

    benchmark(one_query)


# ---------------------------------------------------------------------------
# Script mode: structured per-phase JSONL for the CI perf gate
# ---------------------------------------------------------------------------

#: Pinned workload shape — change it and the committed baseline together.
DEFAULT_SEED = 1234
DEFAULT_QUERIES = 400
QUICK_QUERIES = 120
_BENCH_PAGES = 128
_BENCH_BLOCK = 8
_BENCH_PAGE_SIZE = 64


def calibration_seconds() -> float:
    """Wall time of a fixed hashing workload (~10 MB of SHA-256).

    Recorded in the JSONL meta row so :mod:`compare_bench` can normalise
    wall times between machines of different speed: what is compared is
    each phase's wall time *relative to this machine's calibration*, not
    the raw seconds, so a baseline recorded on a fast runner still gates
    a slower one.
    """
    blob = b"\x5a" * 4096
    start = time.perf_counter()
    for _ in range(25_000):
        blob = hashlib.sha256(blob).digest() * 128  # back to 4096 bytes
    return time.perf_counter() - start


def run_phase_bench(
    queries: int,
    seed: int,
    slowdown: Optional[dict] = None,
):
    """Run the pinned traced workload; returns (tracer, database)."""
    from repro.core.journal import MemoryJournal
    from repro.hardware.specs import IBM_4764
    from repro.obs import Tracer

    tracer = Tracer()
    if slowdown:
        tracer.slowdown.update(slowdown)
    db = PirDatabase.create(
        make_records(_BENCH_PAGES, _BENCH_PAGE_SIZE),
        cache_capacity=8,
        block_size=_BENCH_BLOCK,
        page_capacity=_BENCH_PAGE_SIZE,
        cipher_backend="shake",
        trace_enabled=False,
        seed=seed,
        spec=IBM_4764,
        journal=MemoryJournal(),
        tracer=tracer,
    )
    for index in range(queries):
        db.query(index % _BENCH_PAGES)
    return tracer, db


def _parse_slow_phase(text: str) -> dict:
    try:
        name, factor = text.split(":", 1)
        return {name: float(factor)}
    except ValueError:
        raise SystemExit(
            f"--slow-phase expects NAME:FACTOR (e.g. decrypt:2.0), got {text!r}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs import phase_rows, write_jsonl

    parser = argparse.ArgumentParser(
        description="per-phase engine benchmark (JSONL for the CI perf gate)"
    )
    parser.add_argument("--quick", action="store_true",
                        help=f"run {QUICK_QUERIES} queries instead of "
                             f"{DEFAULT_QUERIES}")
    parser.add_argument("--queries", type=int, default=0,
                        help="explicit query count (overrides --quick)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--slow-phase", default="",
                        help="NAME:FACTOR synthetic slowdown drill "
                             "(e.g. decrypt:2.0)")
    parser.add_argument("--out", default="",
                        help="JSONL output path (default stdout)")
    args = parser.parse_args(argv)

    queries = args.queries or (QUICK_QUERIES if args.quick else DEFAULT_QUERIES)
    slowdown = _parse_slow_phase(args.slow_phase) if args.slow_phase else None
    calibration = calibration_seconds()
    tracer, db = run_phase_bench(queries, args.seed, slowdown)

    rows = [{
        "kind": "meta",
        "queries": queries,
        "seed": args.seed,
        "pages": _BENCH_PAGES,
        "block_size": db.params.block_size,
        "page_size": _BENCH_PAGE_SIZE,
        "calibration_s": calibration,
        "slow_phase": args.slow_phase,
    }]
    rows.extend(phase_rows(tracer))
    if args.out:
        written = write_jsonl(args.out, rows)
        print(f"wrote {written} rows ({queries} queries, "
              f"calibration {calibration:.4f}s) to {args.out}")
    else:
        import json

        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
