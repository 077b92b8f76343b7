"""Micro-benchmarks of the executed system's moving parts.

Not a paper artifact — engineering numbers for this implementation: query
throughput as a function of k, setup cost (direct vs oblivious shuffle),
and the two-party protocol overhead.

``run_phase_bench`` is the pinned-seed traced workload whose per-phase
count / bytes / virtual-second / error totals ``tests/test_perf_gate.py``
asserts exactly in tier-1.
"""

from __future__ import annotations

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
            page_capacity=16, seed=2, setup_mode="oblivious",
        )

    db = benchmark.pedantic(build, rounds=1, iterations=1)
    n = db.params.num_locations
    comparators = network_size(n)
    # The trace after the identity-layout upload (one write) is the epoch's.
    epoch_ops = len(db.trace.events) - 1
    assert db.query(5) == make_records(64, 16)[5]
    report.line("oblivious setup cost (one foreground reshuffle epoch: "
                "Batcher network compare-exchanges, then a sweep of n)")
    report.table(
        ["n", "comparators", "epoch units", "disk ops", "disk ops per unit"],
        [[n, comparators, comparators + n, epoch_ops,
          epoch_ops / (comparators + n)]],
    )


def test_two_party_query(benchmark):
    session = TwoPartySession.create(
        make_records(96, 16), cache_capacity=8, block_size=8,
        page_capacity=16, seed=3,
    )
    counter = iter(range(10**9))

    def one_query():
        return session.owner.query(next(counter) % 96)

    benchmark(one_query)


#: Pinned workload shape — change it and the expected rows in
#: tests/test_perf_gate.py together.
DEFAULT_SEED = 1234
QUERIES = 120
_BENCH_PAGES = 128
_BENCH_BLOCK = 8
_BENCH_PAGE_SIZE = 64


def run_phase_bench(queries: int, seed: int):
    """Run the pinned traced workload; returns (tracer, database)."""
    from repro.core.journal import MemoryJournal
    from repro.hardware.specs import IBM_4764
    from repro.obs import Tracer

    tracer = Tracer()
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
