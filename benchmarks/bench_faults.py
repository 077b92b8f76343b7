"""Robustness cost: journaled write-back overhead and retry-under-fault latency.

Not a paper artifact — engineering numbers for this implementation's
fault-tolerance layer.  The headline acceptance number is the *journaled
write-back overhead*: charging every request an extra sealed intent-record
write (modelled as one contiguous NVRAM/disk write of the record size) must
stay under 2x the unjournaled per-request virtual cost.
"""

from __future__ import annotations

import time

from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.core.journal import MemoryJournal
from repro.faults import FaultInjector, FlakyChannel, drop_messages
from repro.faults.retry import RetryPolicy
from repro.hardware.specs import IBM_4764
from repro.service import QueryFrontend, ServiceClient
from repro.analysis.stats import LatencySeries

NUM_RECORDS = 64
NUM_REQUESTS = 200


def _make_db(seed: int, **options) -> PirDatabase:
    # The IBM 4764 spec (not the zero-cost default) so virtual time is real.
    return PirDatabase.create(
        make_records(NUM_RECORDS, 16), cache_capacity=8, block_size=8,
        page_capacity=16, cipher_backend="shake", trace_enabled=False,
        seed=seed, spec=IBM_4764, **options,
    )


def _run_requests(db: PirDatabase) -> None:
    for step in range(NUM_REQUESTS):
        db.query((step * 7) % NUM_RECORDS)


def test_journaled_writeback_overhead(report):
    """Virtual + wall per-request cost, journal off vs on (< 2x required)."""
    rows = []
    per_request = {}
    for label, journaled in (("unjournaled", False), ("journaled", True)):
        db = _make_db(seed=11)
        if journaled:
            # The journal charges virtual time like a contiguous disk write,
            # so the comparison prices durability honestly.
            db.engine.journal = MemoryJournal(
                clock=db.clock, timing=db.cop.spec.disk
            )
        virtual_start = db.clock.now
        wall_start = time.perf_counter()
        _run_requests(db)
        wall = (time.perf_counter() - wall_start) / NUM_REQUESTS
        virtual = (db.clock.now - virtual_start) / NUM_REQUESTS
        per_request[label] = (virtual, wall)
        rows.append([label, virtual * 1e3, wall * 1e3])

    virtual_ratio = per_request["journaled"][0] / per_request["unjournaled"][0]
    wall_ratio = per_request["journaled"][1] / per_request["unjournaled"][1]
    report.line(f"journaled write-back overhead over {NUM_REQUESTS} queries "
                f"(k={_make_db(seed=11).params.block_size})")
    report.table(["mode", "virtual ms/req", "wall ms/req"], rows,
                 terminal_only=["wall ms/req"])
    report.line(f"virtual overhead: {virtual_ratio:.3f}x   (budget: < 2x)")
    report.note(f"wall overhead: {wall_ratio:.3f}x")
    assert virtual_ratio < 2.0, (
        f"journaled write-back costs {virtual_ratio:.2f}x virtual time"
    )


def test_retry_latency_under_channel_faults(report):
    """Client-observed latency as the channel drop rate rises."""
    rows = []
    for drop_rate in (0.0, 0.05, 0.2):
        db = _make_db(seed=23)
        frontend = QueryFrontend(db)
        injector = FaultInjector(
            41, [drop_messages(probability=drop_rate, times=None)]
        )
        client = ServiceClient(
            frontend,
            retry=RetryPolicy(max_attempts=6, base_delay=0.01),
            channel_wrapper=lambda ch: FlakyChannel(ch, injector),
        )
        observed = LatencySeries()
        for step in range(NUM_REQUESTS):
            started = client.channel.clock.now
            client.query((step * 5) % NUM_RECORDS)
            observed.record(client.channel.clock.now - started)
        stats = observed.summary()
        rows.append([
            f"{drop_rate:.0%}",
            client.counters.get("retries"),
            stats["mean"] * 1e3,
            stats["p99"] * 1e3,
            stats["max"] * 1e3,
        ])

    report.line(f"client retry behaviour over {NUM_REQUESTS} queries per "
                "drop rate (virtual time; backoff base 10 ms)")
    report.table(
        ["drop rate", "retries", "mean ms", "p99 ms", "max ms"], rows
    )


def test_crash_recovery_cost(report):
    """Virtual cost of replaying one torn write-back from the journal."""
    from repro.faults import FaultyDiskStore, SimulatedCrash, crash_after_writes
    from repro.storage.disk import DiskStore

    injector = FaultInjector(0, [])
    db = _make_db(
        seed=31, journal=MemoryJournal(),
        disk_factory=lambda n, f, t, c, tr: FaultyDiskStore(
            DiskStore(n, f, t, c, tr), injector
        ),
    )
    baseline_start = db.clock.now
    db.query(1)
    request_cost = db.clock.now - baseline_start

    k = db.params.block_size
    injector.add(crash_after_writes(
        injector.frames_seen("disk.write") + (k + 1) // 2
    ))
    try:
        db.query(2)
        raise AssertionError("crash plan did not fire")
    except SimulatedCrash:
        pass
    recovery_start = db.clock.now
    wall_start = time.perf_counter()
    outcome = db.recover()
    recovery_wall = time.perf_counter() - wall_start
    recovery_cost = db.clock.now - recovery_start
    assert outcome.action == "replayed"
    db.consistency_check()

    report.line("crash recovery: replay one torn (k+1)-frame write-back")
    report.table(
        ["metric", "value"],
        [
            ["normal request virtual ms", request_cost * 1e3],
            ["recovery virtual ms", recovery_cost * 1e3],
            ["recovery / request", recovery_cost / request_cost],
        ],
    )
    report.note(f"recovery wall ms: {recovery_wall * 1e3:.4g}")
