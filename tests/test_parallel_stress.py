"""Concurrency stress: client threads on one sharded façade + batch crypto.

The façade promises that any interleaving of client threads drives each
shard through a well-formed request sequence: pageMap/pageCache
invariants hold afterwards, every write is readable, and the aggregate
counters match a single-threaded run of the same operation multiset — the
interleaving may reorder work but must never lose or duplicate it.
"""

from __future__ import annotations

import threading

from repro.baselines import make_records
from repro.core.sharded import ShardedPirDatabase
from repro.crypto.rng import SecureRandom
from repro.crypto.suite import CipherSuite
from repro.obs.registry import MetricsRegistry

NUM_RECORDS = 80
NUM_SHARDS = 4
THREADS = 8
OPS_PER_THREAD = 12
RECORDS = make_records(NUM_RECORDS, 16)


def _make_db(metrics: MetricsRegistry, **options) -> ShardedPirDatabase:
    return ShardedPirDatabase.create(
        RECORDS,
        NUM_SHARDS,
        cache_capacity_per_shard=4,
        target_c=2.0,
        page_capacity=16,
        reserve_fraction=0.2,
        seed=99,
        metrics=metrics,
        **options,
    )


def _thread_ops(thread_id: int):
    """The operation list for one thread: queries plus thread-owned updates."""
    ops = []
    for i in range(OPS_PER_THREAD):
        ops.append(("query", (thread_id * 7 + i * 3) % NUM_RECORDS))
    # Each thread updates only ids it owns, so final values are deterministic
    # regardless of cross-thread interleaving.
    own = thread_id  # ids t, t+THREADS, ... belong to thread t
    ops.append(("update", own, f"owned-by-{thread_id}".encode()))
    ops.append(("update", own + THREADS, f"also-{thread_id}".encode()))
    return ops


def _apply(db: ShardedPirDatabase, op) -> None:
    if op[0] == "query":
        assert db.query(op[1]) is not None
    else:
        db.update(op[1], op[2])


class TestShardedFacadeStress:
    def test_client_threads_match_a_serial_run(self):
        metrics = MetricsRegistry()
        with _make_db(metrics) as db:
            errors = []

            def worker(thread_id: int) -> None:
                try:
                    for op in _thread_ops(thread_id):
                        _apply(db, op)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []

            # pageMap / pageCache invariants survived the interleaving.
            db.consistency_check()
            # Every thread's writes are durable and correctly routed.
            for t in range(THREADS):
                assert db.query(t) == f"owned-by-{t}".encode()
                assert db.query(t + THREADS) == f"also-{t}".encode()
            # Cover traffic kept shard loads equal under concurrency.
            assert len(set(db.shard_request_counts())) == 1

            threaded_snapshot = metrics.snapshot()["counters"]
            threaded_total = db.total_requests()

        # Serial reference: same operation multiset on one thread.
        serial_metrics = MetricsRegistry()
        with _make_db(serial_metrics) as ref:
            for t in range(THREADS):
                for op in _thread_ops(t):
                    _apply(ref, op)
            # The verification queries above, replayed for counter parity.
            for t in range(THREADS):
                assert ref.query(t) == f"owned-by-{t}".encode()
                assert ref.query(t + THREADS) == f"also-{t}".encode()
            ref.consistency_check()
            serial_snapshot = serial_metrics.snapshot()["counters"]
            assert threaded_total == ref.total_requests()

        # The registries agree on every work-counting metric.
        assert serial_snapshot
        for name, value in serial_snapshot.items():
            assert threaded_snapshot.get(name) == value, name


class TestFusedBatchStress:
    def test_threads_issuing_fused_batches(self):
        """Concurrent fused batches drive every shard through sane streams.

        Each thread submits whole batches through the fused
        one-disk-pass-per-window path (``ShardedPirDatabase.run_batch``).
        Batches from different threads interleave at batch granularity —
        the façade lock covers prescan, shard loop and routing commit —
        so invariants and thread-owned writes must survive any
        interleaving, exactly as with the per-op entry points.
        """
        from repro.core.engine import BatchOp

        metrics = MetricsRegistry()
        with _make_db(metrics) as db:
            errors = []

            def worker(thread_id: int) -> None:
                try:
                    batch = [
                        BatchOp("query",
                                page_id=(thread_id * 7 + i * 3) % NUM_RECORDS)
                        for i in range(OPS_PER_THREAD)
                    ]
                    batch.append(BatchOp(
                        "update", page_id=thread_id,
                        payload=f"owned-by-{thread_id}".encode()))
                    batch.append(BatchOp(
                        "update", page_id=thread_id + THREADS,
                        payload=f"also-{thread_id}".encode()))
                    results = db.run_batch(batch)
                    assert not any(
                        isinstance(item, Exception) for item in results
                    ), results
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []

            db.consistency_check()
            for t in range(THREADS):
                assert db.query(t) == f"owned-by-{t}".encode()
                assert db.query(t + THREADS) == f"also-{t}".encode()
            # Cover traffic kept the shard streams equal-length, and the
            # fused engine actually ran (each shard saw batched windows).
            assert len(set(db.shard_request_counts())) == 1
            for shard in db.shards:
                assert shard.engine.counters.get("batch.windows") > 0

    def test_fused_batches_interleaved_with_serial_ops(self):
        """Mixing run_batch and per-op calls from different threads is safe."""
        from repro.core.engine import BatchOp

        with _make_db(MetricsRegistry()) as db:
            errors = []

            def batch_worker(thread_id: int) -> None:
                try:
                    for round_ in range(3):
                        results = db.run_batch([
                            BatchOp("query",
                                    page_id=(thread_id + i * 5) % NUM_RECORDS)
                            for i in range(6)
                        ])
                        assert not any(
                            isinstance(item, Exception) for item in results
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            def serial_worker(thread_id: int) -> None:
                try:
                    for i in range(OPS_PER_THREAD):
                        db.query((thread_id * 11 + i) % NUM_RECORDS)
                    db.update(thread_id + 2 * THREADS,
                              f"serial-{thread_id}".encode())
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=batch_worker if t % 2 else serial_worker,
                    args=(t,))
                for t in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            db.consistency_check()
            for t in range(THREADS):
                if t % 2 == 0:
                    assert db.query(t + 2 * THREADS) == f"serial-{t}".encode()


class TestBatchCryptoStress:
    def test_thread_local_suites_stay_deterministic(self):
        """Concurrent batch crypto matches single-threaded reference bytes.

        Suites are documented single-threaded, so each thread owns one;
        the stress point is that nothing process-global (hashlib state,
        precomputed pads) bleeds between threads.
        """
        per_thread_frames = [None] * THREADS
        errors = []

        def worker(thread_id: int) -> None:
            try:
                suite = CipherSuite(
                    b"stress", backend="shake",
                    rng=SecureRandom(1000 + thread_id),
                )
                plaintexts = [
                    bytes([thread_id, i]) * 24 for i in range(16)
                ]
                frames = None
                for _ in range(20):
                    frames = suite.encrypt_pages(plaintexts)
                    assert suite.decrypt_pages(frames) == plaintexts
                per_thread_frames[thread_id] = frames
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        for thread_id in range(THREADS):
            reference = CipherSuite(
                b"stress", backend="shake",
                rng=SecureRandom(1000 + thread_id),
            )
            plaintexts = [bytes([thread_id, i]) * 24 for i in range(16)]
            expected = None
            for _ in range(20):
                expected = reference.encrypt_pages(plaintexts)
            assert per_thread_frames[thread_id] == expected
