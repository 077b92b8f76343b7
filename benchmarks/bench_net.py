"""Network serving stack benchmark — sustained qps, shed rate, drain.

Exercises the ``repro.net`` stack end to end on localhost:

* **net.serial** — one blocking :class:`~repro.net.client.NetworkClient`
  drives a pinned query stream through a real TCP socket.  Counts, reply
  bytes and the engine's virtual seconds are deterministic under the
  pinned seed, so tier-1 checks them exactly.
* **net.concurrent** — 8 client threads, one blocking ``NetworkClient``
  each, issue a fixed workload concurrently.  Counts/bytes stay
  deterministic (fixed message sizes, no shedding); virtual seconds are
  reported as 0.0 because concurrent arrival order is scheduler-dependent.
* **net.shed** — the same fleet against a deliberately undersized
  token bucket.  The run *fails* unless backpressure engages (nonzero
  shed) and every shed surfaced as a retryable refusal, not an error.

Each phase gets a fresh seeded database/server; after every phase the
server drains gracefully and the run asserts no request was lost or
double-applied (engine request count == successfully answered requests)
and every session was closed.

``tests/test_perf_gate.py`` asserts the three phases' exact columns in
tier-1; wall seconds and the shed split are returned for the reader, never
compared.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.hardware.specs import IBM_4764
from repro.errors import DegradedServiceError
from repro.net import (
    AdmissionController,
    NetworkClient,
    PirServer,
    ServerThread,
    TokenBucket,
)
from repro.service.frontend import QueryFrontend

#: Pinned workload shape — change it and the expected rows in
#: tests/test_perf_gate.py together.
DEFAULT_SEED = 977
QUERIES = 64
_BENCH_RECORDS = 64
_BENCH_PAGE_SIZE = 64
_BENCH_CACHE = 8
_CLIENTS = 8
_SHED_ATTEMPTS_PER_CLIENT = 3
_SHED_RATE = 1.0       # tokens/second — deliberately undersized
_SHED_CAPACITY = 2.0   # burst of two, then everything sheds


class _Deployment:
    """A fresh seeded database served over loopback TCP."""

    def __init__(self, seed: int, admission: Optional[AdmissionController] = None):
        self.db = PirDatabase.create(
            make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE),
            cache_capacity=_BENCH_CACHE,
            target_c=2.0,
            page_capacity=_BENCH_PAGE_SIZE,
            seed=seed,
            spec=IBM_4764,  # real timing model → nonzero virtual seconds
            cipher_backend="shake",
            trace_enabled=False,
        )
        self.frontend = QueryFrontend(self.db)
        self.server = PirServer(self.frontend, admission=admission)
        self.handle = ServerThread(self.server)

    def __enter__(self) -> "_Deployment":
        self.handle.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.handle.drain()
        assert self.frontend.session_count == 0, "sessions leaked past drain"
        self.db.close()


def run_serial(queries: int, seed: int):
    """Pinned single-client stream; returns (count, bytes, virtual_s, wall)."""
    expected = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)
    with _Deployment(seed) as deployment:
        client = NetworkClient(deployment.handle.host,
                               deployment.handle.port)
        virtual_start = deployment.db.clock.now
        reply_bytes = 0
        start = time.perf_counter()
        for index in range(queries):
            page_id = index % _BENCH_RECORDS
            payload = client.query(page_id)
            assert payload == expected[page_id], "reply bytes diverged"
            reply_bytes += len(payload)
        wall = time.perf_counter() - start
        virtual = deployment.db.clock.now - virtual_start
        client.close()
        served = deployment.db.engine.request_count
        assert served == queries, (
            f"engine served {served} requests for {queries} queries "
            "(lost or double-applied)"
        )
    return queries, reply_bytes, virtual, wall


def _drive_clients(host, port, per_client, seed) -> dict:
    """``_CLIENTS`` threads of blocking clients; returns ok / shed / bytes.

    No retry policy: a shed surfaces as ``DegradedServiceError`` and is
    counted, never ridden out — the shed split is what net.shed measures.
    """
    expected = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)

    def one(index: int) -> dict:
        stats = {"ok": 0, "shed": 0, "bytes": 0}
        with NetworkClient(host, port, rng_seed=seed + index) as client:
            for step in range(per_client):
                page_id = (index * per_client + step) % _BENCH_RECORDS
                try:
                    payload = client.query(page_id)
                except DegradedServiceError:
                    stats["shed"] += 1
                    continue
                assert payload == expected[page_id], "reply bytes diverged"
                stats["ok"] += 1
                stats["bytes"] += len(payload)
        return stats

    with ThreadPoolExecutor(max_workers=_CLIENTS) as pool:
        # Reading every result re-raises a client's protocol error here.
        per_thread = list(pool.map(one, range(_CLIENTS)))
    return {key: sum(stats[key] for stats in per_thread)
            for key in ("ok", "shed", "bytes")}


def run_concurrent(queries: int, seed: int):
    """8-client concurrent stream; returns (count, bytes, wall)."""
    per_client = queries // _CLIENTS
    with _Deployment(seed) as deployment:
        start = time.perf_counter()
        stats = _drive_clients(deployment.handle.host,
                               deployment.handle.port, per_client, seed)
        wall = time.perf_counter() - start
        served = deployment.db.engine.request_count
    total = per_client * _CLIENTS
    assert stats["shed"] == 0, "unexpected shed without admission control"
    assert stats["ok"] == total, (
        f"{stats['ok']}/{total} requests completed"
    )
    assert served == total, (
        f"engine served {served} requests for {total} queries"
    )
    return total, stats["bytes"], wall


def run_shed(seed: int):
    """Undersized token bucket; returns (attempts, ok, shed, wall)."""
    admission = AdmissionController(
        bucket=TokenBucket(rate=_SHED_RATE, capacity=_SHED_CAPACITY),
    )
    with _Deployment(seed, admission=admission) as deployment:
        start = time.perf_counter()
        stats = _drive_clients(deployment.handle.host,
                               deployment.handle.port,
                               _SHED_ATTEMPTS_PER_CLIENT, seed)
        wall = time.perf_counter() - start
        served = deployment.db.engine.request_count
    attempts = _CLIENTS * _SHED_ATTEMPTS_PER_CLIENT
    assert stats["ok"] + stats["shed"] == attempts, (
        "a request was neither answered nor shed"
    )
    assert stats["shed"] > 0, (
        "undersized token bucket never engaged backpressure"
    )
    assert served == stats["ok"], (
        f"engine served {served} but only {stats['ok']} replies delivered"
    )
    assert admission.counters.get("shed") == stats["shed"], (
        "client-observed sheds disagree with the server's shed counter"
    )
    return attempts, stats["ok"], stats["shed"], wall


# ---------------------------------------------------------------------------
# Pytest checks (collected with the benchmark suite)
# ---------------------------------------------------------------------------


def test_serial_stream_exact_and_clean():
    count, nbytes, virtual, _wall = run_serial(QUERIES, DEFAULT_SEED)
    assert count == QUERIES
    assert nbytes == QUERIES * _BENCH_PAGE_SIZE
    assert virtual > 0.0


def test_concurrent_clients_zero_errors():
    count, nbytes, _wall = run_concurrent(QUERIES, DEFAULT_SEED)
    assert count == QUERIES
    assert nbytes == QUERIES * _BENCH_PAGE_SIZE


def test_undersized_bucket_sheds():
    attempts, ok, shed, _wall = run_shed(DEFAULT_SEED)
    assert attempts == _CLIENTS * _SHED_ATTEMPTS_PER_CLIENT
    assert shed > 0 and ok + shed == attempts
