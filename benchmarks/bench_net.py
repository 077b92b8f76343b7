"""Network serving stack benchmark — sustained qps, shed rate, drain.

Exercises the ``repro.net`` stack end to end on localhost:

* **net.serial** — one blocking :class:`~repro.net.client.NetworkClient`
  drives a pinned query stream through a real TCP socket.  Counts, reply
  bytes and the engine's virtual seconds are deterministic under the
  pinned seed, so the perf gate checks them exactly.
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

Besides the pytest checks, this file is a script::

    PYTHONPATH=src python benchmarks/bench_net.py --out run.jsonl

emitting the exact lane JSONL (``benchmarks/lane.py``) diffed by
``compare_bench.py`` against ``benchmarks/results/perf_baseline_net.jsonl``;
wall seconds, qps and the shed split are printed, not written.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import lane  # first: puts src/ on sys.path for a run without PYTHONPATH

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
from repro.service.frontend import SESSION_RANDOM, QueryFrontend

#: Pinned workload shape — change it and the committed baseline together.
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
        self.frontend = QueryFrontend(self.db,
                                      session_id_mode=SESSION_RANDOM)
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
    count, nbytes, virtual, _wall = run_serial(12, DEFAULT_SEED)
    assert count == 12
    assert nbytes == 12 * _BENCH_PAGE_SIZE
    assert virtual > 0.0


def test_concurrent_clients_zero_errors():
    count, nbytes, _wall = run_concurrent(16, DEFAULT_SEED)
    assert count == 16
    assert nbytes == 16 * _BENCH_PAGE_SIZE


def test_undersized_bucket_sheds():
    attempts, ok, shed, _wall = run_shed(DEFAULT_SEED)
    assert attempts == _CLIENTS * _SHED_ATTEMPTS_PER_CLIENT
    assert shed > 0 and ok + shed == attempts


# ---------------------------------------------------------------------------
# Script mode: exact JSONL for the CI perf gate
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    from repro.core.params import SystemParameters

    parser = lane.parser("network serving benchmark", DEFAULT_SEED)
    parser.add_argument("--queries", type=int, default=QUERIES,
                        help=f"query count, a multiple of {_CLIENTS} (the "
                             "committed baseline was recorded at the default)")
    args = parser.parse_args(argv)
    if args.queries % _CLIENTS:
        print(f"error: --queries must be a multiple of {_CLIENTS}",
              file=sys.stderr)
        return 2

    serial_count, serial_bytes, serial_virtual, serial_wall = run_serial(
        args.queries, args.seed
    )
    conc_count, conc_bytes, conc_wall = run_concurrent(args.queries, args.seed)
    attempts, _shed_ok, shed, shed_wall = run_shed(args.seed)

    # block_size is a pure function of (pages, cache, c); derive it the
    # same way the deployment does so the meta row is comparable.
    block_size = SystemParameters.solve(
        _BENCH_RECORDS, _BENCH_CACHE, 2.0, page_capacity=_BENCH_PAGE_SIZE,
    ).block_size
    rows = [
        lane.meta_row(args.queries, args.seed, _BENCH_RECORDS, block_size,
                      _BENCH_PAGE_SIZE, clients=_CLIENTS,
                      shed_attempts=attempts),
        lane.phase_row("net.serial", serial_count, serial_bytes,
                       serial_virtual),
        lane.phase_row("net.concurrent", conc_count, conc_bytes, 0.0),
        lane.phase_row("net.shed", attempts, 0, 0.0),
    ]
    qps = conc_count / conc_wall if conc_wall > 0 else 0.0
    return lane.emit(
        rows, args.out,
        f"serial {serial_wall * 1e3:.1f} ms, {qps:.0f} qps over {_CLIENTS} "
        f"clients ({conc_wall * 1e3:.1f} ms), {shed}/{attempts} shed under "
        f"the undersized bucket ({shed_wall * 1e3:.1f} ms)",
    )


if __name__ == "__main__":
    sys.exit(main())
