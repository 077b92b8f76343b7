"""Network serving stack benchmark — sustained qps, shed rate, drain.

Exercises the ``repro.net`` stack end to end on localhost:

* **net.serial** — one blocking :class:`~repro.net.client.NetworkClient`
  drives a pinned query stream through a real TCP socket.  Counts, reply
  bytes and the engine's virtual seconds are deterministic under the
  pinned seed, so the perf gate checks them exactly; wall time is
  calibration-normalised with a loose threshold (sockets + scheduler).
* **net.concurrent** — 8 async clients issue a fixed workload
  concurrently.  Counts/bytes stay deterministic (fixed message sizes,
  no shedding); virtual seconds are reported as 0.0 because concurrent
  arrival order is scheduler-dependent.
* **net.shed** — the same async fleet against a deliberately undersized
  token bucket.  The run *fails* unless backpressure engages (nonzero
  shed) and every shed surfaced as a retryable refusal, not an error.

Each phase gets a fresh seeded database/server; after every phase the
server drains gracefully and the run asserts no request was lost or
double-applied (engine request count == successfully answered requests)
and every session was closed.

Besides the pytest checks, this file is a script::

    PYTHONPATH=src python benchmarks/bench_net.py --quick --out run.jsonl

emitting the perf-gate JSONL layout diffed by ``compare_bench.py``
against ``benchmarks/results/perf_baseline_net.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from os import path
from typing import List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # script mode from a checkout without PYTHONPATH
    sys.path.insert(0, path.join(path.dirname(__file__), "..", "src"))

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
from repro.net.client import AsyncNetworkClient
from repro.service.frontend import SESSION_RANDOM, QueryFrontend

#: Pinned workload shape — change it and the committed baseline together.
DEFAULT_SEED = 977
DEFAULT_QUERIES = 160
QUICK_QUERIES = 64
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


async def _drive_clients(host, port, per_client, seed, stats):
    expected = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)

    async def one(index: int) -> None:
        client = await AsyncNetworkClient.connect(host, port,
                                                  rng_seed=seed + index)
        try:
            for step in range(per_client):
                page_id = (index * per_client + step) % _BENCH_RECORDS
                try:
                    payload = await client.query(page_id)
                except DegradedServiceError:
                    stats["shed"] += 1
                    continue
                assert payload == expected[page_id], "reply bytes diverged"
                stats["ok"] += 1
                stats["bytes"] += len(payload)
        finally:
            await client.close()

    await asyncio.gather(*(one(index) for index in range(_CLIENTS)))


def run_concurrent(queries: int, seed: int):
    """8-client concurrent stream; returns (count, bytes, wall)."""
    per_client = queries // _CLIENTS
    stats = {"ok": 0, "shed": 0, "bytes": 0}
    with _Deployment(seed) as deployment:
        start = time.perf_counter()
        asyncio.run(_drive_clients(deployment.handle.host,
                                   deployment.handle.port,
                                   per_client, seed, stats))
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
    stats = {"ok": 0, "shed": 0, "bytes": 0}
    with _Deployment(seed, admission=admission) as deployment:
        start = time.perf_counter()
        asyncio.run(_drive_clients(deployment.handle.host,
                                   deployment.handle.port,
                                   _SHED_ATTEMPTS_PER_CLIENT, seed, stats))
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
# Script mode: structured JSONL for the CI perf gate
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    try:
        from bench_engine import calibration_seconds  # script mode
    except ImportError:
        from benchmarks.bench_engine import calibration_seconds
    from repro.obs import write_jsonl

    parser = argparse.ArgumentParser(
        description="network serving benchmark (JSONL for the CI perf gate)"
    )
    parser.add_argument("--quick", action="store_true",
                        help=f"run {QUICK_QUERIES} queries instead of "
                             f"{DEFAULT_QUERIES}")
    parser.add_argument("--queries", type=int, default=0,
                        help="explicit query count (overrides --quick); "
                             f"must be a multiple of {_CLIENTS}")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default="",
                        help="JSONL output path (default stdout)")
    args = parser.parse_args(argv)

    queries = args.queries or (QUICK_QUERIES if args.quick else DEFAULT_QUERIES)
    if queries % _CLIENTS:
        print(f"error: --queries must be a multiple of {_CLIENTS}",
              file=sys.stderr)
        return 2
    calibration = calibration_seconds()

    serial_count, serial_bytes, serial_virtual, serial_wall = run_serial(
        queries, args.seed
    )
    conc_count, conc_bytes, conc_wall = run_concurrent(queries, args.seed)
    attempts, shed_ok, shed, shed_wall = run_shed(args.seed)

    qps = conc_count / conc_wall if conc_wall > 0 else 0.0
    rows = [{
        "kind": "meta",
        "queries": queries,
        "seed": args.seed,
        "pages": _BENCH_RECORDS,
        "block_size": None,  # filled below from the serial deployment
        "page_size": _BENCH_PAGE_SIZE,
        "clients": _CLIENTS,
        "calibration_s": calibration,
        # Informational (not gated): shed split and throughput depend on
        # real-time token refill and scheduling.
        "shed": shed,
        "shed_attempts": attempts,
        "sustained_qps": qps,
    }]
    rows.append({
        "kind": "phase", "name": "net.serial",
        "count": serial_count, "bytes": serial_bytes,
        "virtual_s": serial_virtual, "wall_s": serial_wall,
    })
    rows.append({
        "kind": "phase", "name": "net.concurrent",
        "count": conc_count, "bytes": conc_bytes,
        "virtual_s": 0.0, "wall_s": conc_wall,
    })
    rows.append({
        "kind": "phase", "name": "net.shed",
        "count": attempts, "bytes": 0,
        "virtual_s": 0.0, "wall_s": shed_wall,
    })

    # block_size is a pure function of (pages, cache, c); derive it the
    # same way the deployment does so the meta row is comparable.
    from repro.core.params import SystemParameters

    rows[0]["block_size"] = SystemParameters.solve(
        _BENCH_RECORDS, _BENCH_CACHE, 2.0,
        page_capacity=_BENCH_PAGE_SIZE,
    ).block_size

    if args.out:
        written = write_jsonl(args.out, rows)
        print(f"wrote {written} rows ({queries} queries, "
              f"{qps:.0f} qps over {_CLIENTS} clients, "
              f"{shed}/{attempts} shed under the undersized bucket) "
              f"to {args.out}")
    else:
        import json

        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
