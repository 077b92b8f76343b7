"""Cluster tier benchmark — routed serving, failover chaos, reconvergence.

Exercises ``repro.cluster`` end to end on localhost:

* **cluster.routed** — a fleet of blocking clients drives a pinned query
  stream through the :class:`~repro.cluster.router.ClusterRouter` into
  N in-process backends.  Counts and reply bytes are deterministic and
  gated exactly; sustained QPS is reported informationally (the GIL
  serialises in-process backends, so wall-clock scaling with N is *not*
  a claim this lane makes).
* **cluster.chaos** — the acceptance gate for the fault-tolerant tier:
  mid-traffic, the backend holding the most pinned sessions is
  **killed** (event loop slammed, no drain).  Every client must still
  complete every request — router failover + RESUME adoption +
  retransmission through the shared reply cache — with zero acknowledged
  requests lost and none re-run (``sum(engine requests)`` is exactly the
  replies delivered: the kill lands between two loop steps, never between
  a serve's engine pass and its cache put, and a retransmission the dead
  backend already cached is answered from cache, never re-executed).  The
  killed backend then restarts and
  the run asserts membership reconverges to full strength.
* **cluster.replicated** — the acceptance gate for sealed write
  replication (DESIGN.md §13): a write-capable fleet updates disjoint
  pages through a replication-connected mesh, reading every write back
  immediately (any stale read fails the run); the busiest backend is
  killed mid-stream, writes keep landing through failover (a
  read-your-writes shed is retried as a fresh request, never served
  stale), and after the victim restarts the run asserts both members
  converge to byte-identical trusted state (``content_digest``).

All phases fail loudly on any lost, duplicated, stale, or wrong-byte
reply.

The in-run gates above decide alone — no committed number is involved: a
phase that completes has, by those gates, delivered exactly its pinned
count and bytes.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import time
from typing import List

from repro.baselines import make_records
from repro.cluster import (
    ClusterRouter,
    RouterThread,
    build_cluster,
    connect_replication,
)
from repro.errors import DegradedServiceError
from repro.faults.retry import RetryPolicy
from repro.net import NetworkClient

#: Pinned workload shape.
DEFAULT_SEED = 1177
QUERIES = 64
_BENCH_RECORDS = 64
_BENCH_PAGE_SIZE = 64
_BENCH_CACHE = 8
_CLIENTS = 4
_BACKENDS = 2
#: Fraction of the chaos workload completed before the kill lands.
_KILL_AFTER_FRACTION = 0.25
#: Fixed write payload width keeps the replicated phase's byte column
#: deterministic (must stay <= _BENCH_PAGE_SIZE, the page capacity).
_REPL_PAYLOAD_LEN = 24
#: Outer retry budget for a write/read-back op that keeps shedding
#: retryably (read-your-writes refusals during failover).
_REPL_OP_DEADLINE = 30.0


def _repl_payload(page_id: int) -> bytes:
    return f"repl-{page_id:05d}".encode().ljust(_REPL_PAYLOAD_LEN, b".")


@contextlib.contextmanager
def _cluster(seed: int, router_kw=None, replicated: bool = False):
    """``_BACKENDS`` seeded backends behind a router, all on loopback.

    ``replicated=True`` additionally wires the started members into a
    full sealed-replication mesh with a durable backlog under the
    snapshot directory — the write-capable configuration DESIGN.md §13
    describes.
    """
    records = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)
    with tempfile.TemporaryDirectory() as snap_dir:
        handles = build_cluster(
            records, _BACKENDS, snap_dir,
            cache_capacity=_BENCH_CACHE, seed=seed,
            target_c=2.0, page_capacity=_BENCH_PAGE_SIZE,
            cipher_backend="shake", trace_enabled=False,
        )
        try:
            for handle in handles:
                handle.start()
            if replicated:
                durable = os.path.join(snap_dir, "repl")
                os.makedirs(durable, exist_ok=True)
                connect_replication(handles, durable_dir=durable)
            kw = dict(probe_interval=0.05, probe_timeout=1.0,
                      eject_after=2, readmit_after=2,
                      connect_timeout=1.0, backend_timeout=5.0)
            kw.update(router_kw or {})
            router = ClusterRouter([h.spec for h in handles], **kw)
            with RouterThread(router) as thread:
                yield handles, router, thread
        finally:
            for handle in handles:
                handle.kill()
            for handle in handles:
                handle.db.close()


class _Fleet:
    """Blocking clients on threads; collects per-reply correctness."""

    def __init__(self, host: str, port: int, clients: int, per_client: int,
                 expected: List[bytes]):
        self.host = host
        self.port = port
        self.per_client = per_client
        self.expected = expected
        self.ok = 0
        self.bytes = 0
        self.errors: List[BaseException] = []
        self._lock = threading.Lock()
        self._progress_callbacks: List = []
        self._threads = [
            threading.Thread(target=self._drive, args=(index,), daemon=True)
            for index in range(clients)
        ]

    def on_progress(self, threshold: int, callback) -> None:
        """Run ``callback`` once, when total completions cross ``threshold``."""
        self._progress_callbacks.append([threshold, callback])

    def _drive(self, index: int) -> None:
        try:
            client = NetworkClient(
                self.host, self.port, timeout=10.0, read_timeout=10.0,
                retry=RetryPolicy(max_attempts=4, base_delay=0.05,
                                  max_delay=0.5),
                rng_seed=DEFAULT_SEED + index,
            )
            try:
                for step in range(self.per_client):
                    page_id = (index * self.per_client + step) % len(
                        self.expected
                    )
                    payload = client.query(page_id)
                    assert payload == self.expected[page_id], (
                        f"reply bytes diverged on page {page_id}"
                    )
                    with self._lock:
                        self.ok += 1
                        self.bytes += len(payload)
                        fired = [
                            entry for entry in self._progress_callbacks
                            if self.ok >= entry[0]
                        ]
                        for entry in fired:
                            self._progress_callbacks.remove(entry)
                    for _, callback in fired:
                        callback()
            finally:
                client.close()
        except BaseException as exc:  # surfaced by join()
            with self._lock:
                self.errors.append(exc)

    def run(self) -> float:
        start = time.perf_counter()
        for thread in self._threads:
            thread.start()
        for thread in self._threads:
            thread.join(timeout=120.0)
        wall = time.perf_counter() - start
        if self.errors:
            raise AssertionError(
                f"{len(self.errors)} client(s) failed; first: "
                f"{self.errors[0]!r}"
            ) from self.errors[0]
        return wall


class _WriteFleet(_Fleet):
    """Write-then-read-back clients over disjoint page ranges.

    Each client owns ``per_client`` pages nobody else touches and, per
    step, updates one and immediately queries it back — the read-your-
    writes gate.  A retryable shed (``DegradedServiceError``: the
    routed member cannot yet prove it holds the write, or no caught-up
    failover candidate exists) is retried as a *fresh* request until
    :data:`_REPL_OP_DEADLINE`; a stale read-back fails the run on the
    spot.  One write per page keeps the final per-page state
    order-independent, so the post-run convergence gate is exact.
    """

    def _retry_degraded(self, op):
        deadline = time.monotonic() + _REPL_OP_DEADLINE
        while True:
            try:
                return op()
            except DegradedServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def _drive(self, index: int) -> None:
        try:
            client = NetworkClient(
                self.host, self.port, timeout=10.0, read_timeout=10.0,
                retry=RetryPolicy(max_attempts=4, base_delay=0.05,
                                  max_delay=0.5),
                rng_seed=DEFAULT_SEED + index,
            )
            try:
                for step in range(self.per_client):
                    page_id = index * self.per_client + step
                    payload = _repl_payload(page_id)
                    self._retry_degraded(
                        lambda: client.update(page_id, payload)
                    )
                    echoed = self._retry_degraded(
                        lambda: client.query(page_id)
                    )
                    assert echoed == payload, (
                        f"STALE READ: page {page_id} read back "
                        f"{echoed!r} after acknowledged write of "
                        f"{payload!r}"
                    )
                    with self._lock:
                        self.ok += 1
                        self.bytes += len(echoed)
                        fired = [
                            entry for entry in self._progress_callbacks
                            if self.ok >= entry[0]
                        ]
                        for entry in fired:
                            self._progress_callbacks.remove(entry)
                    for _, callback in fired:
                        callback()
            finally:
                client.close()
        except BaseException as exc:  # surfaced by join()
            with self._lock:
                self.errors.append(exc)


def _wait_until(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def run_routed(queries: int, seed: int):
    """Routed fleet, no faults; returns (count, bytes, wall)."""
    expected = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)
    per_client = queries // _CLIENTS
    with _cluster(seed) as (handles, router, thread):
        fleet = _Fleet(thread.host, thread.port, _CLIENTS, per_client,
                       expected)
        wall = fleet.run()
        served = sum(h.db.engine.request_count for h in handles)
        total = per_client * _CLIENTS
        assert fleet.ok == total, f"{fleet.ok}/{total} requests completed"
        assert served == total, (
            f"engines served {served} requests for {total} queries "
            "(lost or double-applied)"
        )
        assert router.counters.get("sessions.routed") == _CLIENTS
        # Orderly BYEs released every pin.
        assert _wait_until(lambda: sum(
            state.pinned for state in router.membership.members) == 0), (
            "sessions stayed pinned after close"
        )
    return total, fleet.bytes, wall


def run_chaos(queries: int, seed: int):
    """Kill-one-backend-under-load; returns (count, bytes, wall, stats).

    The in-run gates ARE the acceptance criteria: zero acknowledged
    requests lost, none re-run, membership reconvergence.
    """
    expected = make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE)
    per_client = queries // _CLIENTS
    total = per_client * _CLIENTS
    with _cluster(seed, router_kw={"backend_timeout": 2.0}) as (
            handles, router, thread):
        fleet = _Fleet(thread.host, thread.port, _CLIENTS, per_client,
                       expected)
        killed = {}

        def kill_busiest():
            by_address = {h.spec.address: h for h in handles}
            state = max(router.membership.members,
                        key=lambda member: member.pinned)
            victim = by_address[state.address]
            victim.kill()
            killed["handle"] = victim
            killed["address"] = state.address

        fleet.on_progress(max(1, int(total * _KILL_AFTER_FRACTION)),
                          kill_busiest)
        wall = fleet.run()

        # Chaos gate 1: nothing acknowledged was lost — every client
        # completed every request despite the mid-traffic kill.
        assert killed, "the kill trigger never fired"
        assert fleet.ok == total, (
            f"{fleet.ok}/{total} requests completed through the kill"
        )
        # Chaos gate 2: nothing re-run.  Killed engines survive
        # in-process, so the sum counts every engine pass that ever
        # happened.  A backend serves on its loop thread, so the kill
        # lands between two loop steps: a serve that began its engine
        # pass has cached its reply, and a retransmission of it is served
        # from the shared reply cache (duplicate), never re-executed.
        # Exactly-once for writes is run_replicated's gate.
        served = sum(h.db.engine.request_count for h in handles)
        duplicates = sum(
            h.frontend.counters.get("requests.duplicate") for h in handles
        )
        assert served == total, (
            f"engines served {served} requests for {total} delivered "
            f"replies ({duplicates} duplicates absorbed) — lost or re-run"
        )
        # Chaos gate 3: the cluster reconverges to full strength.
        assert _wait_until(
            lambda: not router.membership.member(killed["address"]).up), (
            "dead member never ejected"
        )
        killed["handle"].restart()
        assert _wait_until(lambda: router.membership.at_full_strength), (
            "membership never reconverged after the restart"
        )
        stats = {
            "failovers": router.counters.get("failovers"),
            "retransmits": router.counters.get("retransmits"),
            "duplicates": duplicates,
        }
    return total, fleet.bytes, wall, stats


def run_replicated(seed: int):
    """Replicated writes under a mid-stream kill; returns
    (count, bytes, wall, stats).

    In-run gates (DESIGN.md §13 acceptance):

    * **zero stale reads** — every acknowledged write is read back
      immediately and must echo exactly, through the kill and the
      failovers it forces;
    * **replica convergence** — after the victim restarts and the mesh
      catches up, both members hold every written page at its written
      value and their ``content_digest`` matches byte for byte.

    The workload writes each page exactly once (``_BENCH_RECORDS``
    pages split across ``_CLIENTS`` clients), so it is sized by the
    record count, not ``QUERIES`` — single-writer-per-page is the
    ordering discipline sealed replication guarantees convergence
    under.
    """
    per_client = _BENCH_RECORDS // _CLIENTS
    total = per_client * _CLIENTS
    with _cluster(seed, router_kw={"backend_timeout": 2.0},
                  replicated=True) as (handles, router, thread):
        fleet = _WriteFleet(thread.host, thread.port, _CLIENTS, per_client,
                            expected=[])
        killed = {}

        def kill_busiest():
            by_address = {h.spec.address: h for h in handles}
            state = max(router.membership.members,
                        key=lambda member: member.pinned)
            victim = by_address[state.address]
            victim.kill()
            killed["handle"] = victim
            killed["address"] = state.address
            # The crashed member comes back mid-run (a process
            # supervisor restart).  Sessions whose last acknowledged
            # write died with the victim un-streamed are *correctly*
            # refused everywhere else until this happens — the restart
            # replays the durable backlog and unwedges them.
            restarter = threading.Timer(1.5, victim.restart)
            restarter.daemon = True
            restarter.start()
            killed["restarter"] = restarter

        fleet.on_progress(max(1, int(total * _KILL_AFTER_FRACTION)),
                          kill_busiest)
        wall = fleet.run()

        # Replication gate 1: zero stale reads.  Every write/read-back
        # pair completed (the stale-read assert lives inside the fleet).
        assert killed, "the kill trigger never fired"
        assert fleet.ok == total, (
            f"{fleet.ok}/{total} write/read-back pairs completed through "
            "the kill"
        )
        # Replication gate 2: the restarted victim rejoins and the mesh
        # drains its backlog both ways — every member has applied
        # everything every peer ever emitted.
        killed["restarter"].join()
        assert _wait_until(lambda: router.membership.at_full_strength), (
            "membership never reconverged after the restart"
        )

        def caught_up():
            for mine in handles:
                for peer in handles:
                    if mine is peer:
                        continue
                    applied = mine.repl_applier.applied_for(
                        peer.repl_log.origin
                    )
                    if applied < peer.repl_log.last_seq:
                        return False
            return True

        assert _wait_until(caught_up, timeout=30.0), (
            "replication backlog never drained after the restart"
        )
        sheds = router.counters.get("ryw.rejected")
        stats = {
            "failovers": router.counters.get("failovers"),
            "retransmits": router.counters.get("retransmits"),
            "ryw_checks": router.counters.get("ryw.checks"),
            "ryw_rejected": sheds,
        }
        # Replication gate 3: convergence.  Quiesce both members (kill
        # stops the applier-serving workers), then compare trusted
        # state directly — every page at its written value on *both*
        # members, and byte-identical content digests.
        for handle in handles:
            handle.kill()
        for page_id in range(total):
            expected = _repl_payload(page_id)
            for handle in handles:
                got = handle.db.query(page_id)
                assert got == expected, (
                    f"DIVERGED: page {page_id} on {handle.spec.address} "
                    f"is {got!r}, expected {expected!r}"
                )
        digests = {h.db.content_digest() for h in handles}
        assert len(digests) == 1, (
            f"content digests diverged across members: {digests}"
        )
    return total, fleet.bytes, wall, stats


# ---------------------------------------------------------------------------
# Pytest checks (the CI bench-gates job runs them)
# ---------------------------------------------------------------------------


def test_routed_exact_and_clean():
    count, nbytes, _wall = run_routed(QUERIES, DEFAULT_SEED)
    assert count == QUERIES
    assert nbytes == QUERIES * _BENCH_PAGE_SIZE


def test_chaos_kill_under_load_exactly_once():
    count, nbytes, _wall, stats = run_chaos(QUERIES, DEFAULT_SEED)
    assert count == QUERIES
    assert nbytes == QUERIES * _BENCH_PAGE_SIZE
    # The kill landed mid-traffic: at least one session had to move.
    assert stats["failovers"] >= 1


def test_replicated_writes_zero_stale_reads_and_convergence():
    count, nbytes, _wall, stats = run_replicated(DEFAULT_SEED)
    assert count == _BENCH_RECORDS
    assert nbytes == _BENCH_RECORDS * _REPL_PAYLOAD_LEN
    # The kill landed mid-stream: at least one writing session moved,
    # and at least one adoption was held to the read-your-writes gate
    # (sessions that never held a watermark on the dead member skip it).
    assert stats["failovers"] >= 1
    assert stats["ryw_checks"] >= 1
