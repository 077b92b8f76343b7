"""Closed-loop load generation and reply checking for bench_e2e.

The parent process is the single load generator: at most two blocking
``NetworkClient`` callers, one thread and one connection each.  A caller
sends its next request when the previous reply arrives.  Every reply is
checked against ``make_records`` (or the caller's own last write) outside
the timed interval.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ReproError
from repro.net import NetworkClient

from workloads import BATCH, Scale, Workload, page_payload, uniform_ids

CLIENT_TIMEOUT_S = 30.0


class Phase:
    """One caller's share of a burst of closed-loop calls: per-call
    latencies, logical op counts and failures."""

    def __init__(self) -> None:
        self.lat: List[float] = []
        self.attempted = 0
        self.ops = 0
        self.failed = 0
        self.errors: List[str] = []

    def merge(self, other: "Phase") -> None:
        self.lat += other.lat
        self.attempted += other.attempted
        self.ops += other.ops
        self.failed += other.failed
        self.errors += other.errors


@dataclass
class Burst:
    """One burst: a :class:`Phase` per caller, the burst's wall time, the
    calibration kernel times taken right before and after it, and the CPU
    seconds the hypervisor stole from the machine meanwhile."""

    phases: List[Phase]
    elapsed: float
    cal: Sequence[float] = ()
    steal: float = 0.0

    @property
    def ops(self) -> int:
        return sum(phase.ops for phase in self.phases)

    @classmethod
    def from_child(cls, burst) -> "Burst":
        """One burst of the deployment child's in-process ``run`` command."""
        phase = Phase()
        phase.lat, phase.errors = burst["lat"], burst["errors"]
        phase.attempted, phase.failed = burst["attempted"], burst["failed"]
        phase.ops = len(phase.lat)  # one logical op per in-process call
        return cls([phase], burst["elapsed"], burst["cal"], burst["steal"])


class Caller:
    """One closed-loop client with its id stream and reply oracle."""

    def __init__(self, index: int, address: Sequence, workload: Workload,
                 scale: Scale, seed: int, records: List[bytes]):
        self.workload = workload
        self.scale = scale
        self.records = records
        self.net = NetworkClient(address[0], address[1],
                                 timeout=CLIENT_TIMEOUT_S,
                                 rng_seed=seed * 16 + index)
        if workload.load == "rw":
            # Disjoint halves: replication is last-writer-wins per page,
            # so each page has exactly one writer.
            self.span = scale.num_pages // workload.clients
            self.base = index * self.span
        else:
            self.span, self.base = scale.num_pages, 0
        self.ids = uniform_ids(self.span, seed, f"client-{index}")
        self.writes = 0
        self.pending: Optional[tuple] = None

    @property
    def session_id(self) -> int:
        return self.net.session_id

    def close(self) -> None:
        self.net.close()


def _next_call(caller: Caller):
    """The caller's next request as (logical ops, call, check of its reply)."""
    load = caller.workload.load
    records = caller.records
    if load == "uniform":
        page_id = next(caller.ids)
        return (1, lambda: caller.net.query(page_id),
                lambda reply: reply == records[page_id])
    if load == "batch":
        page_ids = [next(caller.ids) for _ in range(BATCH)]
        return (BATCH, lambda: caller.net.query_many(page_ids),
                lambda reply: reply == [records[p] for p in page_ids])
    # rw: update a page of the caller's own range, then read it back.
    if caller.pending is None:
        page_id = caller.base + next(caller.ids)
        caller.writes += 1
        payload = page_payload(
            caller.scale, (1 << 62) | (caller.base << 24) | caller.writes)

        def write():
            caller.net.update(page_id, payload)
            caller.pending = (page_id, payload)

        return 1, write, lambda reply: True
    page_id, payload = caller.pending
    caller.pending = None
    return (1, lambda: caller.net.query(page_id),
            lambda reply: reply == payload)


def _step(caller: Caller, phase: Phase) -> None:
    ops, call, check = _next_call(caller)
    phase.attempted += ops
    begin = time.perf_counter()
    try:
        reply = call()
    except ReproError as exc:
        phase.failed += ops
        phase.errors.append(repr(exc))
        return
    phase.lat.append(time.perf_counter() - begin)
    phase.ops += ops
    if not check(reply):
        phase.failed += ops
        phase.errors.append("wrong bytes in reply")


def drive(callers: Sequence[Caller], calls: Optional[int] = None,
          seconds: Optional[float] = None) -> Burst:
    """Run every caller's closed loop for ``calls`` calls each or
    ``seconds`` seconds, as one :class:`Burst`.  It lasts until the last
    caller's reply has arrived."""
    phases = [Phase() for _ in callers]
    started = time.perf_counter()

    def loop(caller: Caller, phase: Phase) -> None:
        # A burst never ends between an update and its read-back: the
        # page may be rewritten before this caller's next burst.
        made = 0
        while (caller.pending is not None
               or ((calls is None or made < calls)
                   and (seconds is None
                        or time.perf_counter() - started < seconds))):
            _step(caller, phase)
            made += 1

    threads = [threading.Thread(target=loop, args=pair, daemon=True)
               for pair in zip(callers, phases)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Burst(phases, time.perf_counter() - started)
