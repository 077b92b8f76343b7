"""Fused batch engine benchmark — one disk pass per query window.

Quantifies the tentpole of the batch-fusion PR: a batch of ``B`` operations
grouped into round-robin windows of at most ``k`` ops costs **one** physical
read of the k-frame block per window (plus one extra frame per op) and one
journaled write-back, instead of the serial loop's ``k + 1`` reads and full
write-back *per op*.  With the IBM 4764 seek/transfer model and a journaled
engine the per-query virtual cost must drop at least 2x for ``B = k = 8``.

Three gates, one pytest check:

* **Byte identity** — fused replies must equal the serial loop's, slot by
  slot, on twin same-seed databases.
* **Read collapse** — the access trace of the window run must show
  exactly one block read of ``k`` frames and ``B`` single-frame reads per
  window.  Counted from the READ events the store recorded, not from
  counters the engine derives from its own window size.
* **Virtual speedup** — serial per-query virtual time over fused per-query
  virtual time must be >= 2x.

``tests/test_perf_gate.py`` asserts both runs' exact columns in tier-1:
ops, the read bytes measured from each run's access trace, and virtual
seconds.
"""

from __future__ import annotations

import time
from typing import List

from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.core.engine import BatchOp
from repro.core.journal import MemoryJournal
from repro.hardware.specs import IBM_4764
from repro.storage.trace import READ

#: Pinned workload shape — change it and the expected rows in
#: tests/test_perf_gate.py together.
DEFAULT_SEED = 4321
ROUNDS = 8
_BENCH_RECORDS = 64
_BENCH_PAGE_SIZE = 32
_BLOCK_SIZE = 8          # k — and the fused window capacity
_BATCH = 8               # B ops per batch: one full window
MIN_SPEEDUP = 2.0


def _make_db(seed: int) -> PirDatabase:
    # The IBM 4764 spec (not the zero-cost default) so virtual time prices
    # seeks honestly, and a clock-charging journal so durability is priced
    # the same way the robustness lane prices it.  The access trace is on:
    # the read-collapse gate and the lane's bytes column are read from it.
    db = PirDatabase.create(
        make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE),
        cache_capacity=8,
        block_size=_BLOCK_SIZE,
        page_capacity=_BENCH_PAGE_SIZE,
        cipher_backend="shake",
        trace_enabled=True,
        seed=seed,
        spec=IBM_4764,
    )
    db.engine.journal = MemoryJournal(clock=db.clock, timing=db.cop.spec.disk)
    return db


def _round_ids(round_index: int) -> List[int]:
    return [(round_index * 13 + i * 5) % _BENCH_RECORDS
            for i in range(_BATCH)]


def run_serial(rounds: int, seed: int):
    """The reference loop: every op is its own full request."""
    db = _make_db(seed)
    payloads: List[bytes] = []
    virtual_start = db.clock.now
    wall_start = time.perf_counter()
    for round_index in range(rounds):
        for page_id in _round_ids(round_index):
            payloads.append(db.query(page_id))
    wall = time.perf_counter() - wall_start
    return payloads, db.clock.now - virtual_start, wall, db


def run_fused(rounds: int, seed: int):
    """The same op stream through the one-disk-pass-per-window path."""
    db = _make_db(seed)
    payloads: List[bytes] = []
    virtual_start = db.clock.now
    wall_start = time.perf_counter()
    for round_index in range(rounds):
        batch = [BatchOp("query", page_id=page_id)
                 for page_id in _round_ids(round_index)]
        for item in db.run_batch(batch):
            if isinstance(item, Exception):
                raise item
            payloads.append(item)
    wall = time.perf_counter() - wall_start
    return payloads, db.clock.now - virtual_start, wall, db


def read_frames(db: PirDatabase) -> List[int]:
    """Frames moved by each READ event the store recorded, in order."""
    return [event.count for event in db.trace if event.op == READ]


def check_read_collapse(db: PirDatabase, rounds: int) -> List[str]:
    """One block read of k frames, then B single-frame reads, per window."""
    reads = read_frames(db)
    window = [_BLOCK_SIZE] + [1] * _BATCH
    if reads == window * rounds:
        return []
    return [f"expected {rounds} windows of reads {window}, the trace shows "
            f"{len(reads)} reads moving {sum(reads)} frames"]


# ---------------------------------------------------------------------------
# Pytest checks (collected with the benchmark suite)
# ---------------------------------------------------------------------------


def test_fused_batch_speedup_and_identity(report):
    """Byte-identical replies, exact read collapse, >= 2x virtual speedup."""
    serial_payloads, serial_virtual, serial_wall, serial_db = run_serial(
        ROUNDS, DEFAULT_SEED
    )
    fused_payloads, fused_virtual, fused_wall, fused_db = run_fused(
        ROUNDS, DEFAULT_SEED
    )
    assert fused_payloads == serial_payloads
    assert check_read_collapse(fused_db, ROUNDS) == []

    ops = ROUNDS * _BATCH
    speedup = serial_virtual / fused_virtual
    assert speedup >= MIN_SPEEDUP, (
        f"per-query virtual speedup {speedup:.2f}x < {MIN_SPEEDUP:.0f}x "
        f"for B={_BATCH} fused vs serial"
    )
    report.line(f"fused batch path, B={_BATCH} ops/window, k={_BLOCK_SIZE}, "
                f"{ROUNDS} windows, IBM 4764 timing + journal")
    report.table(
        ["mode", "virtual ms/op", "wall ms/op", "frames read"],
        [
            ["serial", serial_virtual / ops * 1e3, serial_wall / ops * 1e3,
             sum(read_frames(serial_db))],
            ["fused", fused_virtual / ops * 1e3, fused_wall / ops * 1e3,
             sum(read_frames(fused_db))],
        ],
        terminal_only=["wall ms/op"],
    )
    report.line(f"per-query virtual speedup: {speedup:.2f}x "
                f"(gate: >= {MIN_SPEEDUP:.0f}x)")
