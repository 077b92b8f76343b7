"""Fused batch engine benchmark — one disk pass per query window.

Quantifies the tentpole of the batch-fusion PR: a batch of ``B`` operations
grouped into round-robin windows of at most ``k`` ops costs **one** physical
read of the k-frame block per window (plus one extra frame per op) and one
journaled write-back, instead of the serial loop's ``k + 1`` reads and full
write-back *per op*.  With the IBM 4764 seek/transfer model and a journaled
engine the per-query virtual cost must drop at least 2x for ``B = k = 8``.

Three gates run in script mode (and as pytest checks):

* **Byte identity** — fused replies must equal the serial loop's, slot by
  slot, on twin same-seed databases (exit 2 on divergence: correctness).
* **Read collapse** — the deterministic ``batch.fused.*`` counters must
  show exactly one block read and ``B`` extra reads per window (exit 2).
* **Virtual speedup** — serial per-query virtual time over fused per-query
  virtual time must be >= 2x (exit 1: the perf claim of the PR).

Besides the pytest checks, this file is a script::

    PYTHONPATH=src python benchmarks/bench_fusion.py --quick --out run.jsonl

emitting the perf-gate JSONL layout (meta line + phase rows) that
``benchmarks/compare_bench.py`` diffs against
``benchmarks/results/perf_baseline_fusion.jsonl``.  The count/bytes/
virtual-second columns are deterministic under the pinned seed.
"""

from __future__ import annotations

import argparse
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
from repro.core.engine import BatchOp
from repro.core.journal import MemoryJournal
from repro.hardware.specs import IBM_4764

#: Pinned workload shape — change it and the committed baseline together.
DEFAULT_SEED = 4321
DEFAULT_ROUNDS = 24
QUICK_ROUNDS = 8
_BENCH_RECORDS = 64
_BENCH_PAGE_SIZE = 32
_BLOCK_SIZE = 8          # k — and the fused window capacity
_BATCH = 8               # B ops per batch: one full window
MIN_SPEEDUP = 2.0


def _make_db(seed: int) -> PirDatabase:
    # The IBM 4764 spec (not the zero-cost default) so virtual time prices
    # seeks honestly, and a clock-charging journal so durability is priced
    # the same way the robustness lane prices it.
    db = PirDatabase.create(
        make_records(_BENCH_RECORDS, _BENCH_PAGE_SIZE),
        cache_capacity=8,
        block_size=_BLOCK_SIZE,
        page_capacity=_BENCH_PAGE_SIZE,
        cipher_backend="shake",
        trace_enabled=False,
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


def check_read_collapse(db: PirDatabase, rounds: int) -> List[str]:
    """The deterministic counter contract of the fused path."""
    counters = db.engine.counters
    expected = {
        "batch.fused.windows": rounds,
        "batch.fused.ops": rounds * _BATCH,
        "batch.fused.block_reads": rounds,
        "batch.fused.extra_reads": rounds * _BATCH,
        # Serial would read B*(k+1) frames per round; fused reads k+B.
        "batch.fused.reads_saved": rounds * (
            _BATCH * (_BLOCK_SIZE + 1) - (_BLOCK_SIZE + _BATCH)
        ),
    }
    return [
        f"{name}: expected {want}, got {counters.get(name)}"
        for name, want in expected.items()
        if counters.get(name) != want
    ]


# ---------------------------------------------------------------------------
# Pytest checks (collected with the benchmark suite)
# ---------------------------------------------------------------------------


def test_fused_batch_speedup_and_identity(report):
    """Byte-identical replies, exact read collapse, >= 2x virtual speedup."""
    serial_payloads, serial_virtual, serial_wall, _serial_db = run_serial(
        QUICK_ROUNDS, DEFAULT_SEED
    )
    fused_payloads, fused_virtual, fused_wall, fused_db = run_fused(
        QUICK_ROUNDS, DEFAULT_SEED
    )
    assert fused_payloads == serial_payloads
    assert check_read_collapse(fused_db, QUICK_ROUNDS) == []

    ops = QUICK_ROUNDS * _BATCH
    speedup = serial_virtual / fused_virtual
    assert speedup >= MIN_SPEEDUP, (
        f"per-query virtual speedup {speedup:.2f}x < {MIN_SPEEDUP:.0f}x "
        f"for B={_BATCH} fused vs serial"
    )
    report.line(f"fused batch path, B={_BATCH} ops/window, k={_BLOCK_SIZE}, "
                f"{QUICK_ROUNDS} windows, IBM 4764 timing + journal")
    report.table(
        ["mode", "virtual ms/op", "wall ms/op", "frames read"],
        [
            ["serial", serial_virtual / ops * 1e3, serial_wall / ops * 1e3,
             ops * (_BLOCK_SIZE + 1)],
            ["fused", fused_virtual / ops * 1e3, fused_wall / ops * 1e3,
             QUICK_ROUNDS * _BLOCK_SIZE + ops],
        ],
    )
    report.line(f"per-query virtual speedup: {speedup:.2f}x "
                f"(gate: >= {MIN_SPEEDUP:.0f}x)")


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
        description="fused-batch benchmark (JSONL for the CI perf gate)"
    )
    parser.add_argument("--quick", action="store_true",
                        help=f"run {QUICK_ROUNDS} windows instead of "
                             f"{DEFAULT_ROUNDS}")
    parser.add_argument("--rounds", type=int, default=0,
                        help="explicit window count (overrides --quick)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default="",
                        help="JSONL output path (default stdout)")
    args = parser.parse_args(argv)

    rounds = args.rounds or (QUICK_ROUNDS if args.quick else DEFAULT_ROUNDS)
    calibration = calibration_seconds()
    serial_payloads, serial_virtual, serial_wall, _serial_db = run_serial(
        rounds, args.seed
    )
    fused_payloads, fused_virtual, fused_wall, fused_db = run_fused(
        rounds, args.seed
    )
    if fused_payloads != serial_payloads:
        print("error: fused replies diverged from the serial loop",
              file=sys.stderr)
        return 2
    collapse_problems = check_read_collapse(fused_db, rounds)
    if collapse_problems:
        for problem in collapse_problems:
            print(f"error: read collapse broken — {problem}", file=sys.stderr)
        return 2

    ops = rounds * _BATCH
    speedup = (serial_virtual / ops) / (fused_virtual / ops)
    if speedup < MIN_SPEEDUP:
        print(f"error: per-query virtual speedup {speedup:.2f}x "
              f"< {MIN_SPEEDUP:.0f}x", file=sys.stderr)
        return 1

    frame_size = fused_db.engine.disk.frame_size
    fused_frames = rounds * _BLOCK_SIZE + ops  # k per window + 1 per op
    rows = [{
        "kind": "meta",
        "queries": ops,
        "seed": args.seed,
        "pages": _BENCH_RECORDS,
        "block_size": _BLOCK_SIZE,
        "page_size": _BENCH_PAGE_SIZE,
        "batch": _BATCH,
        "calibration_s": calibration,
        # Informational (not gated here): the in-script >= 2x check above
        # is the gate; compare_bench.py gates the virtual_s columns exactly.
        "virtual_speedup": speedup,
    }]
    rows.append({
        "kind": "phase", "name": "batch.serial",
        "count": ops, "bytes": ops * (_BLOCK_SIZE + 1) * frame_size,
        "virtual_s": serial_virtual, "wall_s": serial_wall,
    })
    rows.append({
        "kind": "phase", "name": "batch.fused",
        "count": ops, "bytes": fused_frames * frame_size,
        "virtual_s": fused_virtual, "wall_s": fused_wall,
    })
    if args.out:
        written = write_jsonl(args.out, rows)
        print(f"wrote {written} rows ({rounds} windows of {_BATCH} ops, "
              f"virtual speedup {speedup:.2f}x) to {args.out}")
    else:
        import json

        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
