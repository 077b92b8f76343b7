"""CTR fast-path benchmark: the T-table AES kernel.

The same pinned CTR keystream workload is generated twice through
:func:`repro.crypto.modes.ctr_keystream`, once with the byte-wise
reference AES and once with the accelerated kernel (T-tables, vectorised
above :data:`~repro.crypto.aes.VECTOR_THRESHOLD_BLOCKS` blocks).  The
outputs are asserted byte-identical and the run *fails* if the
accelerated path is less than 3x faster in wall time.

Besides the pytest check, this file is a script::

    PYTHONPATH=src python benchmarks/bench_ctr.py --out run.jsonl

whose exit code is decided by the two in-script gates alone (byte
identity, kernel speedup): both compare two measurements taken inside one
process, so no committed baseline is involved.  The rows it writes (see
``benchmarks/lane.py``) record the workload size for the CI artifact.
"""

from __future__ import annotations

import random
import sys
import time
from typing import List, Optional

import lane  # first: puts src/ on sys.path for a run without PYTHONPATH

from repro.crypto.aes import AES
from repro.crypto.modes import ctr_keystream

#: Pinned workload shape — change it and the committed baseline together.
DEFAULT_SEED = 9001
_KEYSTREAM_BLOCKS = 2048  # blocks per keystream message (32 KiB)
_KEYSTREAM_MESSAGES = 4

MIN_KERNEL_SPEEDUP = 3.0


def run_keystream(accel: bool, seed: int):
    """Generate the pinned CTR keystream workload; returns (digest, wall)."""
    rng = random.Random(seed)
    key = rng.randbytes(16)
    nonces = [rng.randbytes(12) for _ in range(_KEYSTREAM_MESSAGES)]
    cipher = AES(key, accel=accel)
    length = _KEYSTREAM_BLOCKS * 16
    start = time.perf_counter()
    streams = [ctr_keystream(cipher, nonce, length) for nonce in nonces]
    wall = time.perf_counter() - start
    return streams, wall


# ---------------------------------------------------------------------------
# Pytest checks (collected with the benchmark suite)
# ---------------------------------------------------------------------------


def test_kernel_speedup_and_identity(report):
    """Accel keystream is byte-identical to reference and >= 3x faster."""
    reference, ref_wall = run_keystream(False, DEFAULT_SEED)
    accel, accel_wall = run_keystream(True, DEFAULT_SEED)
    assert accel == reference
    speedup = ref_wall / accel_wall if accel_wall else float("inf")
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"accel keystream only {speedup:.2f}x faster than reference "
        f"(need {MIN_KERNEL_SPEEDUP}x)"
    )
    nbytes = _KEYSTREAM_MESSAGES * _KEYSTREAM_BLOCKS * 16
    report.line(f"CTR keystream, {_KEYSTREAM_MESSAGES} messages x "
                f"{_KEYSTREAM_BLOCKS} blocks ({nbytes // 1024} KiB total)")
    report.table(
        ["kernel", "wall (s)", "MB/s"],
        [
            ["reference", ref_wall, nbytes / ref_wall / 1e6],
            ["accel", accel_wall, nbytes / accel_wall / 1e6],
        ],
    )
    report.line(f"kernel speedup: {speedup:.1f}x")


# ---------------------------------------------------------------------------
# Script mode: the same two gates, plus the lane's JSONL record
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = lane.parser("CTR fast-path benchmark", DEFAULT_SEED).parse_args(argv)

    reference, ref_wall = run_keystream(False, args.seed)
    accel, accel_wall = run_keystream(True, args.seed)
    if accel != reference:
        print("error: accel keystream diverged from reference", file=sys.stderr)
        return 2
    speedup = ref_wall / accel_wall if accel_wall else float("inf")
    if speedup < MIN_KERNEL_SPEEDUP:
        print(f"error: kernel speedup {speedup:.2f}x < {MIN_KERNEL_SPEEDUP}x",
              file=sys.stderr)
        return 1

    blocks = sum(len(stream) for stream in accel) // 16
    rows = [{"kind": "meta", "seed": args.seed}]
    rows.extend(
        lane.phase_row(f"keystream.{kernel}", blocks, blocks * 16, 0.0)
        for kernel in ("reference", "accel")
    )
    return lane.emit(
        rows, args.out,
        f"kernel speedup {speedup:.1f}x (reference {ref_wall * 1e3:.1f} ms, "
        f"accel {accel_wall * 1e3:.1f} ms; gate >= {MIN_KERNEL_SPEEDUP:.0f}x)",
    )


if __name__ == "__main__":
    sys.exit(main())
