"""CTR fast-path benchmark: the T-table AES kernel.

The same pinned CTR keystream workload is generated twice through
:func:`repro.crypto.modes.ctr_keystream`, once with the byte-wise
reference AES and once with the accelerated kernel (T-tables, vectorised
above :data:`~repro.crypto.aes.VECTOR_THRESHOLD_BLOCKS` blocks).  The
outputs are asserted byte-identical and the run *fails* if the
accelerated path is less than 3x faster in wall time.

Besides the pytest check, this file is a script::

    PYTHONPATH=src python benchmarks/bench_ctr.py --quick --out run.jsonl

emitting the perf-gate JSONL layout (meta line + phase rows) that
``benchmarks/compare_bench.py`` diffs against
``benchmarks/results/perf_baseline_ctr.jsonl``.  Count/bytes/virtual
columns are deterministic under the pinned seed; wall times are
calibration-normalised by the gate.  The kernel-speedup gate runs
in-script, so a baseline diff is not needed to catch a fast path that
silently stopped being fast.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from os import path
from typing import List, Optional

try:
    import repro  # noqa: F401
except ImportError:  # script mode from a checkout without PYTHONPATH
    sys.path.insert(0, path.join(path.dirname(__file__), "..", "src"))

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
# Script mode: structured JSONL for the CI perf gate
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    try:
        from bench_engine import calibration_seconds  # script mode
    except ImportError:
        from benchmarks.bench_engine import calibration_seconds
    from repro.obs import write_jsonl

    parser = argparse.ArgumentParser(
        description="CTR fast-path benchmark (JSONL for the CI perf gate)"
    )
    parser.add_argument("--quick", action="store_true",
                        help="accepted for the perf gate's uniform command "
                             "line; the keystream workload is pinned")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default="",
                        help="JSONL output path (default stdout)")
    args = parser.parse_args(argv)

    calibration = calibration_seconds()

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

    keystream_bytes = _KEYSTREAM_MESSAGES * _KEYSTREAM_BLOCKS * 16
    rows = [{
        "kind": "meta",
        "seed": args.seed,
        "calibration_s": calibration,
        # Informational (gated in-script, not by the baseline diff).
        "kernel_speedup": speedup,
    }]
    rows.append({
        "kind": "phase", "name": "keystream.reference",
        "count": _KEYSTREAM_MESSAGES * _KEYSTREAM_BLOCKS,
        "bytes": keystream_bytes,
        "virtual_s": 0.0, "wall_s": ref_wall,
    })
    rows.append({
        "kind": "phase", "name": "keystream.accel",
        "count": _KEYSTREAM_MESSAGES * _KEYSTREAM_BLOCKS,
        "bytes": keystream_bytes,
        "virtual_s": 0.0, "wall_s": accel_wall,
    })
    if args.out:
        written = write_jsonl(args.out, rows)
        print(f"wrote {written} rows "
              f"(kernel speedup {speedup:.1f}x) to {args.out}")
    else:
        import json

        for row in rows:
            print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
