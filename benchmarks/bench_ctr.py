"""CTR fast-path benchmark: the T-table AES kernel.

The same pinned CTR keystream workload is generated twice through
:func:`repro.crypto.modes.ctr_keystream`, once with the byte-wise
reference AES and once with the accelerated kernel (T-tables, vectorised
above :data:`~repro.crypto.aes.VECTOR_THRESHOLD_BLOCKS` blocks).  The
outputs are asserted byte-identical and the run *fails* if the
accelerated path is less than 3x faster in wall time.

Both gates compare two measurements taken inside one process, so no
committed number is involved.
"""

from __future__ import annotations

import random
import time

from repro.crypto.aes import AES
from repro.crypto.modes import ctr_keystream

#: Pinned workload shape.
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
    headers = ["kernel", "wall (s)", "MB/s"]
    report.note(f"CTR keystream, {_KEYSTREAM_MESSAGES} messages x "
                f"{_KEYSTREAM_BLOCKS} blocks ({nbytes // 1024} KiB total)")
    report.table(
        headers,
        [
            ["reference", ref_wall, nbytes / ref_wall / 1e6],
            ["accel", accel_wall, nbytes / accel_wall / 1e6],
        ],
        terminal_only=headers,
    )
    report.note(f"kernel speedup: {speedup:.1f}x")
