"""Host-speed reference for bench_e2e.

This sandbox's CPU speed moves by a factor of two for seconds at a time
with the machine otherwise idle (identical ``db.query`` loops measured 55 to
273 ops/s per half second over two minutes; process CPU time equals wall
time throughout, so it is the host, not scheduling).  No statistic of a
five-second run is steady against that, so every timed interval is
bracketed by a fixed calibration kernel and reported at *reference speed*:
``duration * REFERENCE_S / kernel_seconds``.  Interleaved every 50-100 ms
this cut the run-to-run spread of ``ops_per_s`` from 0.21 to 0.02 (IQR /
median, twenty 5 s runs of ``inproc_read``).

The kernel is independent of the program under test: keyed hashing, byte
joins and big-integer XOR over 1 KB buffers, the instruction mix of a page
store's hot loop.  It must not change when the program does; changing it
or ``REFERENCE_S`` invalidates every recorded baseline.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import List, Sequence

#: Kernel time on the reference machine (this sandbox's median).
REFERENCE_S = 0.0005

_BASE = hashlib.blake2b(key=b"k" * 32, digest_size=64)
_PAGE = bytes(range(256)) * 4


def kernel_seconds() -> float:
    """Run the fixed kernel once; its wall time is the host-speed sample."""
    started = time.perf_counter()
    for _ in range(24):
        parts = []
        for index in range(16):
            block = _BASE.copy()
            block.update(index.to_bytes(8, "big"))
            parts.append(block.digest())
        mixed = (int.from_bytes(_PAGE, "big")
                 ^ int.from_bytes(b"".join(parts), "big")).to_bytes(1024, "big")
        hashlib.sha256(mixed).digest()
    return time.perf_counter() - started


def stolen_seconds() -> float:
    """CPU time the hypervisor has kept from this machine since boot (the
    ``steal`` column of ``/proc/stat``); 0 where it is not reported.

    The kernel above does not see stolen time (it reads ~600 us whether or
    not the host is taking a CPU away), but the program does: bursts with
    0 / 1 / 2 / 4 stolen clock ticks ran at 169 / 157 / 148 / 117 ops/s on
    ``tcp_single``.  So bursts are also *gated* on it: see ``run.quiet``.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = int(handle.readline().split()[8])
        return ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, AttributeError, IndexError, ValueError):
        return 0.0


def to_reference(samples: Sequence[float]) -> float:
    """Factor that turns a duration measured between ``samples`` (kernel
    times taken around it) into the duration at reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)


class SpeedSampler(threading.Thread):
    """Runs the kernel every 50 ms beside work that cannot be cut into
    bursts (a deployment's set-up).  The kernel is shorter than the
    interpreter's switch interval, so a sample is not itself preempted."""

    def __init__(self) -> None:
        super().__init__(name="speed-sampler", daemon=True)
        self.samples: List[float] = [kernel_seconds()]
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(0.05):
            self.samples.append(kernel_seconds())

    def finish(self) -> List[float]:
        self._done.set()
        self.join()
        return self.samples
