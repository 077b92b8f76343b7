"""One process-wide crypto worker: the back half of every large kernel batch.

Eq. 8 makes a request's cost ``2(k + 1)`` frame sealings and openings, and
the kernel that does them (:meth:`CipherSuite._encrypt_batch
<repro.crypto.suite.CipherSuite._encrypt_batch>` / ``_decrypt_batch``) is
almost all of a request's wall time.  Its rows are independent, so a
second CPU can take half of them.  It has to be a second *process*:
``hashlib`` keeps the GIL for inputs under 2 KiB, so a second thread runs
no row in parallel (DESIGN.md §10, "Two CPUs, one kernel").

The :class:`Lane` is the handle on that process, ``python -m
repro.crypto.lane``, started at the first batch of at least
:data:`MIN_ROWS` rows on a machine with two CPUs or more.  Parent and
worker share one anonymous memory mapping and talk over a pipe pair:

* the parent copies the back ``⌊n/2⌋`` rows of a uniform batch (and, to
  seal, their nonces, drawn with all the others before the split) into
  the mapping and writes one fixed-size request — the operation, the
  suite's backend and its two derived frame keys, the shape;
* it runs the same row kernel on the front rows meanwhile;
* the worker runs the row kernel on its rows, in place in the mapping,
  and answers with the indices of the rows that failed their MAC;
* the parent copies the worker's rows out of the mapping.

Between requests the worker polls its pipe for :data:`_POLL_S` before it
blocks, so that a busy caller's worker keeps a CPU of its own instead of
being woken onto the caller's.

The split changes no byte: each row's frame depends on its plaintext,
nonce and keys alone.  Every fallback is the same row kernel run inline
on all rows: a batch below :data:`MIN_ROWS`, a worker not yet ready
(start-up never blocks a batch), a process forked from the lane's owner,
and a worker that died — a short read or end of file on the reply pipe
recomputes its rows inline and turns the lane off for good.  A lane
another thread is using is waited for, not bypassed: the wait releases
the GIL, so the holder's front half runs meanwhile, and the waiter's back
half then goes to the same worker.

The worker is inside the simulated coprocessor boundary: it receives the
derived frame keys (never the master key) and keeps a few suites built
from them.  It never starts a lane of its own.
"""

from __future__ import annotations

import atexit
import mmap
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Callable, List, Optional

import numpy as np

from .modes import NONCE_SIZE
from .suite import CipherSuite

__all__ = ["Lane", "MIN_ROWS", "OPEN", "SEAL", "process_lane"]

#: Smallest batch whose back half goes to the worker.  Measured on a
#: 2-vCPU VM: a pipe round trip costs 6–16 µs warm and 13–34 µs after
#: 1 ms of caller work, and each 1 KB row handed over saves 7–10 µs of
#: SHAKE and HMAC on the caller's CPU, so the 16 rows of a 32-row batch
#: pay for a cold round trip and the copies more than twice over.
MIN_ROWS = 32

#: Row kernel operations (``CipherSuite._seal_rows`` / ``_open_rows``).
SEAL = 1
OPEN = 2

_READY = b"R"
# operation, backend name, rows, input row width, output row width,
# mapping size, frame encryption key, frame MAC key.
_REQUEST = struct.Struct("<B8sIIIQ16s32s")
_COUNT = struct.Struct("<I")
#: Suites the worker keeps, least recently used first out: one per live
#: key pair (a database's key, a rotation's legacy key, each member of an
#: in-process cluster).
_WORKER_SUITES = 8
_EXIT_TIMEOUT_S = 5.0
#: How long the worker polls for its next request before it blocks.  A
#: blocked worker is woken onto whichever CPU the scheduler picks, and on
#: a VM that is often the caller's own once the other vCPU has idled for
#: a while: the two halves then run one after the other.  Polling through
#: the gaps between a busy caller's batches (tens to hundreds of µs)
#: keeps the worker on its own CPU; it yields that CPU to anything else
#: runnable while it polls, and an idle caller costs it one millisecond.
_POLL_S = 0.001
# The directory that holds this ``repro`` package: the worker imports it
# from there, whatever the caller's working directory holds.
_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _row_kernel(op: int, suite) -> Callable[[np.ndarray, np.ndarray], List[int]]:
    return suite._seal_rows if op == SEAL else suite._open_rows


def _read_exact(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``; :class:`EOFError` if it ends first."""
    parts = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError
        parts.append(chunk)
        size -= len(chunk)
    return b"".join(parts)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _anonymous_file() -> int:
    """A descriptor of a file with no name anywhere (nothing can be left
    behind in ``/dev/shm`` or a temp directory)."""
    if hasattr(os, "memfd_create"):
        return os.memfd_create("repro-crypto-lane")
    with tempfile.TemporaryFile() as handle:  # unlinked at creation
        return os.dup(handle.fileno())


def _views(shared, rows: int, in_width: int, out_width: int):
    """The input and output row matrices laid out back to back in ``shared``."""
    split = rows * in_width
    return (
        np.frombuffer(shared, np.uint8, split).reshape(rows, in_width),
        np.frombuffer(shared, np.uint8, rows * out_width, split).reshape(
            rows, out_width
        ),
    )


class Lane:
    """The handle on one crypto worker process and the memory it shares.

    The kernel calls :meth:`share`; nothing else about the lane is
    visible to a caller.  ``batches`` counts the batches whose back half
    the worker ran.
    """

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.batches = 0
        self._lock = threading.Lock()
        self._off = False
        self._ready = False
        self._proc: Optional[subprocess.Popen] = None
        self._shape = (0, 0, 0)  # rows, input and output width in flight
        self._requests = -1
        self._replies = -1
        self._shared = -1
        self._map: Optional[mmap.mmap] = None

    @property
    def pid(self) -> Optional[int]:
        """The worker's process id, while there is a worker."""
        return None if self._proc is None else self._proc.pid

    @property
    def live(self) -> bool:
        """Whether the next large batch would be shared."""
        return self._ready and not self._off

    def share(self, op: int, suite, rows: np.ndarray, out: np.ndarray) -> List[int]:
        """Run ``suite``'s ``op`` row kernel from ``rows`` into ``out``,
        the back half on the worker when the lane can take it.  Returns
        the failing row indices in order: the union of both sides'."""
        kernel = _row_kernel(op, suite)
        count = len(rows)
        if count < MIN_ROWS or not self._claim():
            return kernel(rows, out)
        try:
            front = count - count // 2
            handed = self._submit(op, suite._lane_keys, rows[front:], out[front:])
            try:
                failed = kernel(rows[:front], out[:front])
            finally:
                # Always read the reply, so the next batch does not.
                back = self._collect(out[front:]) if handed else None
            if back is None:
                back = kernel(rows[front:], out[front:])
            else:
                self.batches += 1
            return failed + [front + row for row in back]
        finally:
            self._lock.release()

    # -- parent side ----------------------------------------------------------

    def _claim(self) -> bool:
        """Take the lane for one batch: False (run inline) when it is off,
        not this process's, or its worker is not ready yet.  A lane held
        by another thread's batch is waited for (the lock's wait releases
        the GIL); the holder may turn the lane off meanwhile."""
        if self._off or self.owner != os.getpid():
            return False
        self._lock.acquire()
        if not (self._ready or self._off):
            if self._proc is None:
                self._start()
            else:
                self._poll_ready()
        if self._ready and not self._off:
            return True
        self._lock.release()
        return False

    def _start(self) -> None:
        """Spawn the worker without waiting for it: batches run inline
        until its ready byte arrives."""
        if _cpus() < 2:
            self._off = True
            return
        opened: List[int] = []
        try:
            self._shared = _anonymous_file()
            opened.append(self._shared)
            request_r, self._requests = os.pipe()
            opened += [request_r, self._requests]
            self._replies, reply_w = os.pipe()
            opened += [self._replies, reply_w]
            worker_fds = (request_r, reply_w, self._shared)
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            self._proc = subprocess.Popen(
                [sys.executable, "-m", __name__, *map(str, worker_fds)],
                pass_fds=worker_fds, cwd=_ROOT, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            )
        except OSError:
            for fd in opened:
                os.close(fd)
            self._requests = self._replies = self._shared = -1
            self._off = True
            return
        # The worker's ends: closing them here is what makes a dead
        # worker read as end of file.
        os.close(request_r)
        os.close(reply_w)
        os.set_blocking(self._replies, False)
        atexit.register(self.close)

    def _poll_ready(self) -> None:
        try:
            byte = os.read(self._replies, 1)
        except BlockingIOError:
            return
        if byte != _READY:
            self._shut()
            return
        os.set_blocking(self._replies, True)
        self._ready = True

    def _submit(self, op: int, keys, rows: np.ndarray, out: np.ndarray) -> bool:
        """Put the worker's rows in the mapping and send the request."""
        count, in_width = rows.shape
        out_width = out.shape[1]
        backend, enc_key, mac_key = keys
        try:
            self._reserve(count * (in_width + out_width))
            self._shape = (count, in_width, out_width)
            shared_in, shared_out = _views(self._map, *self._shape)
            shared_in[...] = rows
            if op == SEAL:
                shared_out[:, :NONCE_SIZE] = out[:, :NONCE_SIZE]
            # No view outlives the copy-in: a worker already gone breaks
            # the pipe, and the mapping cannot close while one exists.
            del shared_in, shared_out
            _write_all(self._requests, _REQUEST.pack(
                op, backend.encode(), count, in_width, out_width,
                len(self._map), enc_key, mac_key,
            ))
        except OSError:
            self._shut()
            return False
        return True

    def _collect(self, out: np.ndarray) -> Optional[List[int]]:
        """The worker's failing rows, its output copied into ``out``;
        None if the worker is gone (the lane is then off)."""
        try:
            (failures,) = _COUNT.unpack(_read_exact(self._replies, _COUNT.size))
            failed = list(struct.unpack(
                f"<{failures}I", _read_exact(self._replies, 4 * failures)
            ))
        except (OSError, EOFError):
            self._shut()
            return None
        except BaseException:  # interrupted mid-reply: out of step for good
            self._shut()
            raise
        if not failed:
            out[...] = _views(self._map, *self._shape)[1]
        return failed

    def _reserve(self, size: int) -> None:
        """Grow the mapping to hold ``size`` bytes (it keeps the largest
        batch seen; the worker re-maps when the size it is sent moves)."""
        if self._map is not None and len(self._map) >= size:
            return
        current = 0 if self._map is None else len(self._map)
        size = max(size, 2 * current)
        size = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
        os.ftruncate(self._shared, size)
        self._release_map()
        self._map = mmap.mmap(self._shared, size)

    def _release_map(self) -> None:
        # No view of the mapping outlives the batch that made it.
        if self._map is not None:
            self._map.close()
            self._map = None

    def _shut(self, graceful: bool = False) -> None:
        """Turn the lane off for good: release every descriptor and reap
        the worker — ``graceful``: a ready worker sees end of input and
        exits by itself; any other is killed."""
        self._off = True
        for name in ("_requests", "_replies", "_shared"):
            fd = getattr(self, name)
            if fd >= 0:
                os.close(fd)
                setattr(self, name, -1)
        self._release_map()
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if graceful and self._ready:  # else it is still importing: kill
            try:
                proc.wait(timeout=_EXIT_TIMEOUT_S)
                return
            except subprocess.TimeoutExpired:
                pass
        proc.kill()
        proc.wait()

    def close(self) -> None:
        """Stop the worker and release the mapping; the lane stays off.

        Registered with :mod:`atexit` when the worker starts.  Idempotent,
        and a no-op in a process forked from the owner (the worker is its
        parent's).
        """
        if self.owner != os.getpid():
            return
        # Not in the middle of another thread's batch, if it can be
        # helped: that batch would see end of file and finish inline.
        held = self._lock.acquire(timeout=_EXIT_TIMEOUT_S)
        try:
            self._shut(graceful=True)
        finally:
            if held:
                self._lock.release()


_LANE = Lane()


def process_lane() -> Lane:
    """The lane every :class:`~repro.crypto.suite.CipherSuite` of this
    process shares."""
    return _LANE


# -- worker side --------------------------------------------------------------


def _next_request(fd: int) -> bytes:
    """The worker's next request: polled for up to :data:`_POLL_S`,
    then waited for."""
    head = b""
    deadline = time.perf_counter() + _POLL_S
    os.set_blocking(fd, False)
    try:
        while not head and time.perf_counter() < deadline:
            try:
                head = os.read(fd, _REQUEST.size)
            except BlockingIOError:
                os.sched_yield()
                continue
            if not head:
                raise EOFError
    finally:
        os.set_blocking(fd, True)
    return head + _read_exact(fd, _REQUEST.size - len(head))


def serve(requests: int, replies: int, shared: int) -> None:
    """The worker: run the row kernel on each request's rows in the shared
    mapping until the parent closes the request pipe."""
    _LANE._off = True  # the worker's own suites never start a worker
    # A terminal's Ctrl-C is the parent's to handle; the worker ends when
    # the parent's end of the request pipe closes.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    suites: "OrderedDict[bytes, CipherSuite]" = OrderedDict()
    mapping: Optional[mmap.mmap] = None
    try:
        _write_all(replies, _READY)
        while True:
            request = _next_request(requests)
            op, backend, count, in_width, out_width, size, enc_key, mac_key = (
                _REQUEST.unpack(request)
            )
            if mapping is None or len(mapping) != size:
                mapping = mmap.mmap(shared, size)
            key = request[1:9] + enc_key + mac_key
            suite = suites.pop(key, None)
            if suite is None:
                suite = CipherSuite._for_frame_keys(
                    backend.rstrip(b"\0").decode(), enc_key, mac_key
                )
            suites[key] = suite
            if len(suites) > _WORKER_SUITES:
                suites.popitem(last=False)
            rows, out = _views(mapping, count, in_width, out_width)
            failed = _row_kernel(op, suite)(rows, out)
            _write_all(
                replies,
                _COUNT.pack(len(failed)) + struct.pack(f"<{len(failed)}I", *failed),
            )
    except (EOFError, BrokenPipeError):  # the parent closed its ends or exited
        return


if __name__ == "__main__":
    # Run the package's copy of this module, not ``__main__``: that copy's
    # lane is the one the suites consult.
    from repro.crypto.lane import serve as _serve

    _serve(*(int(fd) for fd in sys.argv[1:4]))
