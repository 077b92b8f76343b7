"""The crypto lane: one worker process takes the back half of a large batch.

The lane must never change a byte or an authentication verdict, whatever
the split, and it must fall back to the inline row kernel — the same
function over every row — when it cannot be used: too small a batch, a
dead worker, a process that is not the lane's owner, one CPU.  A lane
another thread holds is waited for, not bypassed.  These tests
drive a lane of their own (installed as the process lane for one test),
except where the process's own worker is what is counted.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.crypto import lane as lane_module
from repro.crypto.lane import MIN_ROWS, Lane, process_lane
from repro.crypto.rng import SecureRandom
from repro.crypto.suite import BACKENDS, CipherSuite
from repro.errors import AuthenticationError

from tests.helpers import wait_until

MASTER = b"lane master key"
WIDTH = 200
ROW_COUNTS = (MIN_ROWS - 1, MIN_ROWS, 94, 256)
LANE_MODULE = "repro.crypto.lane"

two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2
    if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1) < 2,
    reason="the lane starts a worker only with two CPUs or more",
)


def _plain(count: int) -> np.ndarray:
    return (np.arange(count * WIDTH, dtype=np.uint32) * 7 % 251).astype(
        np.uint8
    ).reshape(count, WIDTH)


def _suite(backend: str, member: int = 0) -> CipherSuite:
    """A suite of its own for each ``member`` (key and nonce stream)."""
    return CipherSuite(
        MASTER + bytes(member), backend=backend, rng=SecureRandom(11 + member)
    )


def _start(lane: Lane) -> None:
    """Run large batches until the lane's worker is ready."""
    suite = _suite("null")
    plain = _plain(MIN_ROWS)

    def ready() -> bool:
        suite.encrypt_pages(plain)
        return lane.live

    assert wait_until(ready, timeout=60.0), "the lane's worker never got ready"


@pytest.fixture
def fresh_lane(monkeypatch):
    """A new lane, installed as the process lane for one test."""
    lane = Lane()
    monkeypatch.setattr(lane_module, "_LANE", lane)
    yield lane
    lane.close()


@pytest.fixture
def inline(monkeypatch):
    """Install a lane that is off: every batch runs inline."""

    def install() -> None:
        off = Lane()
        off._off = True
        monkeypatch.setattr(lane_module, "_LANE", off)

    return install


def _lane_descendants(root: int) -> list:
    """Every ``repro.crypto.lane`` process below ``root``, as (pid, parent)."""
    found, stack = [], [root]
    while stack:
        pid = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children") as handle:
                    children = [int(child) for child in handle.read().split()]
            except FileNotFoundError:
                continue
            for child in children:
                try:
                    with open(f"/proc/{child}/cmdline", "rb") as handle:
                        argv = handle.read().split(b"\0")
                except FileNotFoundError:
                    continue
                if LANE_MODULE.encode() in argv:
                    found.append((child, pid))
                stack.append(child)
    return found


@two_cpus
class TestByteIdentity:
    @pytest.mark.parametrize("count", ROW_COUNTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lane_and_inline_agree(self, fresh_lane, inline, backend, count):
        _start(fresh_lane)
        plain = _plain(count)
        shared = _suite(backend)
        before = fresh_lane.batches
        frames = shared.encrypt_pages(plain)
        opened = shared.decrypt_pages(frames)
        handed = 2 if count >= MIN_ROWS else 0
        assert fresh_lane.batches - before == handed
        next_draw = shared._rng.token(8)

        inline()
        alone = _suite(backend)
        assert np.array_equal(frames, alone.encrypt_pages(plain))
        assert np.array_equal(opened, plain)
        assert np.array_equal(alone.decrypt_pages(frames), plain)
        # The nonces of all n rows were drawn before the split.
        assert alone._rng.token(8) == next_draw

    @pytest.mark.parametrize("tampered", [(3,), (80,), (3, 80), (0, 46, 47, 93)],
                             ids=["front", "back", "both", "edges"])
    def test_tampered_rows_fail_as_inline(self, fresh_lane, inline, tampered):
        _start(fresh_lane)
        suite = _suite("shake")
        frames = suite.encrypt_pages(_plain(94))
        for row in tampered:
            frames[row, 20] ^= 0x01
        before = fresh_lane.batches
        with pytest.raises(AuthenticationError) as shared:
            suite.decrypt_pages(frames)
        assert fresh_lane.batches == before + 1
        inline()
        with pytest.raises(AuthenticationError) as alone:
            _suite("shake").decrypt_pages(frames)
        assert shared.value.failed == alone.value.failed == tampered
        assert str(shared.value) == str(alone.value)


@two_cpus
class TestFallback:
    @staticmethod
    def _kill_and_recompute(lane, inline, kill, waiter: bool = False) -> None:
        """``kill(proc)`` ends the live worker; the next large batch must
        recompute the worker's rows inline and turn the lane off.
        ``waiter``: a second thread's batch waits for the lane that batch
        holds, and must run inline once it gets it."""
        _start(lane)
        started = lane.batches
        kill(lane._proc)
        plain = _plain(256)
        suite = _suite("shake")
        waited = []

        def wait_and_seal():
            # Once the batch below holds the lane.
            wait_until(lane._lock.locked, timeout=60.0)
            waited.append(_suite("shake", member=1).encrypt_pages(plain))

        second = threading.Thread(target=wait_and_seal) if waiter else None
        if second:
            second.start()
        frames = suite.encrypt_pages(plain)
        if second:
            second.join(timeout=60.0)
            assert not second.is_alive(), "the waiting batch hung"
        assert np.array_equal(suite.decrypt_pages(frames), plain)
        assert lane.batches == started  # no batch since the kill was shared
        assert not lane.live and lane.pid is None
        batches = lane.batches
        suite.encrypt_pages(plain)
        assert lane.batches == batches
        lane.close()  # a second shut releases nothing twice
        inline()
        assert np.array_equal(frames, _suite("shake").encrypt_pages(plain))
        if second:
            alone = _suite("shake", member=1).encrypt_pages(plain)
            assert np.array_equal(waited[0], alone)

    def test_killed_worker_recomputes_inline_and_turns_the_lane_off(
            self, fresh_lane, inline):
        """Gone (and reaped) before the request is written: the write
        breaks the pipe, and the lane shuts its mapping mid-batch."""

        def kill(proc):
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()

        self._kill_and_recompute(fresh_lane, inline, kill)

    def test_worker_killed_while_awaited_recomputes_inline(
            self, fresh_lane, inline):
        """Gone after the request is written: stopped, so the request
        waits in the pipe, and killed while the parent waits for the
        reply, which then ends in end of file."""
        timers = []

        def kill(proc):
            os.kill(proc.pid, signal.SIGSTOP)
            timers.append(
                threading.Timer(0.2, os.kill, (proc.pid, signal.SIGKILL))
            )
            timers[0].start()

        try:
            self._kill_and_recompute(fresh_lane, inline, kill)
        finally:
            for timer in timers:
                timer.join()

    def test_a_batch_waiting_behind_a_stopped_worker_runs_inline(
            self, fresh_lane, inline):
        """One thread's batch holds the lane while the worker is stopped
        and a second thread's batch waits for it.  Once the worker is
        killed, the holder recomputes inline and turns the lane off, and
        the waiter, given the lane, runs inline."""
        timers = []

        def kill(proc):
            os.kill(proc.pid, signal.SIGSTOP)
            timers.append(
                threading.Timer(0.5, os.kill, (proc.pid, signal.SIGKILL))
            )
            timers[0].start()

        try:
            self._kill_and_recompute(fresh_lane, inline, kill, waiter=True)
        finally:
            for timer in timers:
                timer.join()

    def test_a_process_that_is_not_the_owner_runs_inline(self, fresh_lane):
        _start(fresh_lane)
        worker = fresh_lane.pid
        owner = fresh_lane.owner
        fresh_lane.owner = owner + 1  # as a child forked from the owner sees it
        try:
            batches = fresh_lane.batches
            plain = _plain(256)
            suite = _suite("shake")
            assert np.array_equal(
                suite.decrypt_pages(suite.encrypt_pages(plain)), plain
            )
            assert fresh_lane.batches == batches
            fresh_lane.close()  # not the owner's: leaves the worker alone
            assert fresh_lane.pid == worker and fresh_lane.live
        finally:
            fresh_lane.owner = owner

    def test_one_cpu_starts_no_worker(self, fresh_lane):
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            suite = _suite("shake")
            plain = _plain(256)
            assert np.array_equal(
                suite.decrypt_pages(suite.encrypt_pages(plain)), plain
            )
        finally:
            os.sched_setaffinity(0, mask)
        assert fresh_lane.pid is None and not fresh_lane.live
        assert fresh_lane.batches == 0


@two_cpus
class TestBusyLane:
    """A lane another thread holds is waited for: the waiting batch's back
    half goes to the same worker once the holder is done."""

    def test_a_held_lane_is_waited_for(self, fresh_lane, inline):
        _start(fresh_lane)
        plain = _plain(94)
        suite = _suite("shake")
        before = fresh_lane.batches
        sealed = []
        thread = threading.Thread(
            target=lambda: sealed.append(suite.encrypt_pages(plain))
        )
        with fresh_lane._lock:
            thread.start()
            thread.join(timeout=0.2)
            assert thread.is_alive(), "the batch ran inline past a held lane"
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert fresh_lane.batches == before + 1
        inline()
        assert np.array_equal(sealed[0], _suite("shake").encrypt_pages(plain))

    def test_concurrent_threads_share_every_batch_with_one_worker(
            self, fresh_lane, inline):
        """More threads than a 2-CPU machine has cores, switching often:
        every batch of every thread is shared, each thread's frames and
        nonce stream are its inline run's, and there is still one worker."""
        rounds = 8
        me = os.getpid()
        counted = os.path.exists(f"/proc/{me}/task/{me}/children")
        # The process lane's own worker, if an earlier test started it.
        others = {pid for pid, _ in _lane_descendants(me)} if counted else set()
        _start(fresh_lane)
        plain = _plain(94)
        members = (1, 2, 3)
        suites = [_suite("shake", member) for member in members]
        results = [[] for _ in suites]
        together = threading.Barrier(len(suites))

        def run(suite, out):
            together.wait(timeout=60.0)
            for _ in range(rounds):
                frames = suite.encrypt_pages(plain)
                out.append((frames, suite.decrypt_pages(frames)))
            out.append(suite._rng.token(8))

        before = fresh_lane.batches
        threads = [
            threading.Thread(target=run, args=pair)
            for pair in zip(suites, results)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert fresh_lane.batches - before == 2 * len(suites) * rounds
        if counted:
            workers = [
                entry for entry in _lane_descendants(me)
                if entry[0] not in others
            ]
            assert workers == [(fresh_lane.pid, me)]

        inline()
        for member, result in zip(members, results):
            alone = _suite("shake", member)
            for frames, opened in result[:-1]:
                assert np.array_equal(frames, alone.encrypt_pages(plain))
                assert np.array_equal(opened, plain)
                assert np.array_equal(alone.decrypt_pages(frames), plain)
            # Each thread's nonces came from its own suite's stream.
            assert alone._rng.token(8) == result[-1]


@two_cpus
class TestOneWorker:
    def test_exactly_one_worker_descends_from_this_process(self):
        if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
            pytest.skip("no /proc/<pid>/task/<tid>/children here")
        lane = process_lane()
        _start(lane)
        suite = _suite("shake")
        suite.encrypt_pages(_plain(256))
        # The worker is this process's child, and it started none.
        assert _lane_descendants(os.getpid()) == [(lane.pid, os.getpid())]

    def test_exit_leaves_no_worker_and_no_resource_warning(self, tmp_path):
        # A BENCH-shaped database (1 KB pages, the shake keystream) built,
        # served until the lane is live, and closed.
        script = textwrap.dedent("""
            from repro import PirDatabase
            from repro.baselines import make_records
            from repro.crypto.lane import process_lane
            from tests.helpers import wait_until

            db = PirDatabase.create(
                make_records(4096, 1024), cache_capacity=64, target_c=2.0,
                page_capacity=1024, cipher_backend="shake", seed=7,
            )
            lane = process_lane()
            assert wait_until(lambda: db.query(5) and lane.live, timeout=60)
            print(lane.pid, flush=True)
            db.close()
        """)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src") + os.pathsep + root)
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-c", script], cwd=str(tmp_path),
            env=env, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode == 0, done.stderr
        assert "Warning" not in done.stderr, done.stderr
        worker = int(done.stdout.split()[-1])
        try:
            with open(f"/proc/{worker}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except FileNotFoundError:
            argv = []
        assert LANE_MODULE.encode() not in argv
