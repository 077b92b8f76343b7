"""Idle-time keystream prefetch for the round-robin scan.

The engine's scan order is deterministic (Figure 3 reads block
``next_block_index`` on every request, advancing round-robin), and a CTR
decrypt keystream depends only on (key, nonce) — both known *before* the
next request arrives: the key lives in the coprocessor and the nonce of
every stored frame was chosen by the coprocessor itself on the frame's
last write (it is also the frame header the server already sees, so
remembering it inside the boundary leaks nothing).  A
:class:`KeystreamPipeline` exploits that: after each request commits, the
engine hands it the locations of the next round-robin block and the
pipeline computes their decrypt keystreams — synchronously by default, or
on a background worker thread with ``background=True`` — so the next
request's :meth:`~repro.crypto.suite.CipherSuite.decrypt_pages` only has
to XOR.

Determinism contract (load-bearing for the PR-3 parallel-vs-serial
byte-equality): the pipeline **never draws randomness and never advances
the virtual clock**.  It only *reads* nonces recorded at write-back and
recomputes the pure function ``keystream(key, nonce, length)`` that the
inline path would compute anyway, so enabling it — in either mode —
changes no frame bytes, no RNG stream, no virtual-time charge, and no
trace entry; only wall time.  Hits consume their entry (each stored frame
is decrypted at most once before being rewritten with a fresh nonce);
a miss falls back to inline computation.

Memory is bounded by ``max_bytes`` of cached keystream; inserting past
the bound evicts the oldest entries (``pipeline.evicted`` counts them).
Counters (``pipeline.hit`` / ``pipeline.miss`` / ``pipeline.prefetched``
/ ``pipeline.evicted``) mirror into a
:class:`~repro.obs.registry.MetricsRegistry` when one is supplied.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.metrics import CounterSet

__all__ = ["KeystreamPipeline", "PIPELINE_MODES"]

#: Accepted values for the ``keystream_pipeline`` database option.
PIPELINE_MODES = ("sync", "background")

_DEFAULT_MAX_BYTES = 1 << 20  # 1 MiB of cached keystream
_PENDING_WAIT_SECONDS = 5.0  # background safety net; never hit in practice


class KeystreamPipeline:
    """Caches decrypt keystreams for frames the scan will read next.

    The pipeline tracks, per disk location, which cipher suite sealed the
    frame currently stored there and under which nonce
    (:meth:`note_written`; suites are compared by identity, so a key
    rotation naturally partitions entries between the old and new key).
    :meth:`prefetch` computes the keystreams for a set of locations;
    :meth:`take` — called from inside the suite's keystream path — hands a
    cached keystream to exactly one consumer.

    Thread-safety: all public methods are safe to call from any thread.
    In background mode one daemon worker performs the keystream
    computation; :meth:`take` blocks on an entry that is still in flight
    (bounded wait), so hit/miss accounting stays deterministic regardless
    of scheduling.
    """

    def __init__(
        self,
        max_bytes: int = _DEFAULT_MAX_BYTES,
        background: bool = False,
        metrics=None,
    ):
        if max_bytes <= 0:
            raise ConfigurationError("pipeline max_bytes must be positive")
        self.max_bytes = max_bytes
        self.background = background
        self.counters = CounterSet(registry=metrics, prefix="pipeline.")
        self._lock = threading.Lock()
        # location -> (sealing suite, nonce) for every frame we saw written.
        self._nonces: Dict[int, Tuple[object, bytes]] = {}
        # (suite id, nonce) -> keystream bytes, oldest first.
        self._ready: "OrderedDict[Tuple[int, bytes], bytes]" = OrderedDict()
        self._ready_bytes = 0
        # Entries a background worker is still computing.
        self._pending: Dict[Tuple[int, bytes], threading.Event] = {}
        self._queue: list = []
        self._queue_signal = threading.Condition(self._lock)
        self._closed = False
        self._worker: Optional[threading.Thread] = None
        if background:
            self._worker = threading.Thread(
                target=self._worker_loop, name="keystream-prefetch", daemon=True
            )
            self._worker.start()

    # -- write-side bookkeeping ------------------------------------------------

    def note_written(self, location: int, suite, nonce: bytes) -> None:
        """Record that ``suite`` sealed the frame now stored at ``location``."""
        with self._lock:
            self._nonces[location] = (suite, nonce)

    def note_written_frames(
        self, locations: Iterable[int], suite, frames: Iterable[bytes]
    ) -> None:
        """Batch :meth:`note_written`, reading each nonce from its frame header.

        Replacing a location's nonce also drops any keystream still cached
        for the *old* nonce: that frame no longer exists on disk, so the
        entry could never be consumed and would only squat on ``max_bytes``
        until evicted.  The background reshuffler rewrites frames the
        engine has already prefetched, which is where these orphans come
        from (``stale_dropped`` counts them).
        """
        from .modes import NONCE_SIZE

        with self._lock:
            for location, frame in zip(locations, frames):
                old = self._nonces.get(location)
                self._nonces[location] = (suite, frame[:NONCE_SIZE])
                if old is None:
                    continue
                old_key = (id(old[0]), old[1])
                if old_key == (id(suite), frame[:NONCE_SIZE]):
                    # Identical rewrite (recovery replay): still current.
                    continue
                orphan = self._ready.pop(old_key, None)
                if orphan is not None:
                    self._ready_bytes -= len(orphan)
                    self.counters.increment("stale_dropped")

    def note_batch_window(self, block_frames: int, extra_frames: int) -> None:
        """Account one fused batch window in the pipeline's counters.

        The fused engine decrypts a whole window (k block frames plus one
        extra per executed op) through single suite calls, so per-frame
        hit/miss counters alone under-describe its behaviour; these
        aggregates let benchmarks attribute keystream work to windows.
        """
        self.counters.increment("batch.windows")
        self.counters.increment("batch.block_frames", block_frames)
        self.counters.increment("batch.extra_frames", extra_frames)

    # -- prefetch --------------------------------------------------------------

    def prefetch(self, locations: Iterable[int], length: int) -> int:
        """Precompute decrypt keystreams of ``length`` bytes for ``locations``.

        Locations with no recorded nonce (never seen written) are skipped;
        already-cached or in-flight entries are not recomputed.  Returns
        the number of keystream bytes scheduled (sync mode: computed
        before returning).
        """
        if length <= 0:
            return 0
        jobs = []
        with self._lock:
            if self._closed:
                return 0
            for location in locations:
                entry = self._nonces.get(location)
                if entry is None:
                    continue
                suite, nonce = entry
                key = (id(suite), nonce)
                if key in self._ready or key in self._pending:
                    continue
                self._pending[key] = threading.Event()
                jobs.append((key, suite, nonce, length))
            if jobs and self.background:
                self._queue.extend(jobs)
                self._queue_signal.notify()
        if not jobs:
            return 0
        if not self.background:
            self._compute_batch(jobs)
        return length * len(jobs)

    def _compute_batch(self, jobs) -> None:
        """Compute (key, suite, nonce, length) jobs, one fused call per suite.

        Each group is one pass of the suite's keystream-matrix kernel
        (:meth:`~repro.crypto.suite.CipherSuite.compute_keystreams` — on
        aes a single ``encrypt_blocks`` entry big enough for the
        vectorised lane), so prefetching a block costs no more than the
        inline batch decrypt it replaces.
        """
        by_suite: Dict[int, Tuple[object, list]] = {}
        for job in jobs:
            by_suite.setdefault(id(job[1]), (job[1], []))[1].append(job)
        for suite, group in by_suite.values():
            try:
                streams = suite.compute_keystreams(
                    [nonce for _, _, nonce, _ in group],
                    [length for _, _, _, length in group],
                )
            except Exception:
                streams = [None] * len(group)  # failure = a future miss
            with self._lock:
                for (key, _, _, _), keystream in zip(group, streams):
                    event = self._pending.pop(key, None)
                    if keystream is not None and not self._closed:
                        self._store(key, keystream)
                    if event is not None:
                        event.set()

    def set_max_bytes(self, max_bytes: int) -> None:
        """Re-bound the keystream cache at runtime (thread-safe).

        Shrinking evicts oldest entries down to the new bound immediately
        (keeping at least one, matching :meth:`_store`); growing simply
        lets future prefetches accumulate more.  The :mod:`repro.plan`
        controller uses this to trade host memory against hit rate.
        """
        if max_bytes <= 0:
            raise ConfigurationError("pipeline max_bytes must be positive")
        with self._lock:
            self.max_bytes = max_bytes
            while self._ready_bytes > self.max_bytes and len(self._ready) > 1:
                _, evicted = self._ready.popitem(last=False)
                self._ready_bytes -= len(evicted)
                self.counters.increment("evicted")

    def _store(self, key, keystream: bytes) -> None:
        """Insert under the byte bound, evicting oldest first.  Lock held."""
        if key in self._ready:
            return
        self._ready[key] = keystream
        self._ready_bytes += len(keystream)
        self.counters.increment("prefetched")
        while self._ready_bytes > self.max_bytes and len(self._ready) > 1:
            _, evicted = self._ready.popitem(last=False)
            self._ready_bytes -= len(evicted)
            self.counters.increment("evicted")

    # -- consume ---------------------------------------------------------------

    def take(self, suite, nonce: bytes, length: int) -> Optional[bytes]:
        """The cached keystream for (suite, nonce), or None on a miss.

        A hit consumes the entry.  An entry still being computed by the
        background worker is waited for (it was scheduled before the
        request arrived, so the wait is the tail of the compute, not the
        whole of it).
        """
        key = (id(suite), nonce)
        with self._lock:
            keystream = self._ready.pop(key, None)
            if keystream is not None:
                self._ready_bytes -= len(keystream)
                if len(keystream) >= length:
                    self.counters.increment("hit")
                    return keystream[:length]
                # Too short to serve (prefetched for a smaller payload):
                # drop it and fall through to the miss path.
                keystream = None
            event = self._pending.get(key)
        if event is not None and event.wait(_PENDING_WAIT_SECONDS):
            with self._lock:
                keystream = self._ready.pop(key, None)
                if keystream is not None and len(keystream) >= length:
                    self._ready_bytes -= len(keystream)
                    self.counters.increment("hit")
                    return keystream[:length]
        self.counters.increment("miss")
        return None

    # -- introspection ---------------------------------------------------------

    def hit_rate(self) -> float:
        """hits / (hits + misses) so far; 0.0 before any lookup."""
        hits = self.counters.get("hit")
        misses = self.counters.get("miss")
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def cached_bytes(self) -> int:
        """Bytes of keystream currently held (bounded by ``max_bytes``)."""
        with self._lock:
            return self._ready_bytes

    @property
    def known_locations(self) -> int:
        """Disk locations whose current nonce the pipeline has recorded."""
        with self._lock:
            return len(self._nonces)

    # -- lifecycle -------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._queue_signal.wait()
                if self._closed and not self._queue:
                    return
                # Drain everything queued so one wakeup computes a whole
                # block's worth of keystreams as one fused batch.
                jobs, self._queue = self._queue, []
            self._compute_batch(jobs)

    def close(self) -> None:
        """Stop the background worker and drop all cached state (idempotent)."""
        with self._lock:
            self._closed = True
            self._queue = []
            self._ready.clear()
            self._ready_bytes = 0
            for event in self._pending.values():
                event.set()
            self._pending.clear()
            self._queue_signal.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=_PENDING_WAIT_SECONDS)
            self._worker = None
