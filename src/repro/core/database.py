"""High-level public API: a private page store over untrusted storage.

:class:`PirDatabase` wires together the whole stack — parameters (Eq. 6),
secure coprocessor, encrypted disk, initial oblivious permutation, retrieval
engine — behind a small surface:

>>> db = PirDatabase.create([b"alpha", b"beta", b"gamma"], cache_capacity=2,
...                         target_c=2.0, page_capacity=16, seed=7)
>>> db.query(1)
b'beta'

Everything observable by the server (disk trace, virtual-clock charges) is
reachable via :attr:`trace` and :attr:`clock` for analysis.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .engine import BatchOp, RetrievalEngine, run_one
from .params import SystemParameters
from ..crypto.rng import SecureRandom
from ..errors import ConfigurationError, PageDeletedError
from ..hardware.cache import RANDOM_POLICY
from ..hardware.coprocessor import SecureCoprocessor, SecureStorageReport
from ..hardware.specs import HardwareSpec
from ..obs.registry import registry_or_private
from ..obs.tracer import Tracer
from ..sim.clock import VirtualClock
from ..storage.disk import DiskStore
from ..storage.frames import frame_matrix
from ..storage.merkle import AuthenticatedDisk
from ..storage.page import FLAG_DELETED, Page, PageWindow, encode_rows
from ..storage.tiered import TieredDiskStore
from ..storage.trace import AccessTrace

__all__ = ["PirDatabase", "SHARED_WIRING", "PER_MEMBER_WIRING"]

SETUP_DIRECT = "direct"
SETUP_OBLIVIOUS = "oblivious"

#: The wiring keywords that are plain values: one configuration can hand
#: them to any number of instances (``build_cluster`` forwards exactly
#: these to every replica).
SHARED_WIRING = (
    "master_key", "spec", "trace_enabled", "rollback_protection",
    "hot_tier_frames", "read_retry", "cache_policy", "enforce_memory_limit",
)
#: The wiring keywords that name one instance's own object: a journal
#: slot, a file, a store, a single-threaded tracer.
PER_MEMBER_WIRING = ("journal", "disk_factory", "tracer")

#: Setup's upload: one contiguous store write per ``_UPLOAD_FRAMES``
#: locations, sealed ``_SEAL_ROWS`` at a time.
_UPLOAD_FRAMES = 4096
_SEAL_ROWS = 256


def _wire(
    params: SystemParameters,
    master_key: bytes = b"repro-master-key",
    spec: Optional[HardwareSpec] = None,
    seed: Optional[int] = None,
    cipher_backend: str = "shake",
    cache_policy: str = RANDOM_POLICY,
    enforce_memory_limit: bool = False,
    trace_enabled: bool = True,
    disk_factory=None,
    hot_tier_frames: Optional[int] = None,
    rollback_protection: bool = False,
    journal=None,
    read_retry=None,
    tracer: Optional[Tracer] = None,
    metrics=None,
    clock: Optional[VirtualClock] = None,
):
    """Wire coprocessor, store stack and engine for ``params``.

    The one place an instance is put together: both constructors
    (:meth:`PirDatabase.create` and :func:`~repro.core.snapshot.resume`,
    which :func:`~repro.core.snapshot.load_snapshot` and
    :func:`~repro.twoparty.owner.resume_owner` call) forward their wiring
    keywords here and differ only in where ``params`` and the initial
    state come from.
    Returns ``(coprocessor, disk, engine)`` with the store still empty and
    the trusted state (cache, page map) still blank.

    ``disk_factory(num_locations, frame_size, timing, clock, trace)``
    substitutes the untrusted store, e.g.
    :class:`repro.storage.filedisk.FileDiskStore` for real file I/O.
    ``hot_tier_frames`` fronts it with an in-memory ciphertext LRU of that
    many frames (:class:`TieredDiskStore`): hot hits skip the cold store's
    seek/transfer charge while leaving the recorded access trace
    byte-identical; a new tier starts cold.  ``rollback_protection=True``
    wraps the stack in a Merkle-tree freshness layer (detects a
    *malicious* server replaying stale frames — hardening beyond the
    paper's honest-but-curious model); it sits outside the tier, so the tree
    authenticates what the engine reads regardless of which tier served
    the bytes.  ``journal`` (e.g.
    :class:`repro.core.journal.MemoryJournal`) enables crash-consistent
    write-back, and ``read_retry`` (a
    :class:`repro.faults.retry.RetryPolicy`) retries transient or
    unauthentic block reads with deterministic backoff.  ``tracer`` (a
    :class:`repro.obs.tracer.Tracer`) threads per-phase span
    instrumentation through the coprocessor, disk and engine — it is bound
    to the virtual clock so spans carry both wall and deterministic
    virtual durations.  ``metrics`` (a
    :class:`repro.obs.registry.MetricsRegistry`, private when None) is
    where the engine's and the tier's counters and the latency histogram
    live.
    """
    clock = clock if clock is not None else VirtualClock()
    metrics = registry_or_private(metrics)
    if tracer is not None:
        tracer.bind_clock(clock)
    cop = SecureCoprocessor(
        num_pages=params.total_pages,
        cache_capacity=params.cache_capacity,
        block_size=params.block_size,
        page_capacity=params.page_capacity,
        master_key=master_key,
        spec=spec,
        clock=clock,
        rng=SecureRandom(seed),
        cipher_backend=cipher_backend,
        cache_policy=cache_policy,
        enforce_memory_limit=enforce_memory_limit,
        tracer=tracer,
    )
    disk = (disk_factory or DiskStore)(
        params.num_locations, cop.frame_size, cop.spec.disk, clock,
        AccessTrace(enabled=trace_enabled),
    )
    if tracer is not None:
        # The one way a store gets a tracer: stores are built without one,
        # and a wrapper assigns it through to the store that does the I/O.
        disk.tracer = tracer
    if hot_tier_frames is not None:
        disk = TieredDiskStore(disk, hot_tier_frames, metrics=metrics)
    if rollback_protection:
        disk = AuthenticatedDisk(disk)
    engine = RetrievalEngine(
        params, cop, disk, journal=journal, read_retry=read_retry,
        tracer=tracer, metrics=metrics,
    )
    return cop, disk, engine


class PirDatabase:
    """A c-approximate-PIR protected page database (the paper's full system)."""

    def __init__(
        self,
        params: SystemParameters,
        coprocessor: SecureCoprocessor,
        disk: DiskStore,
        engine: RetrievalEngine,
    ):
        self.params = params
        self.cop = coprocessor
        self.disk = disk
        self.engine = engine
        # Optional OnlineReshuffler attached by begin_reshuffle() or
        # resume_reshuffle().
        self.reshuffle = None
        # Optional ReplicationLog (duck-typed: anything with emit() and
        # close()).  Set by the cluster tier; every public operation then
        # emits one sealed logical record — reads emit "noop" covers so the
        # stream never reveals the write pattern (see
        # repro.cluster.replication); close() closes it.
        self.replication = None

    @classmethod
    def create(
        cls,
        records: Sequence[bytes],
        cache_capacity: int,
        target_c: float = 2.0,
        page_capacity: int = 1024,
        reserve_fraction: float = 0.0,
        block_size: Optional[int] = None,
        setup_mode: str = SETUP_DIRECT,
        **wiring,
    ) -> "PirDatabase":
        """Build, encrypt, permute and warm up a database from raw records.

        Parameters mirror the paper's knobs: ``cache_capacity`` is m,
        ``target_c`` the privacy parameter (ignored when ``block_size``
        pins k directly), ``page_capacity`` is B, ``reserve_fraction``
        pre-allocates dummy pages for future insertions (§4.3).
        ``setup_mode`` selects the fast trusted-ingest permutation
        (``"direct"``) or the faithful O(n log^2 n) oblivious shuffle
        (``"oblivious"``): the pages go to the store in identity layout and
        one foreground reshuffle epoch — epoch 1 of the database's
        numbering, DESIGN.md §15 — permutes them before anything is
        served; the driver is dropped afterwards.

        The encrypted database — randomly permuted for a direct build (the
        inverse of one Fisher–Yates shuffle on the ``setup`` child RNG), in
        identity layout for an oblivious one — goes to the store as one
        contiguous write per 4096 locations, each sealed 256 locations at a
        time: a chunk's plaintext matrix is encoded straight from the
        records' columns (no :class:`Page` per record) and goes through one
        ``seal_pages`` call.  The page map is loaded as three columns.

        ``wiring`` goes to the one builder, :func:`_wire`, which documents it:
        ``master_key``, ``spec``, ``seed``, ``cipher_backend``,
        ``cache_policy``, ``enforce_memory_limit``, ``trace_enabled``,
        ``disk_factory``, ``hot_tier_frames``, ``rollback_protection``,
        ``journal``, ``read_retry``, ``tracer``, ``metrics``, ``clock`` —
        the keywords
        :func:`~repro.core.snapshot.load_snapshot` takes too.  A ``tracer``
        is reset after setup so the recorded phases cover requests only.
        """
        if not records:
            raise ConfigurationError("records must be non-empty")
        if setup_mode not in (SETUP_DIRECT, SETUP_OBLIVIOUS):
            raise ConfigurationError(f"unknown setup_mode {setup_mode!r}")
        if block_size is not None:
            params = SystemParameters.from_block_size(
                len(records), cache_capacity, block_size,
                page_capacity=page_capacity, reserve_fraction=reserve_fraction,
            )
        else:
            params = SystemParameters.solve(
                len(records), cache_capacity, target_c,
                page_capacity=page_capacity, reserve_fraction=reserve_fraction,
            )
        cop, disk, engine = _wire(params, **wiring)

        # Logical pages: ids [0, live) are the records, [live, n) are free
        # reserve/padding pages, [n, n + m) start inside the cache.  A
        # direct build stores page i at mapping[i], a uniformly shuffled
        # list; an oblivious build's first reshuffle epoch permutes the
        # identity layout instead (below).
        n, live = params.num_locations, len(records)
        mapping = list(range(n))
        if setup_mode == SETUP_DIRECT:
            cop.rng.spawn("setup").shuffle(mapping)
        position = np.array(mapping)
        layout = np.empty_like(position)  # location -> page id
        layout[position] = np.arange(n)

        # Small chunks keep the batch kernel's matrices out of the peak RSS.
        frames = np.empty((min(_UPLOAD_FRAMES, n), cop.frame_size), np.uint8)
        for start in range(0, n, _UPLOAD_FRAMES):
            stop = min(start + _UPLOAD_FRAMES, n)
            for low in range(start, stop, _SEAL_ROWS):
                ids = layout[low : min(low + _SEAL_ROWS, stop)]
                plain = encode_rows(
                    ids, np.where(ids < live, 0, FLAG_DELETED),
                    [records[i] if i < live else b"" for i in ids.tolist()],
                    cop.page_capacity,
                )
                frames[low - start : low - start + len(ids)] = frame_matrix(
                    cop.seal_pages(PageWindow(plain)), cop.frame_size
                )
            disk.write_range(start, frames[: stop - start])

        cop.cache.fill([
            Page(n + slot, b"", deleted=True)
            for slot in range(params.cache_capacity)
        ])
        page_ids = np.arange(params.total_pages)
        cop.state.load_columns(
            page_ids >= n,
            np.concatenate([position, np.arange(params.cache_capacity)]),
            page_ids >= live,
        )
        db = cls(params, cop, disk, engine)
        if setup_mode == SETUP_OBLIVIOUS:
            # Nothing is sealed before setup ends, so a crash inside the
            # setup epoch cannot be recovered from: it runs before the
            # journal is attached, and serving journals from the start.
            journal, db.engine.journal = db.engine.journal, None
            db.begin_reshuffle().run()
            db.engine.journal = journal
            db.reshuffle = None
        # Setup wrote the whole database through the instrumented disk;
        # drop those spans so the trace covers requests only (that is what
        # CalibratedCostModel.check compares against Eq. 8).
        db.tracer.reset()
        return db

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def query(self, page_id: int) -> bytes:
        """Privately retrieve the payload of ``page_id``.

        The request is always executed in full (so the server-side trace is
        independent of page state) before a deleted page raises
        :class:`PageDeletedError`.
        """
        return run_one(self, BatchOp("query", page_id=page_id))

    def update(self, page_id: int, payload: bytes) -> None:
        """Replace the payload of an existing page (§4.3 modification)."""
        run_one(self, BatchOp("update", page_id=page_id, payload=payload))

    def insert(self, payload: bytes) -> int:
        """Add a new page, consuming one reserved free slot; returns its id."""
        return run_one(self, BatchOp("insert", payload=payload))

    def delete(self, page_id: int) -> None:
        """Remove a page; its storage becomes available to ``insert`` (§4.3)."""
        run_one(self, BatchOp("delete", page_id=page_id))

    def touch(self) -> None:
        """Issue a dummy request to keep the reshuffle mixing when idle."""
        run_one(self, BatchOp("touch"))

    def run_batch(self, ops: Sequence[BatchOp],
                  window: Optional[int] = None) -> List[object]:
        """Execute a batch with one disk pass per round-robin window.

        The only request path: the per-op methods are a batch of one.
        Ops are grouped into windows of up to ``k`` operations; each
        window reads the k-frame block once and commits one journaled
        write-back (see :meth:`RetrievalEngine.run_batch`).  Returns one
        result per op, positionally: the payload bytes for ``query``, the
        new page id for ``insert``, ``None`` for update/delete/touch, or
        the exception instance for a failed slot.  Payloads do not depend
        on the window size — only the physical trace does.

        Every op emits exactly one replication record (see
        ``replication``): a write at the op's id for update and insert —
        peers revive the same reserve page via modify(), so inserted ids
        converge — a delete, or a ``noop`` cover for query, touch *and
        any failed slot*.
        """
        results = self.engine.run_batch(ops, window=window)
        for slot, (op, item) in enumerate(zip(ops, results)):
            if isinstance(item, Page):
                # Refused only after the full request has executed.
                results[slot] = item = (
                    PageDeletedError(f"page {op.page_id} is deleted")
                    if item.deleted else item.payload
                )
            if self.replication is None:
                continue
            if isinstance(item, Exception) or op.kind in ("query", "touch"):
                self.replication.emit("noop")
            elif op.kind == "delete":
                self.replication.emit("delete", op.page_id)
            else:  # update / insert: a write at the (possibly fresh) id
                page_id = item if op.kind == "insert" else op.page_id
                self.replication.emit("write", page_id, op.payload)
        return results

    def recover(self):
        """Repair a torn write-back after a crash (see engine ``recover``).

        The one recovery for the database's one journal slot: a torn
        request window and a torn reshuffle batch alike.  Idempotent and
        cheap when nothing was in flight; returns the engine's
        :class:`~repro.core.engine.RecoveryReport`.
        """
        return self.engine.recover()

    def begin_reshuffle(self, batch_size: int = 16):
        """Start an online re-permutation epoch (DESIGN.md §15).

        Builds an :class:`~repro.shuffle.online.OnlineReshuffler` and
        begins a new epoch.  The epoch advances only on the caller's
        thread: step it with ``db.reshuffle.step()`` between requests, or
        finish it with ``run()``.  Its batches are journaled in the
        engine's slot exactly when requests are, and :meth:`recover`
        repairs a torn one.  Returns the driver, also available as
        :attr:`reshuffle`.  An epoch already in progress — also one
        restored from a snapshot — is refused: finish it through
        :meth:`resume_reshuffle`.
        """
        if self.cop.state.epoch_active:
            raise ConfigurationError(
                "a re-permutation epoch is already in progress"
            )
        driver = self._attach_reshuffle(batch_size)
        driver.begin()
        return driver

    def resume_reshuffle(self, batch_size: int = 16):
        """Attach a driver to the epoch the trusted state has in progress.

        A snapshot seals the epoch — number, frontier, secret sort key —
        with the rest of the trusted state, so a restored instance (or a
        warm replica, see :func:`~repro.core.snapshot.bootstrap_replica`)
        continues the pass at its frontier instead of paying a cold
        O(n log² n) shuffle.  Returns the driver, also available as
        :attr:`reshuffle`, or None when no epoch is active.  After a crash
        restart, run :meth:`recover` first — it rolls a torn batch forward
        from the journal like a torn request — then step the driver as
        :meth:`begin_reshuffle`'s.
        """
        if not self.cop.state.epoch_active:
            return None
        return self._attach_reshuffle(batch_size)

    def _attach_reshuffle(self, batch_size: int):
        from ..shuffle.online import OnlineReshuffler

        self.reshuffle = OnlineReshuffler(
            self, batch_size=batch_size, metrics=self.metrics,
            tracer=self.tracer,
        )
        return self.reshuffle

    def close(self) -> None:
        """Close the attached replication log's backlog file, the journal
        (its record, if any, stays for the next journal on the slot) and
        the store (a durable store flushes and syncs first).

        Idempotent.  Usable as a context manager:
        ``with PirDatabase.create(...) as db:``.  The process-wide crypto
        lane (:mod:`repro.crypto.lane`) is not this database's: it keeps
        running for the process's other suites and stops at exit.
        """
        if self.replication is not None:
            self.replication.close()
        close_journal = getattr(self.engine.journal, "close", None)
        if close_journal is not None:
            close_journal()
        self.disk.close()

    def __enter__(self) -> "PirDatabase":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def rotate_master_key(self, new_master_key: bytes) -> None:
        """Online key rotation, piggybacked on the continuous reshuffle.

        Sealing switches to the new key at once and the legacy key keeps
        old frames readable; the rotation completes automatically after one
        scan period (``params.scan_period`` further requests), tracked by
        ``engine.rotation_requests_remaining``.  Refused with a
        :class:`~repro.errors.ConfigurationError` while a re-permutation
        epoch is active: finish the epoch first (rotating before
        :meth:`begin_reshuffle` is fine).
        """
        with self.engine.op_lock:
            self.cop.begin_key_rotation(new_master_key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self.cop.clock

    @property
    def trace(self) -> AccessTrace:
        return self.disk.trace

    @property
    def tracer(self) -> Tracer:
        """The phase tracer threaded through the stack (NULL when disabled)."""
        return self.engine.tracer

    @property
    def metrics(self):
        """The metrics registry the engine and tier count into (a private
        one unless ``metrics=`` named one)."""
        return self.engine.metrics

    @property
    def achieved_c(self) -> float:
        """Privacy level actually enforced by the chosen k (Eq. 5)."""
        return self.params.achieved_c

    @property
    def num_pages(self) -> int:
        """User-visible page count (live + deleted user ids)."""
        return self.params.num_user_pages

    def storage_report(self) -> SecureStorageReport:
        """Secure-memory footprint, the measured counterpart of Eq. 7."""
        return self.cop.storage_report()

    def _stored_pages(self) -> PageWindow:
        """Every location's page, opened as one matrix (no I/O charged;
        a location never written is a :class:`StorageError`)."""
        return self.cop.unseal_frames(
            self.disk.peek_range(0, self.disk.num_locations)
        )

    def consistency_check(self) -> None:
        """Verify disk/cache/page-map agreement (test & debugging aid).

        Decrypts the whole database, so only call this on small instances.
        Raises :class:`ConfigurationError` on any mismatch.
        """
        pm = self.cop.state
        seen = set()
        for location, page in enumerate(self._stored_pages()):
            entry = pm.lookup(page.page_id)
            if entry.in_cache or entry.position != location:
                raise ConfigurationError(
                    f"page {page.page_id} stored at {location} but mapped to {entry}"
                )
            seen.add(page.page_id)
        for page in self.cop.cache:
            entry = pm.lookup(page.page_id)
            if not entry.in_cache:
                raise ConfigurationError(f"cached page {page.page_id} mapped to disk")
            seen.add(page.page_id)
        if len(seen) != self.params.total_pages:
            raise ConfigurationError(
                f"{len(seen)} distinct pages found, expected {self.params.total_pages}"
            )
        if pm.cached_count != self.params.cache_capacity:
            raise ConfigurationError("page map cached-count drifted from m")

    def content_digest(self) -> bytes:
        """Digest of the logical content: page id → liveness + payload.

        Replicas share one logical database but deliberately *divergent*
        physical layouts (independent RNG lineages relocate pages
        differently on every request), so replica convergence is defined
        over this digest — exactly the state a client can observe — and
        never over disk bytes.  Decrypts the whole store; like
        :meth:`consistency_check`, only call it on small instances.
        """
        import hashlib

        pm = self.cop.state
        pages = {page.page_id: page for page in self._stored_pages()}
        for page in self.cop.cache:
            pages[page.page_id] = page
        digest = hashlib.sha256()
        for page_id in sorted(pages):
            page = pages[page_id]
            deleted = pm.is_deleted(page_id)
            digest.update(page_id.to_bytes(8, "big"))
            digest.update(b"\x01" if deleted else b"\x00")
            payload = b"" if deleted else bytes(page.payload)
            digest.update(len(payload).to_bytes(4, "big"))
            digest.update(payload)
        return digest.digest()

    def expected_query_time(self) -> float:
        """Eq. 8 evaluated for this configuration's spec and frame size."""
        from ..analysis.costmodel import eq8_terms

        return eq8_terms(
            self.cop.spec, self.params.block_size, self.cop.frame_size
        )["total"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PirDatabase({self.params.describe()})"
