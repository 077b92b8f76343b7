"""The private page retrieval algorithm (Figure 3) and §4.3 updates.

Every client operation — query, modification, deletion, insertion — executes
the *identical* observable sequence:

1. read the next round-robin block of ``k`` consecutive frames,
2. read one extra frame (the target page, or a random / free page),
3. decrypt all ``k + 1`` pages inside the tamper boundary,
4. swap the target into a uniformly random block slot ``r`` (line 18),
5. swap it with a cache slot ``s`` (line 20) — the evicted cache page
   lands in block slot ``r``, i.e. uniformly over the block's k locations,
   which is precisely what Eq. 2 analyses,
6. re-encrypt everything with fresh nonces and write the ``k + 1`` frames
   back (one contiguous block write + one extra write).

Four random disk accesses, ``2(k+1)`` frames over the link and through the
crypto engine per request (Eq. 8), with *zero* dependence of the trace shape
on the operation type or on cache hits — the property §4.3 sells for update
privacy and the tests verify byte-for-byte on the trace.

There is one request path: a single operation is a *window of one*, and
:meth:`RetrievalEngine.run_batch` serves up to k operations from one scan of
the block — steps 2, 4 and 5 once per op, steps 1, 3 and 6 once per window,
``k + B`` frames each way instead of ``B(k + 1)`` (DESIGN.md §14).  A window
is planned, fetched, then moved: every op is decided on page ids alone
against a :class:`~repro.core.window.WindowOverlay` (the block's ids come
with the first op's extra, in one store call), the B - 1 later extras are
one more store call and kernel pass, and only then do payloads move.

Crash consistency
-----------------

The request is internally structured as *compute → intend → apply*: all
random choices, content edits and re-encryptions are computed first without
touching any durable or trusted state; the complete post-state (frames,
pageMap/cache delta, advanced pointers) is then optionally sealed into a
write-ahead :mod:`intent journal <repro.core.journal>`; only then is it
applied — trusted deltas, the k+1 frame write-back, pointer advance, journal
clear, in that order.  Every apply step is idempotent and absolute, so
:meth:`RetrievalEngine.recover` can roll a torn write-back forward (valid
intent record) or declare the request never-happened (no/unauthentic
record) after a crash at *any* individual step.  An online reshuffle batch
(:mod:`repro.shuffle.online`) commits through the same path into the same
journal slot, so one ``recover()`` repairs either kind.

When the write-back fails *without* killing the process (a transient I/O
error), the engine keeps the intent in memory and rolls it forward
automatically at the start of the next request or batch, so nothing ever
computes against a pageMap pointing at never-written frames or overwrites
a journal record that is still needed for repair.  A window whose own
write-back fails that way has committed all the same — its trusted deltas
landed and its record is durable — so its ops keep their results and the
write-back is merely deferred to that heal: a client never retries an op
that already took effect.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .journal import (
    FLAG_DELETED,
    FLAG_LIVE,
    INTENT_MAGIC,
    MAP_CACHED,
    MAP_DISK,
    RESHUFFLE_MAGIC,
    ReshuffleIntent,
    WriteIntent,
    batch_of,
    epoch_units,
    header_size,
    window_of,
)
from .params import SystemParameters
from .window import WindowOverlay
from ..crypto.suite import INTENT_OVERHEAD
from ..errors import (
    AuthenticationError,
    CapacityError,
    ConfigurationError,
    CryptoError,
    PageNotFoundError,
    RecoveryError,
    ReproError,
    StorageError,
    TransientStorageError,
)
from ..faults.retry import RetryPolicy, retry_call
from ..hardware.coprocessor import SecureCoprocessor
from ..obs.registry import registry_or_private
from ..obs.tracer import NULL_TRACER, Tracer
from ..storage.disk import DiskStore
from ..storage.frames import frame_count
from ..storage.page import Page, PageWindow

__all__ = ["RetrievalEngine", "RequestOutcome", "RecoveryReport", "BatchOp",
           "run_one"]

BATCH_KINDS = ("query", "update", "insert", "delete", "touch")


@dataclass(frozen=True)
class BatchOp:
    """One logical operation of a request window.

    ``kind`` is one of :data:`BATCH_KINDS`; ``page_id`` is required for
    query/update/delete and ``payload`` for update/insert.  The engine
    validates per slot, so a malformed op refuses its own slot without
    sinking the batch.
    """

    kind: str
    page_id: Optional[int] = None
    payload: Optional[bytes] = None


def run_one(target, op: BatchOp):
    """A single op is ``target.run_batch`` of one; its slot's error is raised.

    How the engine and both database façades serve their per-op methods.
    """
    result = target.run_batch((op,))[0]
    if isinstance(result, Exception):
        raise result
    return result


@dataclass
class RequestOutcome:
    """What one request did, for metrics and tests (never leaves the TCB)."""

    request_index: int
    block_start: int
    extra_location: int
    cache_hit: bool
    victim_slot: int
    block_slot: int
    elapsed: float


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`RetrievalEngine.recover` found and did.

    ``action`` is one of:

    ``"clean"``
        No journal, or an empty journal slot — nothing was in flight.
    ``"rolled_back"``
        The journal held a torn/unauthentic record — its tag, or one of
        its frames' own tags, failed: the crash hit before the intent
        became durable, so the request never happened.
    ``"replayed"``
        A valid record for the in-flight request was rolled forward.
    ``"discarded_stale"``
        The record described an already-committed request (the crash hit
        between the write-back completing and the journal being cleared).

    ``request_index`` is the record's first request, or -1 for a reshuffle
    batch, which serves none.
    """

    action: str
    request_index: Optional[int] = None


def _owned(page: Page) -> Page:
    """The cache must own its bytes: a cached view would pin its window's
    whole plaintext matrix, which the re-seal rewrites in place."""
    if isinstance(page.payload, bytes):
        return page
    return Page(page.page_id, bytes(page.payload), page.deleted)


class RetrievalEngine:
    """Executes Figure 3 over a prepared coprocessor + disk pair.

    The engine assumes setup already happened (cache full, every disk
    location holds a frame, page map consistent) —
    :class:`repro.core.database.PirDatabase` is the friendly constructor
    that performs that setup.

    ``journal`` (any object with ``write``/``read``/``clear``, see
    :mod:`repro.core.journal`) enables crash-consistent write-back;
    ``read_retry`` (a :class:`~repro.faults.retry.RetryPolicy`) retries
    the block fetch on :class:`~repro.errors.TransientStorageError` and
    performs bounded re-reads on :class:`~repro.errors.AuthenticationError`,
    with backoff charged to the virtual clock and jitter drawn from a
    spawned (seeded) RNG so faulty runs stay exactly reproducible.
    """

    def __init__(
        self,
        params: SystemParameters,
        coprocessor: SecureCoprocessor,
        disk: DiskStore,
        journal=None,
        read_retry: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics=None,
    ):
        if disk.num_locations != params.num_locations:
            raise ConfigurationError("disk size does not match parameters")
        if coprocessor.cache.capacity != params.cache_capacity:
            raise ConfigurationError("cache capacity does not match parameters")
        if coprocessor.state.num_pages != params.total_pages:
            raise ConfigurationError("trusted state does not match parameters")
        self.params = params
        self.cop = coprocessor
        self.disk = disk
        self.journal = journal
        self.read_retry = read_retry
        self._retry_rng = coprocessor.rng.spawn("engine-retry")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = registry_or_private(metrics)
        self.counters = self.metrics.counter_view("engine.")
        # Per-request virtual latency distribution — the Eq. 8 constant-cost
        # claim shows up here as a degenerate (zero-variance) histogram.
        self._query_hist = self.metrics.histogram("engine.query_seconds")
        # A reshuffle epoch's end is counted where its last batch commits:
        # a driver's step, a request's heal and recover() alike.
        self._epoch_counters = self.metrics.counter_view("reshuffle.")
        # Serialises trusted-state mutation between callers sharing one
        # database (requests, online reshuffler batches, a snapshot).
        # Re-entrant so request helpers may call back into public
        # operations while already holding it.
        self.op_lock = threading.RLock()
        # The one write-back in flight or awaiting roll-forward, of either
        # kind (a request window's or a reshuffle batch's); see _commit.
        self._pending_intent = None
        self.last_outcome: Optional[RequestOutcome] = None

    # -- public operations -------------------------------------------------------

    @property
    def request_count(self) -> int:
        return self.cop.state.request_count

    @property
    def next_block_index(self) -> int:
        """Round-robin position (0..num_blocks-1) of the next request's block."""
        return self.cop.state.next_block

    def retrieve(self, page_id: int) -> Page:
        """Q(i): privately fetch page ``page_id`` (Figure 3's Retrieve)."""
        return run_one(self, BatchOp("query", page_id=page_id))

    def modify(self, page_id: int, payload: bytes) -> None:
        """Replace a page's payload; trace-identical to a query (§4.3)."""
        run_one(self, BatchOp("update", page_id=page_id, payload=payload))

    def delete(self, page_id: int) -> None:
        """Mark a page deleted; its slot joins the insertion free pool (§4.3)."""
        run_one(self, BatchOp("delete", page_id=page_id))

    def insert(self, payload: bytes) -> int:
        """Store a new page in a reclaimed free slot; returns its page id (§4.3)."""
        return run_one(self, BatchOp("insert", payload=payload))

    def touch(self) -> None:
        """One dummy request (random page), e.g. to keep the reshuffle mixing
        during idle periods.  Observable trace identical to any query."""
        run_one(self, BatchOp("touch"))

    @property
    def rotation_requests_remaining(self) -> Optional[int]:
        """Requests until the legacy key can be dropped (None if no rotation)."""
        return self.cop.state.rotation_left

    # -- crash recovery ----------------------------------------------------------

    @property
    def journal_pending(self) -> bool:
        """True when the journal holds a record of either kind (recover()
        needed)."""
        return self.journal is not None and self.journal.read() is not None

    @property
    def write_back_pending(self) -> bool:
        """True when a failed write-back awaits roll-forward.

        Set when the disk raised mid-apply *without* crashing the process
        — a request window's or a reshuffle batch's; the next request or
        batch (or :meth:`recover`) re-applies the retained intent before
        doing anything else, so callers normally never need to check this —
        it exists for tests and diagnostics.
        """
        return self._pending_intent is not None

    def recover(self) -> RecoveryReport:
        """Repair a torn write-back after a crash; idempotent.

        Call on restart (or after catching a simulated crash) before
        serving requests or stepping a reshuffle.  The journal's record,
        of either kind, is rolled back, replayed or discarded; outcome
        semantics are documented on :class:`RecoveryReport`.  Raises
        :class:`~repro.errors.RecoveryError` when the record is *ahead* of
        the trusted state — the trusted state is older than the journal
        (e.g. restored from a stale snapshot) and roll-forward would
        corrupt the database (:meth:`WriteIntent.stale
        <repro.core.journal.WriteIntent.stale>`).
        """
        with self.op_lock:
            return self._recover_locked()

    def _recover_locked(self) -> RecoveryReport:
        if self.journal is None:
            intent = self._pending_intent
            if intent is None:
                return RecoveryReport("clean")
            # Journal-less engines can still roll a failed write-back
            # forward from the in-memory intent (see _heal_pending).
            self._heal_pending()
            return RecoveryReport("replayed", intent.request_index)
        blob = self.journal.read()
        if blob is None:
            self._pending_intent = None
            self.counters.increment("recovery.clean")
            return RecoveryReport("clean")
        try:
            intent = self._open_intent(blob)
        except (CryptoError, StorageError):
            return self._discard("rolled_back")
        # Decided from the header alone; a record ahead of the trusted
        # state raises here and stays in the slot.
        stale = intent.stale(self.cop.state)
        try:
            # The record's tag covers each frame's own tag: only opening
            # the frames shows their bytes are the ones sealed.
            self.cop.unseal_frames(intent.frames)
        except CryptoError:
            return self._discard("rolled_back")
        if stale:
            # Write-back committed; only the journal clear was lost.
            return self._discard("discarded_stale", intent.request_index)
        self._commit(intent)
        self.counters.increment("recovery.replayed")
        return RecoveryReport("replayed", intent.request_index)

    def _discard(self, action: str, request_index=None) -> RecoveryReport:
        """Clear the journal slot without applying its record: it is torn
        or unauthentic (no write-back ever started, no trusted state was
        mutated), or the trusted state already holds it."""
        self.journal.clear()
        self._pending_intent = None
        self.counters.increment("recovery." + action)
        return RecoveryReport(action, request_index)

    def _open_intent(self, record):
        """Authenticate a journal record of either kind and decode it.

        The 4-byte magic names the kind and the record's length alone
        says which window (or batch) size it was sealed for; the tag is
        checked before anything is parsed, only the header is decrypted,
        and the frames stay a matrix view of ``record``.  A reshuffle
        record was sealed by its epoch's sibling suite, whose keys are the
        coprocessor's.
        """
        length = len(record) - INTENT_OVERHEAD
        if bytes(record[:len(RESHUFFLE_MAGIC)]) == RESHUFFLE_MAGIC:
            count = batch_of(length, self.cop.frame_size)
            return ReshuffleIntent.decode(*self.cop.unseal_intent(
                RESHUFFLE_MAGIC, record, ReshuffleIntent.header_size(count)
            ))
        capacity = self.params.page_capacity
        window = window_of(length, self.params.block_size,
                           self.cop.frame_size, capacity)
        intent = WriteIntent.decode(*self.cop.unseal_intent(
            INTENT_MAGIC, record, header_size(window, capacity)
        ))
        if intent.request_span != window:
            raise RecoveryError(
                f"intent record carries {len(intent.frames)} frames, "
                f"expected {self.params.block_size + intent.request_span}"
            )
        return intent

    # -- the unified request: a round-robin window of one or more ops -----------

    def run_batch(
        self,
        ops: Sequence[BatchOp],
        window: Optional[int] = None,
    ) -> List[object]:
        """Execute ``ops`` with **one physical disk pass per window**.

        The only request path: the per-op methods run a window of one —
        Figure 3 exactly, 2(k+1) frames (Eq. 8).  Longer batches are
        grouped into round-robin windows of up to ``window`` (default k)
        operations.  Each window reads the k-frame block *once* plus one
        extra frame per op — in two store calls and two kernel passes
        whatever its size: the block with the first op's extra, then every
        later op's extra — serves every op from the shared in-memory window
        (zero-copy pages over one plaintext matrix), and commits one
        journaled write-back.  B windows of one move ~B·(k+1) frames each
        way, one window of B moves k+B, while replies stay byte-identical
        (content is a pure function of the logical op sequence; see
        DESIGN.md §14 for the privacy argument).

        Returns a positional result list: a :class:`Page` for ``query``
        (owning its bytes; ``deleted`` is the page's state at the op's
        turn, for the caller to refuse on), the new page id (int) for
        ``insert``, ``None`` for update/delete/touch.  A slot whose op
        failed holds the exception instance instead — validation failures
        never consume a request, and a window-level storage fault fails
        only that window's slots.  Non-PIR exceptions (e.g. a simulated
        crash) propagate, leaving the journal positioned for
        :meth:`recover`.
        """
        capacity = self.params.block_size if window is None else window
        if capacity <= 0:
            raise ConfigurationError("batch window must be positive")
        results: List[object] = [None] * len(ops)
        for start in range(0, len(ops), capacity):
            # Locked per window, not per batch: another caller's comparator
            # batch may interleave between windows (each window commits
            # atomically) but never observes, or mutates, a half-applied
            # trusted state; with one caller the lock is uncontended.
            indices = range(start, min(start + capacity, len(ops)))
            with self.op_lock:
                # A previous window whose write-back failed mid-apply left
                # trusted deltas in place with the frames unwritten; roll
                # it forward before planning against that state.  If that
                # fails, none of this window ran, so its slots are refused
                # (safe to retry) while earlier windows, which committed,
                # keep their answers; a later window tries the heal again.
                try:
                    self._heal_pending()
                except ReproError as exc:
                    for i in indices:
                        results[i] = exc
                    self.disk.current_request = -1
                    continue
                checked = self._validate_window(ops[start:start + capacity],
                                                results, indices)
                live = [(i, entry) for i, entry in zip(indices, checked)
                        if entry is not None]
                if not live:
                    continue
                try:
                    # The root of the window's trace: everything it does
                    # (disk, link, crypto, journal, write-back) nests under
                    # it.  A window of one is a "request" — the span whose
                    # virtual duration CalibratedCostModel.check compares
                    # against the full Eq. 8 prediction.
                    with self.tracer.span(
                        "request" if len(live) == 1 else "engine.batch"
                    ):
                        self._run_window(live, results)
                except ReproError as exc:
                    # A compute-phase abort: nothing of this window landed,
                    # it simply never happened, so a retry is safe.  (A
                    # failed write-back of the window's own commit never
                    # gets here: see _run_window.)  Every executable slot
                    # reports the error (validation failures recorded by
                    # the validator stand) and later windows proceed.
                    for i, _ in live:
                        results[i] = exc
                    self.disk.current_request = -1
        return results

    def _validate_window(
        self,
        ops: Sequence[BatchOp],
        results: List[object],
        indices: Sequence[int],
    ) -> List[Optional[Tuple]]:
        """Validate a window's ops against a simulated flag/free overlay.

        The only place requests are validated, and where a query learns
        whether its page is deleted at its turn.  Outcomes depend only on
        the logical op sequence (page flags and the free pool), never on
        relocation randomness, so the validator can decide *before* touching
        the disk which ops execute — a window whose every op fails
        validation performs no I/O at all — and insert targets are pinned
        here: the lowest free id at that op's turn, a pure function of the
        op sequence, so replies do not depend on the window size.  (A
        cached free page is fine: the insert then takes the cache-hit
        path, like an update of a cached page.)
        """
        state = self.cop.state
        sim_flags: Dict[int, int] = {}
        sim_free: Optional[set] = None

        def sim_deleted(page_id: int) -> bool:
            flag = sim_flags.get(page_id)
            if flag is not None:
                return flag == FLAG_DELETED
            return state.is_deleted(page_id)

        def materialised_free() -> set:
            nonlocal sim_free
            if sim_free is None:
                sim_free = state.free_ids()
                for page_id, flag in sim_flags.items():
                    if flag == FLAG_DELETED:
                        sim_free.add(page_id)
                    else:
                        sim_free.discard(page_id)
            return sim_free

        checked: List[Optional[Tuple]] = []
        for slot, op in zip(indices, ops):
            try:
                if op.kind == "touch":
                    entry = ("touch", None, None, False, False)
                elif op.kind == "query":
                    self._check_user_id(op.page_id)
                    entry = ("query", op.page_id, None, False,
                             sim_deleted(op.page_id))
                elif op.kind == "update":
                    self._check_user_id(op.page_id)
                    self._check_payload(op.payload)
                    sim_flags[op.page_id] = FLAG_LIVE
                    if sim_free is not None:
                        sim_free.discard(op.page_id)
                    entry = ("update", op.page_id, op.payload, False, False)
                elif op.kind == "delete":
                    self._check_user_id(op.page_id)
                    if sim_deleted(op.page_id):
                        raise PageNotFoundError(
                            f"page {op.page_id} is already deleted"
                        )
                    sim_flags[op.page_id] = FLAG_DELETED
                    if sim_free is not None:
                        sim_free.add(op.page_id)
                    entry = ("delete", op.page_id, None, True, False)
                elif op.kind == "insert":
                    self._check_payload(op.payload)
                    free = materialised_free()
                    if not free:
                        raise CapacityError(
                            "no free page available for insertion; delete "
                            "pages or provision a reserve_fraction at setup"
                        )
                    target = min(free)
                    free.discard(target)
                    sim_flags[target] = FLAG_LIVE
                    entry = ("insert", target, op.payload, False, False)
                else:
                    raise ConfigurationError(
                        f"unknown batch op kind {op.kind!r}"
                    )
            except ReproError as exc:
                results[slot] = exc
                checked.append(None)
            else:
                checked.append(entry)
        return checked

    def _run_window(
        self,
        live: List[Tuple[int, Tuple]],
        results: List[object],
    ) -> None:
        """Figure 3 for every validated op of one window: plan, fetch, move.

        *Plan* decides every op on page ids alone against a
        :class:`WindowOverlay`, drawing the RNG in Figure 3's order; the
        block rides with the first op's extra as one store call.  *Fetch*
        reads the later ops' extras as one more and checks that each holds
        the page planned for it.  *Move* turns the plan into pages and
        replies.  Nothing lands in the real pageMap/pageCache — and nothing
        durable moves — until the single commit point, so a fault anywhere
        before it aborts the whole window cleanly.
        """
        cache = self.cop.cache
        rng = self.cop.rng
        tracer = self.tracer
        k = self.params.block_size
        started = self.cop.clock.now
        state = self.cop.state
        base_index = state.request_count
        self.disk.current_request = base_index
        # Line 1: the next block of k contiguous pages, round-robin.  The
        # pointer itself only advances at commit, so an aborted or crashed
        # window leaves it untouched and a resend hits the same block.
        block_start = state.next_block * k
        ov = WindowOverlay(state, cache, block_start, k)
        replies: List[Tuple[int, int, object, bool]] = []
        flag_ops: List[Tuple[int, int]] = []

        for slot, (kind, target_id, new_payload, deleting, deleted) in live:
            # Lines 2-9: decide the op's extra page.  It depends only on
            # the page map and cache (seen through the overlay), never on
            # block contents, so the first op decides before any disk
            # access.
            cache_hit = False
            with tracer.span("pagemap.lookup"):
                extra_id = target_id  # line 9: p <- i
                if target_id is not None:
                    # The target's cache slot or disk location; staged
                    # moves only land at the end of the op, so it holds
                    # for the whole op.
                    cache_hit, position = ov.lookup(target_id)
                    # Deletions are handled as cache hits (§4.3), and a
                    # target already inside the window's containers is
                    # served from memory: all fetch a random extra page to
                    # keep the shape.
                    if (cache_hit or deleting
                            or ov.slot_of(position) is not None):
                        extra_id = None
                if extra_id is None:
                    extra_id = ov.random_page(rng, self.params.total_pages)
                    _, extra_location = ov.lookup(extra_id)
                else:  # the target is its own extra
                    extra_location = position
            extra = ov.add_extra(extra_location, extra_id)

            # Lines 1, 10-11: read and decrypt inside the boundary.  The
            # block goes out with the first op's extra as one store call —
            # one round trip over a remote transport — and reaches the
            # kernel as one (k+1)-frame matrix.
            if ov.window is None:
                ov.window = self._fetch([(block_start, k),
                                         (extra_location, 1)])
                ov.check_fetched()

            # Lines 12-16: locate the relocation target q.
            if target_id is not None and not cache_hit and not deleting:
                q_pos, q = position, ov.slot_of(position)
                if ov.page_id(ov.at(q)) != target_id:
                    raise PageNotFoundError(
                        f"page {target_id} not found at mapped position "
                        f"{q_pos}; page map and disk are inconsistent"
                    )
            else:
                q_pos, q = extra_location, extra
            if kind == "query":
                # Line 26, executed in full — the trace must not depend on
                # page state; the caller refuses on the flag.
                replies.append((
                    slot, target_id,
                    ov.cache_entry(position) if cache_hit else ov.at(q),
                    deleted,
                ))
            elif kind == "insert":
                results[slot] = target_id

            # §4.3 content edits, recorded as overlay + intent deltas.
            if new_payload is not None:
                fresh = Page(target_id, new_payload, deleted=False)
                if cache_hit:
                    ov.put(position, fresh)
                else:
                    ov.slots[q] = fresh
                flag_ops.append((target_id, FLAG_LIVE))
            if deleting:
                if cache_hit:
                    ov.put(position, Page(target_id, b"", deleted=True))
                elif ov.slot_of(position) is not None:
                    # Elsewhere the carcass stays encrypted wherever it
                    # is; only metadata changes.
                    held = ov.slot_of(position)
                    ov.slots[held] = Page(ov.page_id(ov.at(held)), b"",
                                          deleted=True)
                flag_ops.append((target_id, FLAG_DELETED))

            with tracer.span("cache.op"):
                # Lines 17-18: move the target to a uniform block slot.
                r = rng.randrange(k)
                ov.slots[r], ov.slots[q] = ov.at(q), ov.at(r)

                # Lines 19-20: swap with a cache slot.  A deletion of a
                # cached page always selects that page as the victim
                # (§4.3); otherwise the victim is the policy's choice
                # (uniform under the paper's policy).
                with tracer.span("evict"):
                    s = (position if deleting and cache_hit
                         else cache.victim_slot())
                    evicted = ov.cache_entry(s)
                entering = ov.slots[r]
                ov.put(s, entering)
                ov.slots[r] = evicted

            # Lines 23-25 as a pending delta for the three relocated pages.
            ov.relocate(entering, MAP_CACHED, s)
            ov.relocate(evicted, MAP_DISK, block_start + r)
            ov.relocate(ov.slots[q], MAP_DISK, q_pos)

        # Every later op's extra frame: one store call, one kernel pass.
        window = ov.window
        extra_locs = list(ov.extra_slots)
        if len(extra_locs) > 1:
            window.extend(self._fetch([(loc, 1) for loc in extra_locs[1:]]))
            ov.check_fetched()

        # Move: the plan's tokens become pages, all of them resolved before
        # the first container is replaced (a replaced slot no longer hands
        # out the page fetched into it).
        moved = [(at, ov.page_of(token)) for at, token in ov.slots.items()
                 if token != at]
        cache_puts = [(at, _owned(ov.page_of(token)))
                      for at, token in ov.cache_puts]
        for slot, target_id, token, deleted in replies:
            results[slot] = Page(
                target_id,
                b"" if deleted else bytes(ov.page_of(token).payload), deleted,
            )
        for at, page in moved:
            window[at] = page

        # ---- single commit point for the whole window ----------------------
        # Lines 21-22: re-encrypt everything with fresh nonces.  The link
        # egress charge keeps its own span (link.ingest/link.egress carry
        # the Eq. 8 link-term bytes) so the reencrypt span's bytes feed the
        # crypto term alone.
        n_ops = len(live)
        self.cop.charge_egress(k + n_ops)
        with tracer.span("reencrypt",
                         nbytes=(k + n_ops) * self.cop.frame_size):
            sealed = self.cop.seal_pages(window)
        self.counters.increment("crypto.batched_frames", k + n_ops)
        rotation_left = state.rotation_left
        intent = WriteIntent(
            request_index=base_index,
            next_block=(state.next_block + 1) % self.params.num_blocks,
            rotation_left=-1 if rotation_left is None else rotation_left - 1,
            block_start=block_start,
            extra_locations=extra_locs,
            cache_puts=cache_puts,
            flag_ops=flag_ops,
            map_ops=ov.map_ops,
            frames=sealed,
        )
        # Intend: make the post-state durable before applying it.
        if self.journal is not None:
            with tracer.span("journal.seal"):
                self.journal.write(self.cop.seal_intent(
                    INTENT_MAGIC,
                    intent.encode(self.params.page_capacity),
                    sealed,
                ))
        # Apply: idempotent, replayable from the intent record.
        try:
            self._commit(intent)
        except ReproError:
            # The window has committed: its trusted deltas landed and its
            # record (or the retained intent) holds the frames.  Only the
            # write-back is unfinished, and the next window's heal — or
            # recover() — finishes it.  Refusing the ops as retryable
            # would invite a retry that applies them a second time.
            self.disk.current_request = -1
            self.counters.increment("write_back.deferred")

        # Describes the window's last op; ``elapsed`` is the whole window's
        # virtual latency — for a window of one, the Eq. 8 constant, so the
        # histogram below is degenerate (zero-variance) under per-op load.
        self.last_outcome = RequestOutcome(
            request_index=base_index + n_ops - 1,
            block_start=block_start,
            extra_location=extra_location,
            cache_hit=cache_hit,
            victim_slot=s,
            block_slot=r,
            elapsed=self.cop.clock.now - started,
        )
        self._query_hist.observe(self.last_outcome.elapsed)
        self.counters.increment("requests", n_ops)
        self.counters.increment("batch.windows")
        self.counters.increment("batch.ops", n_ops)

    def _fetch(self, ranges) -> PageWindow:
        """Read + ingest + decrypt the frames of ``ranges`` into a page
        window (each range one disk access, all of them one store call).

        With a retry policy a retry repeats the whole fetch (re-read,
        re-charge, re-decrypt) — exactly what real hardware would do — and
        consumes only the spawned retry RNG and the virtual clock, so
        seeded runs stay byte-identical.
        """
        num_frames = frame_count(ranges)

        def attempt() -> PageWindow:
            frames = self.disk.read_ranges(ranges)
            self.cop.charge_ingest(num_frames)
            with self.tracer.span("decrypt",
                                  nbytes=num_frames * self.cop.frame_size):
                # Batched unseal: the MACs are verified and the keystream
                # applied in one suite entry.
                pages = self.cop.unseal_frames(frames)
            self.counters.increment("crypto.batched_frames", num_frames)
            return pages

        if self.read_retry is None:
            return attempt()
        return retry_call(
            attempt, self.read_retry, self.cop.clock, self._retry_rng,
            retry_on=(TransientStorageError, AuthenticationError),
            counters=self.counters, counter="retries.read",
        )

    def _commit(self, intent) -> None:
        """Apply ``intent`` — a :class:`~repro.core.journal.WriteIntent` or
        a :class:`~repro.core.journal.ReshuffleIntent`, its accesses
        attributed to its request — then clear its journal record.

        The intent is retained until its apply returns: a write-back that
        raises leaves it for :meth:`_heal_pending` (the next request or
        batch) or :meth:`recover`, and the journal record stays in place.
        """
        self.disk.current_request = intent.request_index
        self._pending_intent = intent
        intent.apply(self.cop, self.disk, self.tracer)
        self._pending_intent = None
        if self.journal is not None:
            self.journal.clear()
        self.disk.current_request = -1
        if isinstance(intent, ReshuffleIntent):
            total = epoch_units(self.params.num_locations)
            self.metrics.gauge("reshuffle.progress").set(
                intent.frontier_after / total)
            if intent.frontier_after >= total:
                self._epoch_counters.increment("epochs")

    def _heal_pending(self) -> None:
        """Roll forward a write-back that failed mid-apply, of either kind.

        A *non-crash* write failure (e.g. a transient I/O error) inside
        :meth:`_commit` leaves the trusted state ahead of the frames:
        a request window's deltas landed before its frames, a reshuffle
        batch's frames are half rewritten.  Computing anything against
        that state would read garbage and replace the pending journal
        record, so the failed apply retains its intent (in memory, and in
        the journal when one is configured) and every later request and
        batch re-applies it here first.  Re-application is idempotent; if
        the write fails again the error propagates, the caller's work is
        refused before it computes, and the intent stays pending.
        """
        if self._pending_intent is not None:
            self._commit(self._pending_intent)
            self.counters.increment("recovery.rolled_forward")

    # -- helpers -------------------------------------------------------------------

    def _check_payload(self, payload: bytes) -> None:
        """Reject oversized payloads at the API boundary — never let one sit
        in the cache waiting to fail at eviction time."""
        if len(payload) > self.params.page_capacity:
            raise ConfigurationError(
                f"payload of {len(payload)} bytes exceeds page capacity "
                f"{self.params.page_capacity}"
            )

    def _check_user_id(self, page_id: int) -> None:
        if not 0 <= page_id < self.params.total_pages:
            raise PageNotFoundError(
                f"page id {page_id} out of range [0, {self.params.total_pages})"
            )
