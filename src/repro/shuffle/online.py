"""The oblivious permutation: the Batcher sort, with or without the stall.

:class:`OnlineReshuffler` executes Batcher's network
(:mod:`repro.shuffle.oblivious`) as bounded batches of compare-exchanges
under the engine's ``op_lock``.  Run to completion before the database
serves, an epoch is the setup-time oblivious shuffle: an oblivious build
writes the pages in identity layout and runs epoch 1 in the foreground
(sorting by secret tags from *any* starting layout yields a uniform secret
permutation).  Later epochs interleave with live serving — a recurring
stop-the-world reshuffle is exactly the downtime failure mode the paper's
§1 criticises.

Epoch structure — each epoch performs two phases over one logical frontier:

1. **Sort phase** (units ``0 .. network_size(n)``): the comparators of
   Batcher's odd-even merge network, in network order, each comparing the
   secret per-epoch PRF tags of the two resident pages and swapping on
   demand.  Both frames are always rewritten with fresh nonces, so
   swap/no-swap is invisible.
2. **Refresh sweep** (units ``network_size(n) .. +n``): one sequential
   reseal of every location.  The sweep guarantees *every* frame carries a
   fresh post-epoch encryption even where the network's comparator set is
   sparse (non-power-of-two n).

A key rotation is the request scan's alone
(:meth:`~repro.hardware.coprocessor.SecureCoprocessor.begin_key_rotation`):
it is refused while an epoch is active, because an epoch seals under a
sibling of the suite it began with.  An epoch begun mid-rotation seals
under the new key from its first batch.

Serving interleaves freely between comparator batches: the page map is
updated transactionally with each batch, so a read always resolves through
the current (old-or-new, depending on the frontier) location — the
"epoch-aware page map".  The privacy argument (why the interleaved access
sequence leaks nothing, and why serving perturbation mid-sort still yields
a fresh secret permutation) is recorded in DESIGN.md §15.

Crash consistency mirrors the engine's compute → intend → apply: each batch
seals a :class:`ReshuffleIntent` (all rewritten frames + the page-map
delta + the frontier advance) into the reshuffler's *own* journal slot
(never the engine's — their recovery state machines are independent),
applies it, then clears the slot.  :meth:`OnlineReshuffler.recover` rolls a
torn batch forward after a restart; a transiently failed batch apply is
retained and healed before the next engine request computes, exactly like a
failed request write-back.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .oblivious import batcher_network, network_size
from ..core.journal import units_in
from ..crypto.suite import INTENT_OVERHEAD
from ..errors import (
    ConfigurationError,
    CryptoError,
    RecoveryError,
    StorageError,
)
from ..hardware.trusted import TAG_KEY_SIZE
from ..obs.registry import registry_or_private
from ..obs.tracer import NULL_TRACER
from ..storage.frames import RecordCursor, frame_matrix

__all__ = ["OnlineReshuffler", "ReshuffleIntent"]

_U64 = struct.Struct(">Q")

_INTENT_MAGIC = b"RSH2"

_TAG_SIZE = 16

_DEFAULT_BATCH = 16


def _tag(epoch_key: bytes, page_id: int) -> bytes:
    """The secret per-epoch sort key of one page: PRF(epoch_key, page_id).

    Computing tags on demand (keyed BLAKE2b) instead of storing them means
    the trusted side holds O(1) tag state for the whole epoch, and the
    sort's comparisons stay a pure function of (epoch key, page id) — which
    is what makes a crash-interrupted epoch resumable.
    """
    return hashlib.blake2b(
        _U64.pack(page_id), digest_size=_TAG_SIZE, key=epoch_key
    ).digest()


# Header: epoch and frontiers, then per frame its location and one
# (page id, location) map op.
_FRONTIER = struct.Struct(">QQQ")
_MAP_OP = struct.Struct(">QQ")
_HEADER_PER_FRAME = _U64.size + _MAP_OP.size


@dataclass
class ReshuffleIntent:
    """Redo record for one comparator (or sweep) batch; absolute values only.

    Sealed like the engine's intent record (:mod:`repro.core.journal`): the
    header — frontier advance and page-map delta — is encrypted, the
    rewritten frames ride as they go to disk, one MAC covers both, and the
    record's length is a function of the batch's public frame count alone.
    """

    epoch: int
    frontier_before: int
    frontier_after: int
    locations: List[int] = field(default_factory=list)
    # One sealed frame per location, as the rows of one matrix (a
    # read-only view of the record when decoded).
    frames: Sequence = field(default_factory=list)
    map_ops: List[Tuple[int, int]] = field(default_factory=list)

    def encode(self) -> bytes:
        """The record's header: every field but the frames."""
        if not len(self.locations) == len(self.map_ops) == len(self.frames):
            raise StorageError("reshuffle record frame/location mismatch")
        parts = [_FRONTIER.pack(self.epoch, self.frontier_before,
                                self.frontier_after)]
        parts += [_U64.pack(location) for location in self.locations]
        parts += [_MAP_OP.pack(*op) for op in self.map_ops]
        return b"".join(parts)

    @classmethod
    def decode(cls, header: bytes, frames: Sequence) -> "ReshuffleIntent":
        """Rebuild an intent from its decrypted header and its frames."""
        cursor = RecordCursor(header)
        epoch, before, after = cursor.take_fields(_FRONTIER)
        count = len(frames)
        intent = cls(
            epoch=epoch, frontier_before=before, frontier_after=after,
            locations=[cursor.take(_U64) for _ in range(count)],
            frames=frames,
            map_ops=[cursor.take_fields(_MAP_OP) for _ in range(count)],
        )
        cursor.expect_end("reshuffle record")
        return intent


class OnlineReshuffler:
    """Incremental Batcher driver over a live :class:`PirDatabase`.

    ``begin()`` then ``step()`` (one bounded batch per call, typically one
    per served request) or ``run()`` (to completion).  The driver owns no
    thread: an epoch advances only when its caller steps it, so where its
    batches fall among the requests depends on the op sequence alone.

    Pacing is fixed when the driver is built (``begin_reshuffle``'s
    ``batch_size``): nothing re-tunes it mid-epoch.  A caller that wants
    different slices passes ``step(budget)``; the slicing never changes
    *which* comparators run, only how many per batch (see
    :meth:`_comparator_slice`).

    ``journal`` is the reshuffler's own single-slot intent journal (any
    ``write``/``read``/``clear`` object).  It must never alias the
    engine's: each recovery state machine treats a foreign record as torn
    and clears it.

    The epoch itself — number, frontier, active bit and secret sort key —
    is trusted state (``cop.state``), sealed with the rest of it; the
    driver holds only its nonce stream and comparator cursor.  A driver
    built while an epoch is active (a restored snapshot, or a closed
    driver's epoch) continues that epoch under a fresh nonce stream.
    """

    def __init__(
        self,
        database,
        batch_size: int = _DEFAULT_BATCH,
        journal=None,
        metrics=None,
        tracer=None,
    ):
        if batch_size <= 0:
            raise ConfigurationError("reshuffle batch size must be positive")
        if journal is not None and journal is database.engine.journal:
            raise ConfigurationError(
                "the reshuffler needs its own journal slot; sharing the "
                "engine's would make each recovery clear the other's records"
            )
        self.db = database
        self.engine = database.engine
        self.cop = database.cop
        self.batch_size = batch_size
        self.journal = journal
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = registry_or_private(metrics)
        self.counters = self.metrics.counter_view("reshuffle.")
        self._gauge = self.metrics.gauge("reshuffle.progress")

        n = self.engine.params.num_locations
        self._network = network_size(n)
        self._total = self._network + n

        # Comparator stream cache: iterator + how many comparators it has
        # yielded.  _comparator_slice validates that position against the
        # frontier on every use, so which comparators a batch executes is
        # a pure function of the frontier — never of iterator history.
        self._comparators: Optional[Iterator[Tuple[int, int]]] = None
        self._comparators_pos = 0
        # Independent nonce stream for the epoch's reseals (same derived
        # keys as the engine's suite, so its frames decrypt normally).
        self._suite = None
        self._key_rng = None
        self._pending: Optional[ReshuffleIntent] = None
        state = self.cop.state
        if state.epoch_active:
            if state.epoch_frontier > self._total:
                raise StorageError(
                    f"reshuffle frontier {state.epoch_frontier} exceeds "
                    f"epoch size {self._total}"
                )
            # (epoch, frontier) alone is not unique — two resumes from one
            # snapshot land on one frontier with different frames to seal —
            # so the sealed resume count names the stream, keeping it apart
            # from the epoch's own and from every earlier resume's.
            self._suite = self.cop.sibling_suite(
                f"reshuffle-epoch-{state.epoch_base}-resume-"
                f"{state.next_resume()}"
            )

        # A transiently failed batch apply must be rolled forward before
        # the *engine* computes against the half-updated map, not merely
        # before the next reshuffle step — so the engine heals us too.
        self.engine._background_healers.append(self._heal_pending)

    # -- introspection ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while an epoch is in progress (frontier < total units)."""
        return self.cop.state.epoch_active

    @property
    def epoch(self) -> int:
        return self.cop.state.epoch_base

    @property
    def frontier(self) -> int:
        """Units completed this epoch: comparators first, then sweep slots."""
        return self.cop.state.epoch_frontier

    @property
    def total_units(self) -> int:
        """Units in one full epoch: network_size(n) comparators + n sweeps."""
        return self._total

    @property
    def progress(self) -> float:
        """Fraction of the current epoch completed (1.0 when idle/done)."""
        if not self.active:
            return 1.0
        return self.frontier / self._total if self._total else 1.0

    @property
    def write_back_pending(self) -> bool:
        return self._pending is not None

    @property
    def journal_pending(self) -> bool:
        return self.journal is not None and self.journal.read() is not None

    # -- epoch control ---------------------------------------------------------

    def begin(self) -> int:
        """Start a new re-permutation epoch; returns its epoch number."""
        with self.engine.op_lock:
            state = self.cop.state
            if state.epoch_active:
                raise ConfigurationError(
                    f"epoch {state.epoch_base} is still in progress"
                )
            if self._key_rng is None:
                # spawn() is a pure function of (seed, label): a label
                # reused by a later driver would redraw an earlier epoch's
                # key and re-sort into the layout the host already saw.  The
                # database-global epoch this driver starts after names its
                # stream, and its own epochs take successive keys from it.
                self._key_rng = self.cop.rng.spawn(
                    "reshuffle-keys" if state.epoch_base == 0
                    else f"reshuffle-keys-{state.epoch_base}"
                )
            epoch = state.begin_epoch(self._key_rng.token(TAG_KEY_SIZE))
            # Per-epoch spawn label: reusing a label would replay the same
            # nonce stream against the same key — never acceptable.
            self._suite = self.cop.sibling_suite(f"reshuffle-epoch-{epoch}")
            self._comparators = None
            self._comparators_pos = 0
            self._set_gauge()
            self.counters.increment("epochs.begun")
        return epoch

    def step(self, budget: Optional[int] = None) -> int:
        """Execute up to ``budget`` units (default ``batch_size``) as one
        journaled batch; returns the number of units done (0 when idle).

        Holds the engine op lock for the duration of the batch — the
        bounded budget is what bounds a concurrent request's wait.
        """
        if budget is None:
            budget = self.batch_size
        if budget <= 0:
            raise ConfigurationError("step budget must be positive")
        with self.engine.op_lock:
            if not self.active:
                return 0
            # Both write-back state machines must be consistent before we
            # read frames: ours (a previous batch) and the engine's (a
            # previous request).
            self.engine._heal_pending()

            start = self.frontier
            end = min(start + budget, self._total)
            units: List[object] = []
            if start < self._network:
                units.extend(self._comparator_slice(
                    start, min(end, self._network) - start
                ))
            units.extend(
                unit - self._network
                for unit in range(max(start, self._network), end)
            )
            if not units:
                return 0

            with self.tracer.span("reshuffle.batch"):
                intent = self._compute_batch(start, units)
                if self.journal is not None:
                    self.journal.write(self._seal_record(intent))
                self._apply(intent)
                if self.journal is not None:
                    self.journal.clear()
            self.counters.increment("batches")
            return len(units)

    def run(self) -> int:
        """Step the current epoch to completion; returns the units done."""
        done = 0
        while self.active:
            did = self.step()
            if did == 0:
                break
            done += did
        return done

    # -- batch construction ----------------------------------------------------

    def _comparator_slice(self, start: int, count: int) -> List[Tuple[int, int]]:
        """Comparators ``[start, start + count)`` of the epoch's network.

        The cached iterator remembers how many comparators it has yielded;
        whenever that position disagrees with the requested ``start`` — a
        journal replay or heal advanced the frontier without consuming
        units, or a failed compute/journal phase consumed units without
        advancing the frontier — the iterator is re-derived from the
        public network at the frontier.  Every batch therefore executes
        exactly the comparators its frontier range describes: retries
        re-run the same units, replays never shift the stream, and the
        network's tail always runs — the canonical Batcher order the
        epoch's privacy argument (DESIGN.md §15) depends on.
        """
        if self._comparators is None or self._comparators_pos != start:
            self._comparators = itertools.islice(
                batcher_network(self.engine.params.num_locations),
                start, None,
            )
            self._comparators_pos = start
        out = list(itertools.islice(self._comparators, count))
        self._comparators_pos += len(out)
        return out

    def _compute_batch(self, frontier: int, units: List[object]) -> ReshuffleIntent:
        """Compute phase: read, compare, reseal — no state mutated.

        The touched locations, in first-touch order, are a pure function of
        (n, frontier, budget): comparator index pairs come from the public
        network, sweep indices are sequential.  They are read as one store
        call of ``(location, 1)`` ranges (one access each), opened in one
        kernel pass, compare-exchanged as window slots, resealed in one
        kernel pass and written back as one store call.  Whether a
        comparator swapped is hidden — every touched frame is rewritten
        fresh.
        """
        slots: Dict[int, int] = {}
        for unit in units:
            for location in unit if isinstance(unit, tuple) else (unit,):
                slots.setdefault(location, len(slots))
        touched = list(slots)
        window = self.cop.unseal_frames(
            self.engine.disk.read_ranges([(loc, 1) for loc in touched])
        )
        epoch_key = self.cop.state.epoch_key
        for unit in units:
            if isinstance(unit, tuple):
                i, j = slots[unit[0]], slots[unit[1]]
                if (_tag(epoch_key, window[i].page_id)
                        > _tag(epoch_key, window[j].page_id)):
                    window[i], window[j] = window[j], window[i]

        map_ops = [(window[slot].page_id, loc) for slot, loc in enumerate(touched)]
        frames = self._suite.encrypt_pages(
            window.plaintext(self.cop.page_capacity)
        )
        comparators = sum(1 for unit in units if isinstance(unit, tuple))
        self.counters.increment("comparators", comparators)
        self.counters.increment("sweeps", len(units) - comparators)
        return ReshuffleIntent(
            epoch=self.epoch,
            frontier_before=frontier,
            frontier_after=frontier + len(units),
            locations=touched,
            frames=frames,
            map_ops=map_ops,
        )

    def _apply(self, intent: ReshuffleIntent) -> None:
        """Apply phase: idempotent, replayable from the sealed record."""
        disk = self.engine.disk
        pm = self.cop.state
        try:
            with self.tracer.span(
                "reshuffle.write_back",
                nbytes=len(intent.frames) * disk.frame_size,
            ):
                disk.write_ranges([(loc, 1) for loc in intent.locations],
                                  intent.frames)
        except Exception:
            # Partial write-back: some locations carry post-swap frames the
            # map does not describe yet.  Retain the intent; the engine's
            # heal (and ours) re-applies it before anything reads those
            # locations — the op lock is held throughout, so no request
            # can slip in between the failure and the heal.
            self._pending = intent
            raise
        for page_id, location in intent.map_ops:
            pm.set_disk(page_id, location)
        self._pending = None
        pm.advance_epoch(intent.frontier_after)
        self._set_gauge()
        if intent.frontier_after >= self._total:
            self._finish_epoch()

    def _finish_epoch(self) -> None:
        self.cop.state.end_epoch()
        self.counters.increment("epochs")
        self._set_gauge()

    def _heal_pending(self) -> None:
        """Roll forward a batch whose write-back failed without a crash."""
        intent = self._pending
        if intent is None:
            return
        self._apply(intent)
        if self.journal is not None:
            self.journal.clear()
        self.counters.increment("recovery.rolled_forward")

    def _set_gauge(self) -> None:
        self._gauge.set(self.progress)

    # -- crash recovery --------------------------------------------------------

    def recover(self) -> str:
        """Repair a torn comparator batch after a restart; idempotent.

        Call after the engine's own :meth:`~RetrievalEngine.recover` (their
        journals are independent; order only matters for who sets
        ``disk.current_request`` last); after a restart, on the driver
        :meth:`~repro.core.database.PirDatabase.resume_reshuffle` attached
        to the restored epoch.  Returns one of ``"clean"``,
        ``"rolled_back"``, ``"replayed"``, ``"discarded_stale"`` with the
        engine's semantics.  Raises :class:`~repro.errors.RecoveryError`
        when the journal is *ahead* of (or unmatched by) the trusted
        state — e.g. a snapshot older than the journal: the record is the
        only roll-forward for a possibly torn batch, so it is retained
        rather than discarded.
        """
        with self.engine.op_lock:
            if self.journal is None:
                if self._pending is not None:
                    self._heal_pending()
                    return "replayed"
                return "clean"
            blob = self.journal.read()
            if blob is None:
                self._pending = None
                return "clean"
            try:
                intent = self._open_record(blob)
            except (CryptoError, StorageError):
                # Torn or unauthentic: the crash hit while the record was
                # being written, so the batch never applied anything.
                self.journal.clear()
                self._pending = None
                self.counters.increment("recovery.rolled_back")
                return "rolled_back"
            epoch, frontier, active = self.epoch, self.frontier, self.active
            if intent.epoch < epoch or (
                intent.epoch == epoch and intent.frontier_after <= frontier
            ):
                # Strictly behind the trusted state: a later epoch's
                # boundary (or this epoch's own apply) already made the
                # record moot.
                self.journal.clear()
                self.counters.increment("recovery.discarded_stale")
                return "discarded_stale"
            if intent.epoch > epoch or not active:
                # Ahead of (or unmatched by) the trusted state — e.g. the
                # snapshot restored is older than the journal.  A torn batch
                # may have left half-written frames this record alone can
                # roll forward, so refuse instead of discarding it.
                raise RecoveryError(
                    f"reshuffle journal holds a record for epoch "
                    f"{intent.epoch} (frontier {intent.frontier_before}->"
                    f"{intent.frontier_after}) but the trusted state is at "
                    f"epoch {epoch}"
                    + ("" if active else " with no active epoch")
                    + "; restore the snapshot this journal was written "
                    "after — clearing the record would lose the only "
                    "roll-forward for a torn batch"
                )
            if intent.frontier_before != frontier:
                raise RecoveryError(
                    f"reshuffle journal describes frontier "
                    f"{intent.frontier_before} but the restored epoch is at "
                    f"{frontier}; the trusted state is older than the "
                    "journal and cannot be rolled forward"
                )
            self._apply(intent)
            self.journal.clear()
            self.counters.increment("recovery.replayed")
            return "replayed"

    def _seal_record(self, intent: ReshuffleIntent) -> bytearray:
        """``intent`` as one journal record, sealed by the epoch's suite."""
        return self._suite.seal_intent(
            _INTENT_MAGIC, intent.encode(),
            frame_matrix(intent.frames, self.cop.frame_size),
        )

    def _open_record(self, record) -> ReshuffleIntent:
        """Authenticate and decode a journal record.

        Through the coprocessor, not the epoch's suite: the keys are the
        same, and it also accepts the legacy key during a rotation.  The
        record's length alone says how many frames it carries.
        """
        count = units_in(len(record), INTENT_OVERHEAD + _FRONTIER.size,
                         _HEADER_PER_FRAME + self.cop.frame_size)
        return ReshuffleIntent.decode(*self.cop.unseal_intent(
            _INTENT_MAGIC, record, _FRONTIER.size + count * _HEADER_PER_FRAME
        ))

    def close(self) -> None:
        """Detach from the engine's healer hook (idempotent).

        Epoch state is left as-is: a half-finished epoch simply stays at
        its frontier in the trusted state (snapshot it, or attach a new
        driver with ``resume_reshuffle()``).
        """
        try:
            self.engine._background_healers.remove(self._heal_pending)
        except ValueError:
            pass
