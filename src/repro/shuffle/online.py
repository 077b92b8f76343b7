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

Crash consistency is the engine's compute → intend → apply: each batch
seals a :class:`~repro.core.journal.ReshuffleIntent` (all rewritten frames +
the page-map delta + the frontier advance) into the engine's journal slot —
when the database has one — and commits through the engine's commit path,
which applies it and clears the slot.  The database's one ``recover()``
rolls a torn batch forward after a restart, and a transiently failed batch
apply is retained and healed before the next request or batch computes,
exactly like a failed request write-back (:mod:`repro.core.journal`).
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from .oblivious import batcher_network, network_size
from ..core.journal import RESHUFFLE_MAGIC, ReshuffleIntent, epoch_units
from ..errors import ConfigurationError, StorageError
from ..hardware.trusted import TAG_KEY_SIZE
from ..obs.registry import registry_or_private
from ..obs.tracer import NULL_TRACER
from ..storage.frames import frame_matrix

__all__ = ["OnlineReshuffler"]

_U64 = struct.Struct(">Q")

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

    Each batch is journaled in the engine's slot exactly when requests
    are, and repaired by the database's ``recover()``.

    The epoch itself — number, frontier, active bit and secret sort key —
    is trusted state (``cop.state``), sealed with the rest of it; the
    driver holds only its nonce stream and comparator cursor.  A driver
    built while an epoch is active (a restored snapshot, or a replaced
    driver's epoch) continues that epoch under a fresh nonce stream.
    """

    def __init__(
        self,
        database,
        batch_size: int = _DEFAULT_BATCH,
        metrics=None,
        tracer=None,
    ):
        if batch_size <= 0:
            raise ConfigurationError("reshuffle batch size must be positive")
        self.db = database
        self.engine = database.engine
        self.cop = database.cop
        self.batch_size = batch_size
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = registry_or_private(metrics)
        self.counters = self.metrics.counter_view("reshuffle.")

        n = self.engine.params.num_locations
        self._network = network_size(n)
        self._total = epoch_units(n)

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
            # The engine publishes progress as batches commit, and counts
            # the epoch's end there (reshuffle.epochs).
            self.metrics.gauge("reshuffle.progress").set(0.0)
            self.counters.increment("epochs.begun")
        return epoch

    def step(self, budget: Optional[int] = None) -> int:
        """Execute up to ``budget`` units (default ``batch_size``) as one
        batch; returns the number of units done (0 when idle).

        Holds the engine op lock for the duration of the batch — the
        bounded budget is what bounds a concurrent request's wait — and
        commits it like a request window: sealed into the engine's journal
        when there is one, then applied by the engine.  A batch whose
        write-back fails transiently raises; the engine retains it and
        heals it before the next request or batch computes.
        """
        if budget is None:
            budget = self.batch_size
        if budget <= 0:
            raise ConfigurationError("step budget must be positive")
        with self.engine.op_lock:
            # A previous request's or batch's unfinished write-back — this
            # epoch's last batch, maybe — must land before we read frames.
            self.engine._heal_pending()
            if not self.active:
                return 0

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
            with self.tracer.span("reshuffle.batch"):
                intent = self._compute_batch(start, units)
                if self.engine.journal is not None:
                    self.engine.journal.write(self._seal_record(intent))
                self.engine._commit(intent)
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

    def _seal_record(self, intent: ReshuffleIntent) -> bytearray:
        """``intent`` as one journal record, sealed by the epoch's suite."""
        return self._suite.seal_intent(
            RESHUFFLE_MAGIC, intent.encode(),
            frame_matrix(intent.frames, self.cop.frame_size),
        )
