"""One request path: golden vectors, window sizes, error slots, faults, trace.

Every operation runs through ``RetrievalEngine._run_window``: the per-op
methods are windows of one, ``run_batch`` serves up to k ops from one
physical scan of the round-robin block.  Two contracts are pinned here:

* a window of one is *byte-identical* to the serial Figure-3 path it
  replaced — replies, disk frames, sealed journal records, access trace
  and RNG stream (the golden vectors were generated from that path);
* replies are identical whatever the window size — the physical layout,
  RNG stream and trace may differ, the logical content may not.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_records
from repro.core.engine import BatchOp
from repro.core.journal import MemoryJournal
from repro.core.sharded import ShardedPirDatabase
from repro.errors import (
    CapacityError,
    ConfigurationError,
    PageDeletedError,
    PageNotFoundError,
    TransientStorageError,
)
from repro.faults import (
    SITE_DISK_READ,
    SITE_DISK_WRITE,
    FaultInjector,
    FaultPlan,
    FaultyDiskStore,
    SimulatedCrash,
    transient_writes,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.service.frontend import QueryFrontend, ServiceClient
from repro.service.protocol import Delete, Insert, Query, Refused, Result, Update
from repro.storage.disk import StoreWrapper
from repro.storage.page import Page
from repro.twoparty import TwoPartySession

from tests.helpers import make_db
from tests.test_crash_recovery import build_db, logical_state

SEED = 4242
NUM_RECORDS = 40


def twin_dbs(count=2, **options):
    """Identical databases, one per window size under comparison."""
    kwargs = dict(num_records=NUM_RECORDS, cache_capacity=6,
                  reserve_fraction=0.25, seed=SEED)
    kwargs.update(options)
    return [make_db(**kwargs) for _ in range(count)]


def run_per_op(db, ops):
    """Drive ``ops`` through the per-op methods (windows of one)."""
    results = []
    for op in ops:
        try:
            if op.kind == "query":
                results.append(db.query(op.page_id))
            elif op.kind == "update":
                results.append(db.update(op.page_id, op.payload))
            elif op.kind == "insert":
                results.append(db.insert(op.payload))
            elif op.kind == "delete":
                results.append(db.delete(op.page_id))
            else:
                results.append(db.touch())
        except Exception as exc:  # noqa: BLE001 - slots carry exceptions
            results.append(exc)
    return results


def assert_slots_equal(expected, got):
    assert len(expected) == len(got)
    for index, (want, have) in enumerate(zip(expected, got)):
        if isinstance(want, Exception):
            assert type(want) is type(have), f"slot {index}: {want!r} vs {have!r}"
            assert str(want) == str(have), f"slot {index}: {want!r} vs {have!r}"
        else:
            assert want == have, f"slot {index}: {want!r} vs {have!r}"


def assert_window_sizes_agree(ops, **options):
    """Per-op (window of 1) == ``window=2`` == one window of up to k."""
    per_op, pairs, whole = twin_dbs(3, **options)
    expected = run_per_op(per_op, ops)
    assert_slots_equal(expected, pairs.run_batch(ops, window=2))
    assert_slots_equal(expected, whole.run_batch(ops))
    for db in (per_op, pairs, whole):
        db.consistency_check()
    # The logical content (page_id -> payload/flags) converges too, even
    # though the physical layout legitimately differs per window size.
    assert logical_state(per_op) == logical_state(pairs) == logical_state(whole)
    return per_op, pairs, whole


MIXED_OPS = [
    BatchOp("query", page_id=3),
    BatchOp("update", page_id=5, payload=b"fused"),
    BatchOp("query", page_id=5),
    BatchOp("delete", page_id=7),
    BatchOp("insert", payload=b"first insert"),
    BatchOp("touch"),
    BatchOp("query", page_id=7),           # deleted -> PageDeletedError slot
    BatchOp("delete", page_id=7),          # double delete -> PageNotFoundError
    BatchOp("query", page_id=0),
    BatchOp("insert", payload=b"second insert"),
    BatchOp("update", page_id=1, payload=b"x" * 16),
    BatchOp("query", page_id=1),
    BatchOp("query", page_id=10 ** 9),     # out of range -> PageNotFoundError
]


# -- golden vectors -----------------------------------------------------------
#
# Generated at the parent of the commit that deleted the serial engine path
# (`_execute_request`), by running the two scenarios below through its
# per-op methods.  They never change: a window of one must keep
# reproducing the serial path's bytes.  (The "journal" digests alone were
# re-recorded when the intent record became header + frames under one MAC,
# and again when that MAC moved from the frames' bytes to their own tags;
# the frames inside it, like every other digest here, did not move.)


class RecordingJournal(MemoryJournal):
    """Keeps every sealed intent record the engine wrote."""

    def __init__(self):
        super().__init__()
        self.blobs = []

    def write(self, blob):
        self.blobs.append(bytes(blob))
        super().write(blob)


def golden_ops(count, seed):
    """A pinned op mix (own LCG, so no library RNG can move it)."""
    state = seed
    inserted = 0
    ops = []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        draw, page_id = (state >> 33) % 100, (state >> 40) % (NUM_RECORDS + 4)
        if draw < 45:
            ops.append(BatchOp("query", page_id=page_id))
        elif draw < 70:
            ops.append(BatchOp("update", page_id=page_id,
                               payload=b"u%d" % (state % 10 ** 9)))
        elif draw < 80:
            ops.append(BatchOp("delete", page_id=page_id))
        elif draw < 92:
            inserted += 1
            ops.append(BatchOp("insert", payload=b"ins-%d" % inserted))
        elif draw < 97:
            ops.append(BatchOp("touch"))
        else:
            ops.append(BatchOp("query", page_id=10 ** 6 + page_id))
    return ops


def _sha256(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def golden_digests(db, journal, replies):
    def reply_bytes(reply):
        if isinstance(reply, Exception):
            return f"E:{type(reply).__name__}:{reply}".encode()
        if isinstance(reply, bytes):
            return b"B:" + reply
        return f"V:{reply!r}".encode()

    return {
        "replies": _sha256(reply_bytes(reply) for reply in replies),
        "frames": _sha256(db.disk.peek(location)
                          for location in range(db.disk.num_locations)),
        "journal": _sha256(journal.blobs),
        "journal_records": len(journal.blobs),
        "trace": _sha256(
            repr((e.op, e.location, e.count, e.request_index)).encode()
            for e in db.trace
        ),
        "requests": db.engine.request_count,
        "next_rng_draw": db.cop.rng.randrange(2 ** 64),
    }


def golden_scenario_journaled(run=run_per_op):
    """MemoryJournal + reserve fraction + all five op kinds + bad slots."""
    journal = RecordingJournal()
    db, = twin_dbs(1, journal=journal)
    replies = run(db, MIXED_OPS + golden_ops(220, seed=SEED))
    return golden_digests(db, journal, replies)


def golden_scenario_rotation(run=run_per_op):
    """Captured mid key-rotation: both keys live, legacy frames on disk."""
    journal = RecordingJournal()
    db = make_db(num_records=120, cache_capacity=4, reserve_fraction=0.25,
                 block_size=6, seed=77, journal=journal)
    replies = run(db, golden_ops(30, seed=77))
    db.rotate_master_key(b"golden-rotation-key")
    replies += run(db, golden_ops(db.params.num_blocks // 2, seed=78))
    assert db.engine.rotation_requests_remaining is not None
    return golden_digests(db, journal, replies)


GOLDEN_JOURNALED = {
    "replies": "fbe02e809ceccf57d7e74bbb232d7267c0d5baf5af018e2cdac7cc7c68c38bbb",
    "frames": "d06c9a00a526a8fe7a692a8ecd717652547b7b0890ea55eae364409d4d2db825",
    "journal": "38f40426a3b0d5d879c0f6aad9892a7764d8447beb550a3ab48f65e8d04dc8f8",
    "journal_records": 225,
    "trace": "3809653a83b472834fd66124d02a0e9cd4baa7697d8995508ec46ece11750bc3",
    "requests": 225,
    "next_rng_draw": 18234967675049236395,
}
GOLDEN_ROTATION = {
    "replies": "f5afc3fe03bc24df1b0dd2aa73202ba46bf5bc62ba4cf8005cc7577817517560",
    "frames": "6bb6139add2607d76be73d665c3819096313257442efc84cfc569401343420cc",
    "journal": "de6a731b724a5c1834a03ac0455754fd32c3c37e83d7bde4a85ab6d63760d8b8",
    "journal_records": 40,
    "trace": "cf14df5c2eb677f5997f5b90b785586c9f1a9af219bdc59abc2d3101067e8761",
    "requests": 40,
    "next_rng_draw": 3313141720649431282,
}


def run_windows_of_one(db, ops):
    """``run_batch([op])`` per op: the same window of one, entered directly."""
    return [db.run_batch([op])[0] for op in ops]


# Recorded at the parent of the commit that made a window plan its ops
# before fetching the later extras in one store call, by running the
# journaled scenario above in windows of 2, 3, 8 and k (``None``).  The
# access trace is pinned as (op, location, count, request_index): a later
# extra's read now happens after every op is planned, so its virtual
# timestamp moved while the accesses, their order and their bytes did not.
# ``frames`` is what sees a page (or a deleted page's carcass) written into
# the wrong slot: ``content_digest`` only sees what a client can read.
GOLDEN_WINDOWS = {
    2: {
        "replies": GOLDEN_JOURNALED["replies"],
        "frames": "746a60ec52fa03989dabf1ddfd4f8f732e5131814d2bce58e0b74d266ea6825e",
        "journal": "0216a2e09bb45f555395e7ede4f1f173b103f5b44a6337eeeb6f271d95b773cd",
        "journal_records": 117,
        "trace": "c0cccdde09ab986ac841e44c8dddc5a5aa4693a291813a12c5a3f5bc908e7463",
        "requests": 225,
        "next_rng_draw": 4138976183289417469,
    },
    3: {
        "replies": GOLDEN_JOURNALED["replies"],
        "frames": "acde0aec5dfd00f6dd75588bab7a05c1a24f607b8e3bafd48f803abcc80bd1c8",
        "journal": "6f803e7d9b1a21097d36c157901a64eeccd32cd1e5251600ca815b2c75eb7356",
        "journal_records": 78,
        "trace": "932c33bfb9e535e4c46220e4597fad826a2e9334e33078058e95d4245a699e6c",
        "requests": 225,
        "next_rng_draw": 15265901157482454157,
    },
    8: {
        "replies": GOLDEN_JOURNALED["replies"],
        "frames": "6865023f3c0fc6d83f138552755dcbaa50766d171d4499f439380904e3ad726c",
        "journal": "d454b3c72d415c52e1dbb39a1aebee509ccf3ad8b87641cf79dd1518d4521ef2",
        "journal_records": 30,
        "trace": "da298dfb138d29a86f71279c22237577adb7837e183956caafa9954b6d7fa5d7",
        "requests": 225,
        "next_rng_draw": 14388762618927666784,
    },
    None: {
        "replies": GOLDEN_JOURNALED["replies"],
        "frames": "84f2b0b5c763f9b0d953b9ff8503f5dcca4a53e59d962a772b573fd85027279c",
        "journal": "8ad69c648222c2773721e70aea2b8448cee0a69ceb147b7b6f0715563e5c6374",
        "journal_records": 18,
        "trace": "911967f4116be4d6db685b9fc3f9988b60adf05ce4ed9f25e1b9e84cfa0ed51f",
        "requests": 225,
        "next_rng_draw": 5266790857014590665,
    },
}


def run_in_windows(width):
    def run(db, ops):
        return db.run_batch(ops, window=width)
    return run


class TestGoldenVectors:
    """The per-op API reproduces the deleted serial path byte for byte."""

    def test_journaled_mixed_ops(self):
        assert golden_scenario_journaled() == GOLDEN_JOURNALED

    def test_mid_key_rotation(self):
        assert golden_scenario_rotation() == GOLDEN_ROTATION

    def test_run_batch_of_one_is_the_same_path(self):
        assert golden_scenario_journaled(run_windows_of_one) == GOLDEN_JOURNALED
        assert golden_scenario_rotation(run_windows_of_one) == GOLDEN_ROTATION

    @pytest.mark.parametrize("width", sorted(GOLDEN_WINDOWS, key=str))
    def test_journaled_mixed_ops_in_windows(self, width):
        assert (golden_scenario_journaled(run_in_windows(width))
                == GOLDEN_WINDOWS[width])


class TestByteIdentity:
    """Replies must not depend on the window size, slot for slot."""

    def test_all_five_op_kinds_match_serial(self):
        assert_window_sizes_agree(MIXED_OPS)

    def test_multi_window_batch_matches_serial(self):
        k = make_db(num_records=NUM_RECORDS, cache_capacity=6,
                    reserve_fraction=0.25).params.block_size
        ops = [BatchOp("query", page_id=i % NUM_RECORDS)
               for i in range(3 * k + 2)]
        per_op, pairs, whole = assert_window_sizes_agree(ops)
        windows = [db.engine.counters.get("batch.windows")
                   for db in (per_op, pairs, whole)]
        assert windows == [len(ops), (len(ops) + 1) // 2, 4]
        assert (per_op.engine.request_count == pairs.engine.request_count
                == whole.engine.request_count == len(ops))

    def test_insert_ids_deterministic_across_paths(self):
        ops = [
            BatchOp("delete", page_id=11),
            BatchOp("delete", page_id=4),
            BatchOp("insert", payload=b"a"),   # reuses lowest free id
            BatchOp("insert", payload=b"b"),
        ]
        per_op, _, _ = assert_window_sizes_agree(ops)
        # The lower freed id, chosen deterministically.
        assert per_op.query(4) == b"a"

    def test_interleaving_serial_and_fused_calls(self):
        per_op, whole = twin_dbs()
        whole.update(9, b"warm")
        per_op.update(9, b"warm")
        ops = [BatchOp("query", page_id=9), BatchOp("delete", page_id=9)]
        assert_slots_equal(run_per_op(per_op, ops), whole.run_batch(ops))
        with pytest.raises(PageDeletedError):
            whole.query(9)

    def test_explicit_window_size_and_validation(self):
        db, = twin_dbs(1)
        ops = [BatchOp("query", page_id=i) for i in range(6)]
        got = db.run_batch(ops, window=2)
        assert db.engine.counters.get("batch.windows") == 3
        assert all(not isinstance(item, Exception) for item in got)
        with pytest.raises(ConfigurationError):
            db.run_batch(ops, window=0)
        # An unknown op kind fails its slot, not the batch.
        bad = db.run_batch([BatchOp("frobnicate"),
                            BatchOp("query", page_id=0)])
        assert isinstance(bad[0], ConfigurationError)
        assert not isinstance(bad[1], Exception)


class TestWindowMatrix:
    """The window is one plaintext matrix rewritten in place (DESIGN §14)."""

    def test_block_page_displaced_into_a_later_ops_extra_slot(self):
        """Every disk-resident query swaps a block page into its op's extra
        slot — a row *behind* the block page's own, which the same window
        overwrites.  With three such ops in one window the displaced pages
        must still land intact (they are encoded before any row moves)."""
        per_op, whole = twin_dbs()
        k = whole.params.block_size
        block = range(whole.engine.next_block_index * k,
                      (whole.engine.next_block_index + 1) * k)
        residents = {whole.cop.unseal(whole.disk.peek(loc)).page_id
                     for loc in block}
        outside = [
            page_id for page_id in range(NUM_RECORDS)
            if not whole.cop.state.lookup(page_id).in_cache
            and page_id not in residents
        ][:4]
        ops = [BatchOp("query", page_id=page_id) for page_id in outside]
        assert len(ops) >= 3
        assert_slots_equal(run_per_op(per_op, ops), whole.run_batch(ops))
        displaced = [
            page_id for page_id in residents
            if not whole.cop.state.lookup(page_id).in_cache
            and whole.cop.state.lookup(page_id).position not in block
        ]
        assert displaced  # block pages now live at the ops' extra locations
        whole.consistency_check()
        assert logical_state(per_op) == logical_state(whole)

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(
        st.one_of(
            st.builds(BatchOp, st.just("query"), st.integers(0, 49)),
            st.builds(BatchOp, st.just("update"), st.integers(0, 49),
                      st.binary(max_size=16)),
            st.builds(BatchOp, st.just("delete"), st.integers(0, 49)),
            st.builds(BatchOp, st.just("insert"), st.none(),
                      st.binary(max_size=16)),
            st.just(BatchOp("touch")),
        ),
        min_size=1, max_size=24,
    ))
    def test_any_op_sequence_agrees_across_window_sizes(self, ops):
        """Window of 1 / 2 / k: same reply slots, same logical content.

        Content as a client sees it (``content_digest``), not the raw
        ``logical_state``: a page deleted while outside the window keeps
        its carcass on disk — only the page map's flag changes — so the
        *physical* remains of a deleted page depend on the window size.
        """
        per_op, pairs, whole = twin_dbs(3)
        expected = run_per_op(per_op, ops)
        assert_slots_equal(expected, pairs.run_batch(ops, window=2))
        assert_slots_equal(expected, whole.run_batch(ops))
        for db in (per_op, pairs, whole):
            db.consistency_check()
        assert (per_op.content_digest() == pairs.content_digest()
                == whole.content_digest())

    @pytest.mark.parametrize("batch", [1, 5])
    def test_pages_built_and_encoded_per_op_not_per_frame(
            self, batch, monkeypatch):
        """A window of B ops constructs O(B) pages and encodes O(B) of them,
        whatever k — the other k + B - O(B) rows never leave the matrix."""
        for k in (8, 24):
            db = make_db(num_records=120, cache_capacity=6, block_size=k,
                         seed=SEED)
            ops = [BatchOp("update", page_id=7 * i, payload=b"counted")
                   for i in range(batch)]
            counts = {"built": 0, "encoded": 0}
            init, encode = Page.__post_init__, Page.encode

            def counting_init(page):
                counts["built"] += 1
                init(page)

            def counting_encode(page, capacity):
                counts["encoded"] += 1
                return encode(page, capacity)

            with monkeypatch.context() as patch:
                patch.setattr(Page, "__post_init__", counting_init)
                patch.setattr(Page, "encode", counting_encode)
                results = db.run_batch(ops)
            assert results == [None] * batch
            assert db.engine.counters.get("batch.windows") == 1
            # Per update: the target's and slot r's views plus the fresh
            # page; re-encoded: the two slots the op swapped.
            assert batch <= counts["built"] <= 4 * batch
            assert batch <= counts["encoded"] <= 2 * batch


class TestErrorSlots:
    """Failed slots must not poison their window's healthy neighbours."""

    def test_validation_failures_do_not_consume_requests(self):
        db, = twin_dbs(1)
        before = db.engine.request_count
        got = db.run_batch([
            BatchOp("query", page_id=10 ** 9),
            BatchOp("update", page_id=2, payload=b"z" * 10_000),
        ])
        assert isinstance(got[0], PageNotFoundError)
        assert isinstance(got[1], ConfigurationError)
        assert db.engine.request_count == before
        assert db.engine.counters.get("batch.windows") == 0

    def test_mixed_window_serves_valid_slots(self):
        ops = [
            BatchOp("query", page_id=10 ** 9),
            BatchOp("query", page_id=2),
            BatchOp("delete", page_id=10 ** 9),
            BatchOp("update", page_id=3, payload=b"ok"),
            BatchOp("query", page_id=3),
        ]
        _, _, whole = assert_window_sizes_agree(ops)
        # Only the three valid ops consumed requests.
        assert whole.engine.counters.get("batch.ops") == 3

    def test_insert_capacity_error_slot(self):
        # No reserve: the free pool is only round-up padding; exhaust it.
        db, = twin_dbs(1, reserve_fraction=0.0)
        free = len(db.cop.state.free_ids())
        ops = [BatchOp("insert", payload=b"x")] * (free + 2)
        got = db.run_batch(ops)
        assert all(isinstance(item, int) for item in got[:free])
        assert all(isinstance(item, CapacityError) for item in got[free:])
        db.consistency_check()


class TestFusedUnderFaults:
    """Window-grained failure isolation, healing, and crash recovery."""

    def _faulted_db(self, plans, journal=None):
        injector = FaultInjector(0)
        db = build_db(journal=journal, injector=injector)
        for plan in plans:
            injector.add(plan)
        return db

    def test_read_fault_fails_only_its_window(self):
        k = build_db().params.block_size
        db = self._faulted_db(
            [FaultPlan(SITE_DISK_READ, "transient", times=1)]
        )
        ops = [BatchOp("query", page_id=i) for i in range(2 * k)]
        got = db.run_batch(ops)
        # First window aborted cleanly before any state change ...
        assert all(isinstance(item, TransientStorageError)
                   for item in got[:k])
        # ... the second executed normally.
        reference = build_db()
        for index in range(k, 2 * k):
            assert got[index] == reference.query(index)
        assert db.engine.counters.get("batch.windows") == 1
        db.consistency_check()

    def test_failed_per_op_request_resets_trace_attribution(self):
        """Regression: a compute-phase failure of a per-op request left
        ``disk.current_request`` at the failed index, so later background
        (reshuffle) accesses were attributed to a client request."""
        db = self._faulted_db(
            [FaultPlan(SITE_DISK_READ, "transient", times=1)]
        )
        with pytest.raises(TransientStorageError):
            db.query(3)
        assert db.disk.current_request == -1
        assert db.engine.request_count == 0
        assert db.query(3) == make_records(30, 16)[3]
        assert db.disk.current_request == -1

    def test_write_fault_rolls_window_forward(self):
        journal = MemoryJournal()
        db = self._faulted_db([transient_writes(times=1)], journal=journal)
        ops = [
            BatchOp("update", page_id=5, payload=b"torn batch"),
            BatchOp("delete", page_id=7),
            BatchOp("insert", payload=b"survives"),
        ]
        got = db.run_batch(ops)
        # The window committed before its write-back failed: every op is
        # answered, and only the write-back waits for the next heal.
        assert got == [None, None, 7]
        assert db.engine.counters.get("write_back.deferred") == 1
        assert db.engine.write_back_pending
        assert journal.read() is not None

        # The next batch heals the whole torn window first — all three ops
        # committed atomically — then serves its own ops.  (The insert
        # recycled the id freed by the in-window delete: lowest free id
        # wins, whatever the window size.)
        follow_up = db.run_batch([
            BatchOp("query", page_id=5),
            BatchOp("query", page_id=7),
        ])
        assert follow_up[0] == b"torn batch"
        assert follow_up[1] == b"survives"
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        assert not db.engine.write_back_pending
        assert journal.read() is None
        db.consistency_check()

    def test_crash_mid_window_recovers_whole_window(self):
        k = build_db().params.block_size
        journal = MemoryJournal()
        # Wrap the disk *after* setup so the crash threshold counts only
        # request-time frames (the injector's frame counter is cumulative).
        db = build_db(journal=journal)
        injector = FaultInjector(
            0, [FaultPlan(SITE_DISK_WRITE, "crash", after=k // 2)]
        )
        db.engine.disk = FaultyDiskStore(db.engine.disk, injector)
        ops = [
            BatchOp("update", page_id=5, payload=b"crashed window"),
            BatchOp("delete", page_id=7),
            BatchOp("query", page_id=3),
        ]
        with pytest.raises(SimulatedCrash):
            db.run_batch(ops)
        # "Restart": unwrap the faulty store, then roll the journal forward.
        db.engine.disk = db.engine.disk.inner
        report = db.recover()
        assert report.action == "replayed"
        assert db.engine.request_count == 3
        assert db.query(5) == b"crashed window"
        with pytest.raises(PageDeletedError):
            db.query(7)
        db.consistency_check()

    def test_fused_after_serial_write_fault_heals_first(self):
        journal = MemoryJournal()
        db = self._faulted_db([transient_writes(times=1)], journal=journal)
        db.update(5, b"per-op torn")  # committed, write-back deferred
        assert db.engine.write_back_pending
        got = db.run_batch([BatchOp("query", page_id=5)])
        assert got[0] == b"per-op torn"
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        db.consistency_check()


class TestWindowTraceShape:
    """The window trace must not depend on the op mix it serves."""

    def _window_shape(self, ops):
        db, = twin_dbs(1)
        base_index = db.engine.request_count
        results = db.run_batch(ops)
        assert not any(isinstance(item, Exception) for item in results)
        assert db.engine.counters.get("batch.windows") == 1
        return db.trace.request_shape(base_index)

    def test_shape_independent_of_op_types(self):
        k = make_db(num_records=NUM_RECORDS).params.block_size
        assert k >= 5
        mixes = [
            [BatchOp("query", page_id=i) for i in range(5)],
            [
                BatchOp("update", page_id=2, payload=b"u"),
                BatchOp("delete", page_id=9),
                BatchOp("insert", payload=b"i"),
                BatchOp("touch"),
                BatchOp("query", page_id=3),
            ],
            [BatchOp("touch") for _ in range(5)],
        ]
        shapes = [self._window_shape(mix) for mix in mixes]
        assert shapes[0] == shapes[1] == shapes[2]

    def test_reads_collapse_to_one_block_scan(self):
        db, = twin_dbs(1)
        k = db.params.block_size
        n = k  # one full window
        db.run_batch([BatchOp("query", page_id=i) for i in range(n)])
        # n windows of one would read n * (k + 1) frames; one window of n
        # reads k + n.  The disk trace records exactly that.
        reads = [e.count for e in db.trace if e.op == "read"]
        assert reads == [k] + [1] * n


class CountingStore(StoreWrapper):
    """Counts the calls of the two store verbs that pass through it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = {"read_ranges": 0, "write_ranges": 0}

    def read_ranges(self, ranges):
        self.calls["read_ranges"] += 1
        return super().read_ranges(ranges)

    def write_ranges(self, ranges, frames):
        self.calls["write_ranges"] += 1
        super().write_ranges(ranges, frames)


class TestWindowFetchesTwice:
    """A window plans its B ops, then fetches once: the block rides with
    the first op's extra, and the B - 1 later extras are one more store
    call and one more kernel pass — min(B, 2) of each, whatever B."""

    @pytest.mark.parametrize("width", [1, 2, 3, 8, "k"])
    def test_store_calls_kernel_passes_and_decrypt_spans(
            self, width, monkeypatch):
        tracer = Tracer()
        db, = twin_dbs(1, tracer=tracer)
        k = db.params.block_size
        width = k if width == "k" else width
        store = db.engine.disk = CountingStore(db.engine.disk)
        unsealed = []
        unseal = db.cop.unseal_frames

        def counting_unseal(frames):
            unsealed.append(len(frames))
            return unseal(frames)

        monkeypatch.setattr(db.cop, "unseal_frames", counting_unseal)
        first_span = len(tracer.spans)
        results = db.run_batch(
            [BatchOp("query", page_id=i) for i in range(width)])
        assert not any(isinstance(item, Exception) for item in results)
        fetches = min(width, 2)
        assert store.calls == {"read_ranges": fetches, "write_ranges": 1}
        assert unsealed == [k + 1, width - 1][:fetches]
        decrypts = [span for span in tracer.spans[first_span:]
                    if span.name == "decrypt"]
        assert len(decrypts) == fetches


class TestEveryExtraIsChecked:
    """Each extra frame must hold the page the plan chose for its location,
    a random extra's as much as a target's: a frame moved behind the
    engine's back refuses the window before anything trusted or durable
    changes (a committed window would relocate the wrong page)."""

    OPS = [BatchOp("touch")] * 3  # every extra is a random page

    @staticmethod
    def _state(db, journal):
        pm, cache = db.cop.state, db.cop.cache
        return (
            db.engine.request_count, db.engine.next_block_index,
            list(journal.blobs), journal.read(),
            [(loc.in_cache, loc.position, loc.deleted)
             for loc in map(pm.lookup, range(pm.num_pages))],
            sorted(pm.free_ids()),
            [cache.get(slot) for slot in range(cache.capacity)],
            [db.disk.peek(location)
             for location in range(db.disk.num_locations)],
        )

    @pytest.mark.parametrize("op", [0, 2], ids=["first-extra", "later-extra"])
    def test_a_random_extra_holding_another_page_refuses_the_window(self, op):
        # Where the window's extras go, from a same-seed twin: planning
        # reads only the page map and cache, which the swap leaves alone.
        probe, = twin_dbs(1)
        start = len(probe.trace)
        probe.run_batch(self.OPS)
        accesses = [(e.location, e.count) for e in list(probe.trace)[start:]
                    if e.op == "read"]
        (block_start, k), extras = accesses[0], [loc for loc, _ in accesses[1:]]
        assert len(extras) == len(self.OPS)

        journal = RecordingJournal()
        db, = twin_dbs(1, journal=journal)
        other = next(location for location in range(db.disk.num_locations)
                     if not block_start <= location < block_start + k
                     and location not in extras)
        # Two valid frames trade places: the extra's location now holds
        # another page, authentically sealed.
        moved, there = db.disk.peek(extras[op]), db.disk.peek(other)
        db.disk.poke(extras[op], there)
        db.disk.poke(other, moved)
        before = self._state(db, journal)
        results = db.run_batch(self.OPS)
        assert all(isinstance(item, PageNotFoundError) for item in results)
        assert self._state(db, journal) == before
        assert db.engine.counters.get("batch.windows") == 0


class TestWindowMetrics:
    def test_query_seconds_observed_once_per_committed_window(self):
        """Regression: only the serial path fed ``engine.query_seconds``,
        so the query latency histogram never saw batch traffic."""
        registry = MetricsRegistry()
        db, = twin_dbs(1, metrics=registry)
        hist = registry.histogram("engine.query_seconds")
        db.run_batch([BatchOp("query", page_id=i) for i in range(8)],
                     window=4)
        assert hist.state().count == 2
        db.query(1)
        assert hist.state().count == 3
        # A window whose every slot fails validation commits nothing.
        db.run_batch([BatchOp("query", page_id=10 ** 9)])
        assert hist.state().count == 3


class TestTwoPartyWindowOfOne:
    def test_every_owner_op_costs_two_round_trips(self):
        """Each of ``RemoteDisk``'s two verbs is one round trip: a window
        of one must stay one batched read + one batched write-back."""
        records = make_records(60, 16)
        session = TwoPartySession.create(
            records, cache_capacity=8, target_c=2.0, page_capacity=16,
            reserve_fraction=0.2, seed=99,
        )
        owner, round_trips = session.owner, session.channel.counters
        steps = [
            lambda: owner.query(5),
            lambda: owner.query(5),            # now cached: a hit
            lambda: owner.update(7, b"owner-edit"),
            lambda: owner.insert(b"outsourced"),
            lambda: owner.delete(11),
        ]
        for step in steps:
            before = round_trips.get("round_trips")
            step()
            assert round_trips.get("round_trips") == before + 2
        assert owner.query(5) == records[5]
        assert owner.query(7) == b"owner-edit"
        with pytest.raises(PageDeletedError):
            owner.query(11)


class TestShardedFusedBatch:
    def _twin_sharded(self):
        records = make_records(NUM_RECORDS, 16)
        kwargs = dict(cache_capacity_per_shard=4, target_c=2.0,
                      page_capacity=16, reserve_fraction=0.25, seed=77)
        return tuple(ShardedPirDatabase.create(records, 4, **kwargs)
                     for _ in range(2))

    def test_sharded_batch_matches_serial_methods(self):
        per_op, batched = self._twin_sharded()
        try:
            ops = MIXED_OPS[:-1]  # same mix, minus the out-of-range probe
            expected = run_per_op(per_op, ops)
            got = batched.run_batch(ops)
            assert_slots_equal(expected, got)
            # Inserted global ids route identically afterwards.
            inserted = [item for item in got if isinstance(item, int)]
            for global_id in inserted:
                assert batched.query(global_id) == per_op.query(global_id)
            per_op.consistency_check()
            batched.consistency_check()
            # Cover traffic keeps per-shard request streams equal-length.
            counts = batched.shard_request_counts()
            assert len(set(counts)) == 1
        finally:
            per_op.close()
            batched.close()

    def test_sharded_batch_tombstones_inside_batch(self):
        per_op, batched = self._twin_sharded()
        try:
            ops = [
                BatchOp("delete", page_id=22),
                BatchOp("insert", payload=b"recycles the slot"),
                BatchOp("query", page_id=22),   # must NOT alias the insert
                BatchOp("delete", page_id=22),  # tombstoned -> deleted error
            ]
            assert_slots_equal(run_per_op(per_op, ops), batched.run_batch(ops))
        finally:
            per_op.close()
            batched.close()


class TestFrontendFusedBatch:
    def _client(self):
        return ServiceClient(QueryFrontend(
            make_db(num_records=NUM_RECORDS, reserve_fraction=0.25,
                    seed=SEED),
        ))

    def test_batch_equals_same_ops_sent_one_by_one(self):
        records = make_records(NUM_RECORDS, 16)
        # Insert precedes the delete so it takes a reserve slot instead of
        # recycling page 4 — the query of the deleted page must refuse.
        batch = [Query(2), Update(3, b"new"), Query(3), Insert(b"ins"),
                 Delete(4), Query(4), Query(10 ** 9)]
        batch_replies = self._client().batch(list(batch))
        # A Batch of one is the wire's window of one: same reply shape
        # (refusals come back as slots, not exceptions) for every op.
        one_by_one = self._client()
        single_replies = [one_by_one.batch([op])[0] for op in batch]
        assert batch_replies == single_replies
        assert batch_replies[0] == Result(2, records[2])
        assert batch_replies[3].payload == b"ins"
        assert isinstance(batch_replies[5], Refused)
        assert batch_replies[5].code == "deleted"
        assert isinstance(batch_replies[6], Refused)
        assert batch_replies[6].code == "not-found"
        # ... and the plain per-op calls return the same payloads.
        plain = self._client()
        assert plain.query(2) == records[2]
        plain.update(3, b"new")
        assert plain.query(3) == b"new"
        assert plain.insert(b"ins") == batch_replies[3].page_id
        plain.delete(4)
        with pytest.raises(PageDeletedError):
            plain.query(4)
        with pytest.raises(PageNotFoundError):
            plain.query(10 ** 9)

    def test_fused_path_counters(self):
        client = self._client()
        frontend = client.frontend
        client.batch([Query(0), Query(1), Query(2)])
        assert frontend.counters.get("batch.requests") == 1
        assert frontend.counters.get("batch.ops") == 3
        engine = frontend.database.engine
        assert engine.counters.get("batch.windows") == 1
        assert engine.counters.get("batch.ops") == 3
