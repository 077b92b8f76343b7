"""Crash-consistent write-back: journal codec, recovery, crash sweeps.

The heart of this module is the *crash-at-every-step* sweep: a seeded
workload is re-run once per possible crash point (every disk-write frame,
and every journal write), the simulated power loss is taken, recovery runs,
and the surviving database must be byte-for-byte equivalent to a fault-free
twin — including keeping the fixed 2(k+1)-frame trace shape for every
post-recovery request.
"""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro.core.engine import BatchOp
from repro.core.journal import (
    FLAG_DELETED,
    INTENT_MAGIC,
    MAP_DISK,
    FileJournal,
    MemoryJournal,
    WriteIntent,
    header_size,
)
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.crypto.suite import INTENT_OVERHEAD
from repro.errors import (
    ConfigurationError,
    CryptoError,
    RecoveryError,
    StorageError,
    TransientStorageError,
)
from repro.faults import (
    SITE_DISK_WRITE,
    SITE_JOURNAL_WRITE,
    FaultInjector,
    FaultPlan,
    FaultyDiskStore,
    FaultyJournal,
    SimulatedCrash,
    crash_after_writes,
    transient_writes,
)
from repro.storage.disk import DiskStore
from repro.storage.page import Page
from repro.storage.trace import READ, WRITE

from tests.helpers import RecordingJournal, make_db


def faulty_factory(injector):
    def build(num_locations, frame_size, timing, clock, trace):
        return FaultyDiskStore(
            DiskStore(num_locations, frame_size, timing, clock, trace),
            injector,
        )

    return build


def logical_state(db):
    """Full logical content: page_id -> (payload, deleted), disk + cache."""
    state = {}
    for location in range(db.disk.num_locations):
        frame = db.disk.peek(location)
        assert frame is not None, f"location {location} uninitialised"
        page = db.cop.unseal(frame)  # decrypts AND authenticates
        state[page.page_id] = (page.payload, page.deleted)
    for slot in range(db.cop.cache.capacity):
        page = db.cop.cache.get(slot)
        state[page.page_id] = (page.payload, page.deleted)
    return state


def workload_ops():
    """A deterministic mixed workload: queries, updates, a delete, an insert."""
    return [
        lambda db: db.query(3),
        lambda db: db.update(5, b"crash-me"),
        lambda db: db.query(5),
        lambda db: db.delete(7),
        lambda db: db.insert(b"fresh page"),
        lambda db: db.query(0),
    ]


def run_workload(db, start=0):
    for op in workload_ops()[start:]:
        op(db)


NUM_RECORDS = 30
SEED = 99


def build_db(journal=None, injector=None, seed=SEED, **options):
    if injector is not None:
        options["disk_factory"] = faulty_factory(injector)
    return make_db(num_records=NUM_RECORDS, cache_capacity=6, seed=seed,
                   journal=journal, **options)


def seal_intent(db, intent, frames=None):
    """Seal ``intent`` the way the engine's commit point does.

    Without ``frames`` the record carries k + B sealed frames of a zeroed
    plaintext — frames that open, as recovery checks before it acts on a
    record, though never ones to apply.  A sibling suite seals them, so
    the database's own nonce stream does not move.
    """
    if frames is None:
        frames = db.cop.sibling_suite("test-frames").encrypt_pages(np.zeros(
            (db.params.block_size + intent.request_span,
             db.cop.plaintext_page_size),
            np.uint8,
        ))
    return db.cop.seal_intent(
        INTENT_MAGIC, intent.encode(db.params.page_capacity), frames
    )


class TestWriteIntentCodec:
    def make_intent(self):
        return WriteIntent(
            request_index=41,
            next_block=3,
            rotation_left=-1,
            block_start=24,
            extra_locations=[7],
            cache_puts=[(2, Page(9, b"payload")), (0, Page(1, b"", True))],
            flag_ops=[(7, FLAG_DELETED)],
            map_ops=[(9, MAP_DISK, 24), (1, MAP_DISK, 7)],
            frames=[b"\x01" * 10, b"\x02" * 10],
        )

    def test_roundtrip(self):
        intent = self.make_intent()
        decoded = WriteIntent.decode(intent.encode(16), intent.frames)
        assert decoded == intent

    def test_header_is_padded_to_its_public_size(self):
        intent = self.make_intent()
        assert len(intent.encode(16)) == header_size(1, 16)
        assert len(intent.encode(64)) == header_size(1, 64)
        bare = WriteIntent(request_index=0, next_block=0, rotation_left=-1,
                           block_start=0, extra_locations=[0, 1, 2])
        assert len(bare.encode(16)) == header_size(3, 16)
        # More deltas than a window of one can produce: refused, not grown.
        intent.cache_puts *= 2
        with pytest.raises(StorageError):
            intent.encode(16)

    def test_bad_magic_rejected(self):
        db = build_db()
        intent = self.make_intent()
        record = db.cop.seal_intent(
            b"XXXX", intent.encode(16), np.zeros((2, db.cop.frame_size), np.uint8)
        )
        with pytest.raises(CryptoError):
            db.cop.unseal_intent(INTENT_MAGIC, record, header_size(1, 16))

    def test_truncation_rejected(self):
        header = self.make_intent().encode(16)
        for cut in (5, 60, 120):
            with pytest.raises(StorageError):
                WriteIntent.decode(header[:cut], [])

    def test_trailing_bytes_rejected(self):
        header = self.make_intent().encode(16)
        with pytest.raises(StorageError):
            WriteIntent.decode(header + b"\x01", [])
        with pytest.raises(StorageError):
            WriteIntent.decode(header[:-1] + b"\x01", [])


class TestJournalBackends:
    def test_memory_journal_single_slot(self):
        journal = MemoryJournal()
        assert journal.read() is None
        journal.write(b"record-1")
        journal.write(b"record-2")
        assert journal.read() == b"record-2"
        journal.clear()
        assert journal.read() is None
        assert journal.writes == 2

    def test_file_journal_roundtrip(self, tmp_path):
        path = str(tmp_path / "intent.jnl")
        journal = FileJournal(path)
        assert journal.read() is None
        journal.write(b"durable record")
        # A second handle (the "restarted process") sees the record.
        assert FileJournal(path).read() == b"durable record"
        journal.clear()
        assert FileJournal(path).read() is None
        journal.clear()  # idempotent

    def test_a_file_journal_costs_no_virtual_time(self, tmp_path):
        """A host file journal pays real I/O, never the virtual clock: a
        database journaling to a file keeps the virtual time of one
        journaling to untimed NVRAM."""
        from repro.hardware.specs import IBM_4764

        elapsed = []
        for journal in (FileJournal(str(tmp_path / "intent.jnl"),
                                    fsync=False),
                        MemoryJournal()):
            db = build_db(journal=journal, spec=IBM_4764)
            run_workload(db)
            assert journal.writes == len(workload_ops())
            elapsed.append(db.clock.now)
            db.close()
        assert elapsed[0] > 0.0
        assert elapsed[0] == elapsed[1]

    def test_journaled_write_costs_virtual_time(self):
        from repro.sim.clock import VirtualClock
        from repro.storage.timing import DiskTimingModel

        clock = VirtualClock()
        journal = MemoryJournal(clock=clock, timing=DiskTimingModel())
        journal.write(b"x" * 4096)
        assert clock.now > 0.0


class TestJournaledOperation:
    def test_journal_cleared_after_each_request(self):
        journal = MemoryJournal()
        db = build_db(journal=journal)
        run_workload(db)
        assert journal.read() is None
        assert not db.engine.journal_pending
        assert journal.writes == len(workload_ops())
        db.consistency_check()

    def test_journaled_matches_unjournaled_content(self):
        journaled = build_db(journal=MemoryJournal())
        run_workload(journaled)
        # Same logical content; physical layout differs because sealing the
        # journal record consumes extra nonces from the shared RNG stream.
        plain = build_db()
        run_workload(plain)
        a = {k: v for k, v in logical_state(journaled).items()}
        b = {k: v for k, v in logical_state(plain).items()}
        live = lambda s: {k: v for k, v in s.items() if not v[1]}
        assert live(a) == live(b)

    def test_journaled_run_is_deterministic(self):
        def run():
            db = build_db(journal=MemoryJournal())
            run_workload(db)
            events = [(e.op, e.location, e.count, e.request_index,
                       e.timestamp) for e in db.trace]
            return events, db.clock.now

        assert run() == run()

    def test_recover_on_clean_db_is_noop(self):
        db = build_db(journal=MemoryJournal())
        run_workload(db)
        before = logical_state(db)
        report = db.recover()
        assert report.action == "clean"
        assert logical_state(db) == before

    def test_recover_without_journal_is_noop(self):
        db = build_db()
        assert db.recover().action == "clean"


class TestCrashSweep:
    """Crash at every individual write step; recovery must roll forward."""

    def _twin_state(self):
        twin = build_db(journal=MemoryJournal())
        run_workload(twin)
        return logical_state(twin), twin.params

    def test_crash_at_every_disk_write_frame(self):
        twin_state, params = self._twin_state()
        k = params.block_size
        frames_per_request = k + 1
        setup_frames = params.num_locations
        total_frames = len(workload_ops()) * frames_per_request

        for crash_frame in range(total_frames):
            injector = FaultInjector(
                0, [crash_after_writes(setup_frames + crash_frame)]
            )
            db = build_db(journal=MemoryJournal(), injector=injector)

            crashed_at = None
            for index, op in enumerate(workload_ops()):
                try:
                    op(db)
                except SimulatedCrash:
                    crashed_at = index
                    break
            assert crashed_at == crash_frame // frames_per_request, (
                f"crash frame {crash_frame} hit the wrong request"
            )

            assert db.engine.journal_pending
            report = db.recover()
            # The intent record was sealed before any frame hit the disk,
            # so every in-write crash rolls forward.
            assert report.action == "replayed"
            assert report.request_index == crashed_at
            assert not db.engine.journal_pending
            assert db.engine.request_count == crashed_at + 1

            # The crashed request committed during recovery; resume after it.
            run_workload(db, start=crashed_at + 1)
            assert logical_state(db) == twin_state, (
                f"state diverged after crash at frame {crash_frame}"
            )
            db.consistency_check()

    def test_post_recovery_trace_keeps_request_shape(self):
        params = build_db().params
        k = params.block_size
        injector = FaultInjector(
            0, [crash_after_writes(params.num_locations + 2 * (k + 1) + 3)]
        )
        db = build_db(journal=MemoryJournal(), injector=injector)
        with pytest.raises(SimulatedCrash):
            run_workload(db)
        db.recover()
        run_workload(db, start=3)
        expected = [(READ, k), (READ, 1), (WRITE, k), (WRITE, 1)]
        for index in range(3, len(workload_ops())):
            assert db.trace.request_shape(index) == expected

    def test_crash_at_every_journal_write(self):
        """A lost intent record means the request never happened."""
        for crash_op in range(len(workload_ops())):
            injector = FaultInjector(
                0, [FaultPlan(SITE_JOURNAL_WRITE, "crash", after=crash_op)]
            )
            journal = FaultyJournal(MemoryJournal(), injector)
            db = build_db(journal=journal)

            crashed_at = None
            for index, op in enumerate(workload_ops()):
                try:
                    op(db)
                except SimulatedCrash:
                    crashed_at = index
                    break
            assert crashed_at == crash_op

            # The record never became durable, so the journal slot is empty
            # and recovery has nothing to do — the request simply never
            # happened.
            report = db.recover()
            assert report.action == "clean"
            # The round-robin pointer never advanced: the request can simply
            # be re-issued, and the rest of the workload completes.
            assert db.engine.request_count == crashed_at
            run_workload(db, start=crashed_at)
            db.consistency_check()

    def test_double_crash_during_recovery(self):
        params = build_db().params
        k = params.block_size
        injector = FaultInjector(
            0, [crash_after_writes(params.num_locations + (k + 1) + 2)]
        )
        db = build_db(journal=MemoryJournal(), injector=injector)
        with pytest.raises(SimulatedCrash):
            run_workload(db)
        # Power fails again mid-replay...
        injector.add(FaultPlan(
            SITE_DISK_WRITE, "crash",
            after=injector.frames_seen(SITE_DISK_WRITE) + 3,
        ))
        with pytest.raises(SimulatedCrash):
            db.recover()
        # ...and recovery is idempotent: the second attempt completes.
        report = db.recover()
        assert report.action == "replayed"
        run_workload(db, start=2)
        db.consistency_check()


class TestRecoveryEdgeCases:
    def test_torn_record_rolls_back(self):
        journal = MemoryJournal()
        db = build_db(journal=journal)
        db.query(1)
        sealed = seal_intent(db, WriteIntent(
            request_index=1, next_block=0, rotation_left=-1,
            block_start=0, extra_locations=[0],
        ))
        journal.write(sealed[: len(sealed) // 2])
        assert db.recover().action == "rolled_back"
        assert journal.read() is None

    def test_unauthentic_record_rolls_back(self):
        journal = MemoryJournal()
        db = build_db(journal=journal)
        db.query(1)
        journal.write(b"\x00" * 64)
        assert db.recover().action == "rolled_back"

    def test_stale_record_discarded(self):
        # Crash between the pointer advance and the journal clear: the
        # record describes an already-committed request.
        journal = MemoryJournal()
        db = build_db(journal=journal)
        db.query(1)
        db.query(2)
        stale = WriteIntent(
            request_index=1, next_block=db.engine.next_block_index,
            rotation_left=-1, block_start=0, extra_locations=[0],
        )
        journal.write(seal_intent(db, stale))
        report = db.recover()
        assert report.action == "discarded_stale"
        assert report.request_index == 1
        assert journal.read() is None
        db.consistency_check()

    def test_future_record_raises_recovery_error(self):
        journal = MemoryJournal()
        db = build_db(journal=journal)
        db.query(1)
        future = WriteIntent(
            request_index=17, next_block=0, rotation_left=-1,
            block_start=0, extra_locations=[0],
        )
        journal.write(seal_intent(db, future))
        with pytest.raises(RecoveryError):
            db.recover()

    def test_recovery_counters(self):
        journal = MemoryJournal()
        db = build_db(journal=journal)
        db.query(1)
        db.recover()
        assert db.engine.counters.get("recovery.clean") == 1


def crashed_mid_write_back(ops=1, **options):
    """A database killed three frames into a window's write-back.

    Returns ``(db, journal, record)``: the valid intent record of the
    in-flight window is in the journal slot, so ``recover()`` replays it —
    until something about the record is changed.
    """
    journal = MemoryJournal()
    injector = FaultInjector(0)
    db = build_db(journal=journal, injector=injector, **options)
    db.query(3)
    db.update(5, b"committed")
    injector.add(FaultPlan(
        SITE_DISK_WRITE, "crash",
        after=injector.frames_seen(SITE_DISK_WRITE) + 3,
    ))
    with pytest.raises(SimulatedCrash):
        db.run_batch([BatchOp("update", page_id=9 + i, payload=b"torn-%d" % i)
                      for i in range(ops)])
    return db, journal, journal.read()


class TestRecordAuthentication:
    """One MAC covers the whole record; anything but the sealed bytes rolls
    back — never replays, never escapes as an untyped exception."""

    def regions(self, db, record, window):
        header_end = 16 + header_size(window, db.params.page_capacity)
        return {
            "magic": range(0, 4),
            "nonce": range(4, 16),
            "header": range(16, header_end),
            "frames": range(header_end, len(record) - 16),
            "tag": range(len(record) - 16, len(record)),
        }

    @pytest.mark.parametrize("window", [1, 2])
    def test_flipped_byte_anywhere_rolls_back(self, window):
        db, journal, record = crashed_mid_write_back(ops=window)
        regions = self.regions(db, record, window)
        assert sum(len(r) for r in regions.values()) == len(record)
        frames = regions["frames"]
        assert len(frames) == (db.params.block_size + window) * db.cop.frame_size
        for position in range(len(record)):  # every byte of every region
            tampered = bytearray(record)
            tampered[position] ^= 0x01
            journal.write(tampered)
            assert db.recover().action == "rolled_back", position
            assert journal.read() is None
        # The untouched record is what all of those were one bit away from.
        journal.write(record)
        assert db.recover().action == "replayed"
        db.consistency_check()

    @pytest.mark.parametrize("window", [1, 2])
    def test_every_truncation_rolls_back(self, window):
        # A window-of-2 record cut by one op's worth of bytes is as long as
        # a window-of-1 record: the length fits, the tag must not.
        db, journal, record = crashed_mid_write_back(ops=window)
        for length in range(len(record)):
            journal.write(record[:length])
            assert db.recover().action == "rolled_back", length
        journal.write(record + b"\x00")
        assert db.recover().action == "rolled_back"
        journal.write(record)
        assert db.recover().action == "replayed"

    def test_older_frame_of_the_same_location_rolls_back(self):
        db, journal, record = crashed_mid_write_back()
        k, size = db.params.block_size, db.cop.frame_size
        start = len(record) - 16 - (k + 1) * size
        block_start = db.engine.next_block_index * k
        # Rows the crash kept off the disk: the store still holds the
        # previous, validly sealed frame of each of those locations.
        swapped = 0
        for row in range(k):
            older = db.disk.peek(block_start + row)
            offset = start + row * size
            if older == record[offset:offset + size]:
                continue  # this row reached the disk before the crash
            db.cop.unseal(older)  # authentic on its own
            journal.write(record[:offset] + older + record[offset + size:])
            assert db.recover().action == "rolled_back", row
            swapped += 1
        assert swapped >= k - 3
        journal.write(record)
        assert db.recover().action == "replayed"

    def test_record_is_not_a_frame_blob_or_replication_record(self):
        db, journal, record = crashed_mid_write_back()
        for unseal in (db.cop.unseal, db.cop.unseal_record):
            with pytest.raises(CryptoError):
                unseal(record)

    def test_frames_blobs_and_replication_records_are_not_records(self):
        db, journal, record = crashed_mid_write_back()
        capacity = db.params.page_capacity
        # As long as a record and opening with its magic: only the MAC key
        # tells them apart.
        body = bytes(len(record) - 12 - 16)
        nonce = INTENT_MAGIC + bytes(8)
        impostors = [
            db.cop.suite.encrypt_page(body, nonce=nonce),  # a frame / blob
            db.cop.seal_record(body),
            db.disk.peek(0),
        ]
        assert len(impostors[0]) == len(record)
        assert impostors[0][:4] == INTENT_MAGIC
        for impostor in impostors:
            with pytest.raises(CryptoError):
                db.cop.unseal_intent(INTENT_MAGIC, impostor,
                                     header_size(1, capacity))
            journal.write(impostor)
            assert db.recover().action == "rolled_back"
        journal.write(record)
        assert db.recover().action == "replayed"

    def test_record_sealed_under_the_legacy_key_still_replays(self):
        db, journal, record = crashed_mid_write_back()
        # The operator starts a key rotation before recovery runs: the
        # record in the slot was sealed under what is now the legacy key.
        db.cop.begin_key_rotation(b"rotated-master-key")
        with pytest.raises(CryptoError):
            db.cop.suite.open_intent(
                INTENT_MAGIC, record, header_size(1, db.params.page_capacity),
                db.cop.frame_size,
            )
        report = db.recover()
        assert report.action == "replayed"
        assert report.request_index == 2
        assert db.query(9) == b"torn-0"
        assert db.query(5) == b"committed"
        db.consistency_check()

    def test_rotation_begun_before_recovery_keeps_its_countdown(self):
        """The replayed window's frames carry the legacy key, so its
        replay leaves the rotation's whole countdown standing."""
        db, journal, record = crashed_mid_write_back()
        db.cop.begin_key_rotation(b"rotated-master-key")
        assert db.recover().action == "replayed"
        assert db.engine.rotation_requests_remaining == db.params.scan_period
        for _ in range(db.params.scan_period):
            db.touch()
        assert not db.cop.rotation_in_progress
        assert db.query(9) == b"torn-0"
        db.consistency_check()

    def test_sealing_draws_exactly_one_nonce(self):
        journaled = build_db(journal=MemoryJournal())
        plain = build_db()
        journaled.query(3)
        plain.query(3)
        plain.cop.rng.token(12)  # the record's nonce, and nothing else
        assert journaled.cop.rng.randrange(2 ** 64) == \
            plain.cop.rng.randrange(2 ** 64)


def constant_size_ops(capacity):
    """Every op kind, on cached and uncached targets, every payload length."""
    ops = []
    for length in range(capacity + 1):
        page, payload = length, bytes([65 + length]) * length
        ops += [
            BatchOp("update", page_id=page, payload=payload),  # first touch
            BatchOp("update", page_id=page, payload=payload[::-1]),  # cached
            BatchOp("query", page_id=page),
            BatchOp("query", page_id=20 + length % 10),
        ]
    ops += [
        BatchOp("delete", page_id=25),
        BatchOp("query", page_id=26),
        BatchOp("delete", page_id=26),  # of a page the query just cached
        BatchOp("insert", payload=b""),
        BatchOp("insert", payload=b"i" * capacity),
        BatchOp("touch"),
        BatchOp("query", page_id=25),  # deleted: executed in full anyway
        BatchOp("touch"),
    ]
    return ops


class TestConstantSizeRecord:
    """Record length is a function of (k, frame size, capacity, window)."""

    CAPACITY = 16

    def records(self, window):
        """``(ops in the window, cache hit?, sealed record)`` per window."""
        journal = RecordingJournal()
        db = build_db(journal=journal, reserve_fraction=0.25)
        ops = constant_size_ops(self.CAPACITY)
        out = []
        for start in range(0, len(ops), window):
            chunk = ops[start:start + window]
            results = db.run_batch(chunk)
            assert not any(isinstance(r, Exception) for r in results)
            out.append((chunk, db.engine.last_outcome.cache_hit,
                        journal.blobs[-1]))
        assert len(journal.blobs) == len(out)
        return db, out

    def test_one_length_per_window_size(self):
        lengths = {}
        for window in (1, 2, 3, 5):
            db, records = self.records(window)
            for chunk, _, record in records:
                lengths.setdefault(len(chunk), set()).add(len(record))
        k, size = db.params.block_size, db.cop.frame_size
        assert lengths == {
            window: {INTENT_OVERHEAD + header_size(window, self.CAPACITY)
                     + (k + window) * size}
            for window in (1, 2, 3, 5)
        }

    def test_the_run_covers_what_used_to_move_the_length(self):
        db, records = self.records(1)
        seen = set()
        put_counts, put_lengths, carcass_entered = set(), set(), False
        for (op,), cache_hit, record in records:
            seen.add((op.kind, cache_hit))
            header, _ = db.cop.unseal_intent(
                INTENT_MAGIC, record, header_size(1, self.CAPACITY)
            )
            intent = WriteIntent.decode(header, [])
            put_counts.add(len(intent.cache_puts))
            for _, page in intent.cache_puts:
                put_lengths.add(len(page.payload))
            entering = intent.cache_puts[-1][1]
            carcass_entered |= entering.deleted and entering.payload == b""
        for kind in ("query", "update", "delete"):
            assert {(kind, True), (kind, False)} <= seen, kind
        assert {kind for kind, _ in seen} == {
            "query", "update", "insert", "delete", "touch"
        }
        assert put_counts == {1, 2}
        assert put_lengths >= set(range(self.CAPACITY + 1))
        assert carcass_entered


class TestSnapshotIntegration:
    def test_snapshot_refused_with_pending_record(self, tmp_path):
        journal = MemoryJournal()
        db = build_db(journal=journal)
        db.query(1)
        journal.write(seal_intent(db, WriteIntent(
            request_index=1, next_block=0, rotation_left=-1,
            block_start=0, extra_locations=[0],
        )))
        with pytest.raises(ConfigurationError):
            save_snapshot(db, str(tmp_path / "snap"))

    def test_roll_forward_across_restart(self, tmp_path):
        """Snapshot, crash on the next request, restore, recover."""
        journal_path = str(tmp_path / "intent.jnl")
        snap_dir = str(tmp_path / "snap")
        params = build_db().params
        k = params.block_size

        db = build_db(journal=FileJournal(journal_path))
        db.query(3)
        db.update(5, b"pre-snapshot")
        save_snapshot(db, snap_dir)

        # Crash mid-write on the first post-snapshot request.
        injector = FaultInjector(0, [FaultPlan(SITE_DISK_WRITE, "crash",
                                               after=k // 2)])
        db.engine.disk = FaultyDiskStore(db.disk, injector)
        with pytest.raises(SimulatedCrash):
            db.update(9, b"torn update")

        # "Restart": restore the snapshot next to the surviving journal.
        restored = load_snapshot(
            snap_dir, seed=7, journal=FileJournal(journal_path)
        )
        assert restored.engine.journal_pending
        report = restored.recover()
        assert report.action == "replayed"
        assert report.request_index == 2
        assert restored.query(9) == b"torn update"
        assert restored.query(5) == b"pre-snapshot"
        restored.consistency_check()

    def test_journal_newer_than_snapshot_raises(self, tmp_path):
        journal_path = str(tmp_path / "intent.jnl")
        snap_dir = str(tmp_path / "snap")
        db = build_db(journal=FileJournal(journal_path))
        db.query(3)
        save_snapshot(db, snap_dir)
        # Two more committed requests, then a crash leaves a record for
        # request 3 — which the year-old snapshot cannot roll forward.
        db.query(4)
        db.query(5)
        params = db.params
        injector = FaultInjector(0, [FaultPlan(SITE_DISK_WRITE, "crash",
                                               after=1)])
        db.engine.disk = FaultyDiskStore(db.disk, injector)
        with pytest.raises(SimulatedCrash):
            db.query(6)
        restored = load_snapshot(
            snap_dir, seed=7, journal=FileJournal(journal_path)
        )
        with pytest.raises(RecoveryError):
            restored.recover()


class TestNonCrashWriteFailure:
    """A retryable write failure mid-apply rolls forward, never resends raw.

    The apply phase lands the trusted deltas before the frame write-back,
    so a transient write error leaves the pageMap pointing at never-written
    frames *while the process keeps running*.  The window has committed —
    it is answered, its write-back deferred — and the engine must finish
    that write-back (from the retained intent) before serving anything
    else.
    """

    def _faulted_db(self, journal):
        injector = FaultInjector(0)
        db = build_db(journal=journal, injector=injector)
        injector.add(transient_writes(times=1))
        return db

    def test_next_request_rolls_forward_first(self):
        journal = MemoryJournal()
        db = self._faulted_db(journal)
        assert db.query(3) == build_db().query(3)  # answered: it committed
        assert db.engine.counters.get("write_back.deferred") == 1
        assert db.engine.write_back_pending
        assert journal.read() is not None  # repair record still in the slot
        assert db.engine.request_count == 0

        # The next request heals the torn one (finishing it), then executes.
        assert db.query(3) == build_db().query(3)
        assert db.engine.request_count == 2
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        assert not db.engine.write_back_pending
        assert journal.read() is None
        run_workload(db, start=1)
        db.consistency_check()

    def test_roll_forward_without_a_journal(self):
        db = self._faulted_db(journal=None)
        db.update(5, b"torn")
        assert db.engine.write_back_pending
        # The in-memory intent is enough: the next request self-heals.
        assert db.query(5) == b"torn"
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        db.consistency_check()

    def test_recover_rolls_forward_without_a_journal(self):
        db = self._faulted_db(journal=None)
        db.query(3)
        assert db.engine.write_back_pending
        report = db.recover()
        assert report.action == "replayed"
        assert report.request_index == 0
        assert not db.engine.write_back_pending
        run_workload(db, start=1)
        db.consistency_check()

    def test_persistent_write_fault_stays_pending(self):
        injector = FaultInjector(0)
        journal = MemoryJournal()
        db = build_db(journal=journal, injector=injector)
        injector.add(transient_writes(times=3))
        db.query(3)  # committed; its write-back deferred
        # Still failing: the next request's heal surfaces the fault, so
        # that request is refused before it computes — it never destroys
        # the pending record or serves from the torn state.
        with pytest.raises(TransientStorageError):
            db.query(3)
        assert db.engine.write_back_pending
        assert journal.read() is not None
        assert db.engine.request_count == 0


class TestFileJournalDurability:
    def test_syncs_directory_once_and_each_record(self, tmp_path, monkeypatch):
        synced = []
        real_fsync, real_fdatasync = os.fsync, os.fdatasync

        def tracking(real):
            def sync(fd):
                synced.append(os.fstat(fd).st_mode)
                return real(fd)

            return sync

        monkeypatch.setattr(os, "fsync", tracking(real_fsync))
        monkeypatch.setattr(os, "fdatasync", tracking(real_fdatasync))
        journal = FileJournal(str(tmp_path / "intent.jnl"))
        journal.write(b"record")
        # Creating the slot file syncs its directory entry, once; the
        # record itself is synced as data.
        assert sorted(stat.S_ISDIR(mode) for mode in synced) == [False, True]

        for record in (b"second", b"third, longer record"):
            synced.clear()
            journal.clear()
            assert synced == []  # a lost clear is recovered as stale
            journal.write(record)
            assert [stat.S_ISREG(mode) for mode in synced] == [True]
        assert FileJournal(journal.path).read() == b"third, longer record"
        journal.close()

    def test_fsync_disabled_never_syncs(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        journal = FileJournal(str(tmp_path / "intent.jnl"), fsync=False)
        journal.write(b"record")
        journal.clear()
        assert synced == []
        assert journal.read() is None


class SlotImages(FileJournal):
    """A file journal that keeps its slot file's bytes after every write
    and clear (``images``) and every record it wrote (``blobs``)."""

    def __init__(self, path, **options):
        super().__init__(path, **options)
        self.images, self.blobs = [], []

    def raw(self) -> bytes:
        with open(self.path, "rb") as handle:
            return handle.read()

    def write(self, blob):
        super().write(blob)
        self.blobs.append(bytes(blob))
        self.images.append(self.raw())

    def clear(self):
        super().clear()
        self.images.append(self.raw())


def lay(path, image):
    """Overwrite the slot file in place (same inode) with ``image``."""
    with open(path, "r+b") as handle:
        handle.write(image)
        handle.truncate()


class TestInPlaceSlot:
    """The slot is rewritten in place: a torn overwrite rolls back, a
    lost clear is discarded as stale, and a window costs one positioned
    write of its record."""

    def crashed(self, tmp_path):
        """A database killed three frames into window N + 1 over a
        :class:`FileJournal`; returns it, its journal, and the slot's
        bytes holding record N, after N's clear, and holding N + 1."""
        journal = SlotImages(str(tmp_path / "intent.jnl"), fsync=False)
        injector = FaultInjector(0)
        db = build_db(journal=journal, injector=injector, page_capacity=256)
        db.query(3)
        db.update(5, b"committed")
        stale, cleared = journal.images[-2:]
        injector.add(FaultPlan(
            SITE_DISK_WRITE, "crash",
            after=injector.frames_seen(SITE_DISK_WRITE) + 3,
        ))
        with pytest.raises(SimulatedCrash):
            db.update(9, b"torn")
        return db, journal, stale, cleared, journal.images[-1]

    def test_every_torn_overwrite_rolls_back(self, tmp_path):
        db, journal, stale, cleared, image = self.crashed(tmp_path)
        assert journal.read() is not None and len(image) > 2 * 512
        cuts = sorted(set(range(512, len(image), 512))
                      | set(range(len(image) - 17, len(image))))
        for base in (cleared, stale):
            for cut in cuts:
                lay(journal.path, image[:cut] + base[cut:])
                assert db.recover().action == "rolled_back", cut
                assert journal.read() is None
        lay(journal.path, image)
        assert db.recover().action == "replayed"
        assert db.query(9) == b"torn"
        db.consistency_check()

    def test_lost_clear_reads_stale(self, tmp_path):
        db, journal, stale, cleared, image = self.crashed(tmp_path)
        lay(journal.path, image)
        assert db.recover().action == "replayed"
        # The clear after the replay is lost: the record comes back.  Its
        # frames are opened before it is discarded, so a changed frame
        # byte still rolls back, as it does in an in-flight record.
        tampered = bytearray(image)
        tampered[-100] ^= 0x01
        lay(journal.path, bytes(tampered))
        assert db.recover().action == "rolled_back"
        lay(journal.path, image)
        report = db.recover()
        assert report.action == "discarded_stale"
        assert report.request_index == 2
        assert journal.read() is None
        assert db.query(9) == b"torn"
        db.consistency_check()

    def test_close_is_idempotent_and_keeps_the_record(self, tmp_path):
        db, journal, stale, cleared, image = self.crashed(tmp_path)
        db.close()
        db.close()
        journal.close()
        assert FileJournal(journal.path).read() == journal.blobs[-1]

    @pytest.mark.parametrize("fsync", [True, False])
    def test_one_positioned_write_per_window(self, tmp_path, monkeypatch,
                                             fsync):
        journal = FileJournal(str(tmp_path / "intent.jnl"), fsync=fsync)
        db = build_db(journal=journal)
        db.query(1)  # the first record creates the slot file
        k = db.params.block_size
        calls = {}

        def count(name):
            real = getattr(os, name)

            def counted(*args):
                calls.setdefault(name, []).append(args)
                return real(*args)

            monkeypatch.setattr(os, name, counted)

        for name in ("open", "pwrite", "pwritev", "write", "fsync",
                     "fdatasync", "replace", "rename", "remove", "unlink",
                     "truncate", "ftruncate"):
            count(name)
        hashed = []
        tag = db.cop.suite._intent_tag

        def counting_tag(data):
            hashed.append(len(data))
            return tag(data)

        monkeypatch.setattr(db.cop.suite, "_intent_tag", counting_tag)
        windows = (1, 2, 3, 1)
        page = iter(range(NUM_RECORDS))
        for window in windows:
            ops = [BatchOp("update", page_id=next(page), payload=b"w")
                   for _ in range(window)]
            assert not any(isinstance(r, Exception)
                           for r in db.run_batch(ops, window=window))
        monkeypatch.undo()

        assert set(calls) <= {"pwritev", "pwrite", "fdatasync"}, calls
        assert len(calls["pwritev"]) == len(windows)  # the record
        # ...and the clear: one 8-byte marker each, never synced.
        assert [len(args[1]) for args in calls["pwrite"]] == \
            [8] * len(windows)
        assert len(calls.get("fdatasync", [])) == (len(windows) if fsync
                                                   else 0)
        capacity = db.params.page_capacity
        # The record's tag hashes magic, nonce, header and the frames'
        # own tags — never the frames' bytes.
        assert hashed == [16 + header_size(window, capacity)
                          + 16 * (k + window) for window in windows]
        db.close()
