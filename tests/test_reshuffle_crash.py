"""Crash mid-reshuffle drill: kill during a comparator batch, roll forward.

A reshuffle batch commits through the engine's compute → intend → apply
path, and is exercised the way :mod:`tests.test_crash_restart` exercises
a request's: a file-backed database is killed by a :class:`SimulatedCrash`
part-way through a batch write-back (torn prefix on disk, full intent in
the database's one :class:`~repro.core.journal.FileJournal`), the process
"restarts" from the mid-epoch snapshot, and the database's one
``recover()`` rolls the surviving record forward — restoring a consistent
epoch with no torn frames, at exactly the post-batch frontier.
"""

from __future__ import annotations

import pytest

from tests.helpers import make_db
from tests.test_online_reshuffle import assert_batcher_order
from repro.core.journal import FileJournal
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.faults import (
    SITE_DISK_WRITE,
    FaultInjector,
    FaultyDiskStore,
    SimulatedCrash,
    crash_after_writes,
)
from repro.storage.filedisk import FileDiskStore

SEED = 41


def faulty_file_factory(path, injector):
    def build(num_locations, frame_size, timing, clock, trace):
        return FaultyDiskStore(
            FileDiskStore(path, num_locations, frame_size,
                          timing=timing, clock=clock, trace=trace),
            injector,
        )

    return build


class TestCrashMidReshuffle:
    def _build(self, tmp_path, injector):
        return make_db(
            seed=SEED,
            journal=FileJournal(str(tmp_path / "engine.jnl")),
            disk_factory=faulty_file_factory(
                str(tmp_path / "pages.bin"), injector
            ),
        )

    def _restart(self, tmp_path, snap_dir, **load):
        db = load_snapshot(
            str(snap_dir), seed=SEED + 1,
            journal=FileJournal(str(tmp_path / "engine.jnl")), **load,
        )
        driver = db.resume_reshuffle()
        assert driver is not None and driver.active
        return db, driver

    def test_kill_mid_batch_rolls_forward(self, tmp_path):
        injector = FaultInjector(seed=3)
        db = self._build(tmp_path, injector)
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        driver.step()
        snap_dir = tmp_path / "snap"
        save_snapshot(db, str(snap_dir))
        frontier_at_snapshot = driver.frontier

        # Kill three frames into the next batch's write-back: the journal
        # record is durable, the disk holds a torn prefix.
        injector.add(crash_after_writes(
            injector.frames_seen(SITE_DISK_WRITE) + 3
        ))
        with pytest.raises(SimulatedCrash):
            driver.step()
        del db, driver  # the process is dead

        db2, driver2 = self._restart(tmp_path, snap_dir)
        assert driver2.frontier == frontier_at_snapshot
        assert db2.recover().action == "replayed"
        assert driver2.frontier == frontier_at_snapshot + 8
        assert db2.engine.counters.get("recovery.replayed") == 1

        driver2.run()
        assert not driver2.active
        # The replay advanced the frontier without consuming comparator
        # units; the rest of the epoch must still run the canonical
        # network tail from the post-replay frontier (not a stream shifted
        # back by the replayed batch) — the finished layout is sorted by
        # the epoch's tags.
        assert_batcher_order(db2, driver2)
        db2.consistency_check()  # decrypts every frame: no torn ciphertext
        assert db2.content_digest() == digest
        assert db2.query(5) == make_db(seed=SEED).query(5)
        db2.close()

    def test_kill_before_first_frame_still_replays(self, tmp_path):
        injector = FaultInjector(seed=3)
        db = self._build(tmp_path, injector)
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        snap_dir = tmp_path / "snap"
        save_snapshot(db, str(snap_dir))

        injector.add(crash_after_writes(
            injector.frames_seen(SITE_DISK_WRITE)
        ))
        with pytest.raises(SimulatedCrash):
            driver.step()
        del db, driver

        db2, driver2 = self._restart(tmp_path, snap_dir)
        assert db2.recover().action == "replayed"
        driver2.run()
        db2.consistency_check()
        assert db2.content_digest() == digest
        db2.close()

    def test_kill_between_batches_resumes_clean(self, tmp_path):
        injector = FaultInjector(seed=3)
        db = self._build(tmp_path, injector)
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        driver.step()
        snap_dir = tmp_path / "snap"
        save_snapshot(db, str(snap_dir))
        frontier = driver.frontier
        del db, driver  # killed in the idle gap: journal slot is empty

        db2, driver2 = self._restart(tmp_path, snap_dir)
        assert db2.recover().action == "clean"
        assert driver2.frontier == frontier
        driver2.run()
        db2.consistency_check()
        assert db2.content_digest() == digest
        db2.close()

    def test_kill_mid_batch_during_key_rotation(self, tmp_path):
        injector = FaultInjector(seed=3)
        db = self._build(tmp_path, injector)
        digest = db.content_digest()
        db.rotate_master_key(b"rotated-master-key")
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        snap_dir = tmp_path / "snap"
        save_snapshot(db, str(snap_dir))  # mid-rotation: format-2 state

        injector.add(crash_after_writes(
            injector.frames_seen(SITE_DISK_WRITE) + 2
        ))
        with pytest.raises(SimulatedCrash):
            driver.step()
        del db, driver

        db2, driver2 = self._restart(tmp_path, snap_dir,
                                     master_key=b"rotated-master-key")
        assert db2.cop.rotation_in_progress  # legacy key restored
        assert db2.recover().action == "replayed"
        driver2.run()
        assert db2.cop.rotation_in_progress  # the epoch does not end it
        for _ in range(db2.params.scan_period):
            db2.touch()
        assert not db2.cop.rotation_in_progress  # the scan did
        db2.consistency_check()
        assert db2.content_digest() == digest
        db2.close()

    def test_an_epoch_begun_without_a_journal_argument_is_journaled(
            self, tmp_path):
        """An epoch is journaled exactly when requests are: a database with
        a journal journals its batches too, so a batch torn by a crash is
        rolled forward, never left half-written."""
        injector = FaultInjector(seed=3)
        db = self._build(tmp_path, injector)
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        injector.add(crash_after_writes(
            injector.frames_seen(SITE_DISK_WRITE) + 3
        ))
        with pytest.raises(SimulatedCrash):
            driver.step()
        assert db.engine.journal_pending  # the batch's record, durable
        # The crashed batch left a torn prefix; its record rolls it forward.
        assert db.recover().action == "replayed"
        assert not db.engine.journal_pending
        db.consistency_check()
        assert db.content_digest() == digest
        driver.run()
        assert_batcher_order(db, driver)
        db.close()
