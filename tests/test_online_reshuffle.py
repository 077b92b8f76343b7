"""Online re-permutation: correctness, interleaving, lifecycle."""

from __future__ import annotations

import pytest

from tests.helpers import RecordingJournal, make_db
from repro.baselines import make_records
from repro.core.journal import MemoryJournal, ReshuffleIntent
from repro.core.sharded import ShardedPirDatabase
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.errors import ConfigurationError, RecoveryError, StorageError
from repro.faults import (
    SITE_DISK_READ,
    SITE_DISK_WRITE,
    FaultInjector,
    FaultyDiskStore,
    SimulatedCrash,
    crash_after_writes,
    transient_reads,
    transient_writes,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.shuffle.online import OnlineReshuffler, _tag
from repro.shuffle.oblivious import network_size
from repro.storage.disk import DiskStore


def faulty_memory_factory(injector):
    def build(num_locations, frame_size, timing, clock, trace):
        return FaultyDiskStore(
            DiskStore(num_locations=num_locations, frame_size=frame_size,
                      timing=timing, clock=clock, trace=trace),
            injector,
        )

    return build


def assert_batcher_order(db, driver):
    """The finished epoch left the *canonical* Batcher result: resident
    pages sorted by the epoch's secret PRF tags.  A driver that skipped,
    repeated or mis-positioned comparators (e.g. after a replay or a
    retried batch) stays content-consistent but fails this."""
    tags = [
        _tag(driver.cop.state.epoch_key,
             db.cop.unseal(db.disk.peek(loc)).page_id)
        for loc in range(db.params.num_locations)
    ]
    assert tags == sorted(tags)


class TestForegroundEpoch:
    def test_epoch_preserves_content_and_repermutes(self):
        db = make_db(seed=21, journal=MemoryJournal())
        digest = db.content_digest()
        n = db.params.num_locations
        before = [db.cop.state.lookup(i).position for i in range(n)]

        driver = db.begin_reshuffle(batch_size=24)
        assert driver is db.reshuffle
        assert driver.total_units == network_size(n) + n
        done = driver.run()
        assert done == driver.total_units
        assert not driver.active and driver.progress == 1.0

        db.consistency_check()
        assert db.content_digest() == digest
        after = [db.cop.state.lookup(i).position for i in range(n)]
        moved = sum(1 for a, b in zip(before, after) if a != b)
        assert moved > n // 2  # a fresh uniform permutation moved most pages
        db.close()

    def test_serving_interleaves_between_batches(self):
        db = make_db(seed=8, journal=MemoryJournal())
        expected = {i: db.query(i) for i in range(db.num_pages)}
        driver = db.begin_reshuffle(batch_size=4)
        i = 0
        while driver.active:
            assert db.query(i % db.num_pages) == expected[i % db.num_pages]
            driver.step()
            i += 1
        db.consistency_check()
        assert i > 10  # the epoch really was incremental
        db.close()

    def test_updates_during_epoch_survive(self):
        db = make_db(seed=13, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=16)
        driver.step()
        db.update(3, b"mid-epoch write")
        new_id = db.insert(b"mid-epoch insert")
        driver.run()
        db.consistency_check()
        assert db.query(3) == b"mid-epoch write"
        assert db.query(new_id) == b"mid-epoch insert"
        db.close()

    def test_second_epoch_while_active_is_refused(self):
        db = make_db(seed=2)
        db.begin_reshuffle(batch_size=4)
        with pytest.raises(ConfigurationError):
            db.begin_reshuffle()
        db.reshuffle.run()
        # After completion a new epoch may begin (a fresh driver).  Epoch
        # numbering is database-global, never per-driver: a restart at
        # epoch 1 would respawn the "reshuffle-epoch-1" sibling label and
        # replay its nonce stream against the same master key.
        driver2 = db.begin_reshuffle(batch_size=4)
        assert driver2.epoch == 2
        db.close()


class TestKeyRotationPiggyback:
    """The request scan is the one rotation: an epoch may begin
    mid-rotation, but a rotation may not begin mid-epoch."""

    def test_rotation_before_an_epoch_ends_by_the_scan(self):
        db = make_db(seed=31, journal=MemoryJournal())
        digest = db.content_digest()
        db.rotate_master_key(b"epoch-key-2")
        driver = db.begin_reshuffle(batch_size=32)
        assert db.cop.rotation_in_progress
        # Serving mid-rotation works: legacy frames still authenticate.
        db.query(1)
        driver.run()
        # The epoch's end does not end the rotation: the scan does.
        assert db.cop.rotation_in_progress
        assert db.engine.rotation_requests_remaining == db.params.scan_period - 1
        for _ in range(db.params.scan_period - 1):
            db.touch()
        assert not db.cop.rotation_in_progress
        assert db.cop.legacy_master_key is None
        db.consistency_check()
        assert db.content_digest() == digest
        db.close()

    def test_rotation_mid_epoch_is_refused_and_every_page_reads_back(self):
        """A rotation begun mid-epoch would leave the epoch sealing under
        the key its countdown drops: every page would stop authenticating."""
        db = make_db(64, cache_capacity=8, seed=3)
        records = make_records(64, 16)
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        driver.step()
        with pytest.raises(ConfigurationError, match="finish the epoch"):
            db.rotate_master_key(b"k")
        assert not db.cop.rotation_in_progress
        assert db.engine.rotation_requests_remaining is None
        for page_id in range(6):
            db.query(page_id)
            driver.step()
        assert [db.query(p) for p in range(64)] == records
        driver.run()
        assert not driver.active
        db.consistency_check()
        # Once the epoch is over the same rotation is accepted.
        db.rotate_master_key(b"k")
        for _ in range(db.params.scan_period):
            db.touch()
        assert not db.cop.rotation_in_progress
        assert [db.query(p) for p in range(64)] == records
        db.close()

    def test_an_epoch_of_single_batches_finishes_a_rotation(self):
        """Rotate, then an epoch of one-unit batches with one query per
        step: every read is right and the rotation ends mid-epoch."""
        db = make_db(64, cache_capacity=8, seed=3)
        records = make_records(64, 16)
        db.rotate_master_key(b"k")
        driver = db.begin_reshuffle(batch_size=1)
        served = 0
        while driver.active:
            page_id = served % 64
            assert db.query(page_id) == records[page_id]
            driver.step()
            served += 1
        assert served == driver.total_units
        assert served > db.params.scan_period
        assert not db.cop.rotation_in_progress
        db.consistency_check()
        db.close()


class TestCallerStepsTheEpoch:
    """The driver owns no thread and holds no resource: its caller steps
    it, and the engine's commit path journals, heals and recovers its
    batches."""

    def test_epoch_finishes_one_step_per_query(self):
        metrics = MetricsRegistry()
        db = make_db(seed=5, journal=MemoryJournal(), metrics=metrics)
        expected = {i: db.query(i) for i in range(db.num_pages)}
        driver = db.begin_reshuffle(batch_size=8)
        i = 0
        while driver.active:
            assert db.query(i % db.num_pages) == expected[i % db.num_pages]
            driver.step()
            i += 1
        assert i == (driver.total_units + 7) // 8  # one batch per query
        db.consistency_check()
        assert metrics.gauge("reshuffle.progress").value == 1.0
        assert metrics.snapshot()["counters"]["reshuffle.epochs"] == 1
        db.close()

    def test_a_failed_batch_is_healed_by_the_next_query(self):
        """Each shard's engine heals its own driver's batch: a query routed
        to another shard reaches it as cover traffic and rolls it forward
        first."""
        injector = FaultInjector(seed=5)
        records = make_records(60, 16)
        with ShardedPirDatabase.create(
            records, num_shards=3, cache_capacity_per_shard=4,
            page_capacity=16, seed=9,
            disk_factory=faulty_memory_factory(injector),
        ) as sharded:
            drivers = [shard.begin_reshuffle(batch_size=2)
                       for shard in sharded.shards]
            injector.add(transient_writes(times=1, after=1))
            with pytest.raises(StorageError):
                drivers[1].step()
            assert sharded.shards[1].engine.write_back_pending
            assert sharded.query(0) == records[0]
            assert not any(shard.engine.write_back_pending
                           for shard in sharded.shards)
            assert all(driver.active for driver in drivers)
            for shard in sharded.shards:
                shard.consistency_check()

    def test_the_worker_is_deleted_not_aliased(self, tmp_path):
        """No thread, no idle pacing, no step cap: the epoch advances only
        through step() / run() on the caller's thread."""
        db = make_db(seed=6)
        with pytest.raises(TypeError):
            db.begin_reshuffle(background=True)
        assert db.reshuffle is None
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        snap = str(tmp_path / "snap")
        save_snapshot(db, snap)
        db2 = load_snapshot(snap, seed=7)
        with pytest.raises(TypeError):
            db2.resume_reshuffle(idle_interval=0.1)
        with pytest.raises(TypeError):
            driver.run(max_steps=1)
        with pytest.raises(TypeError):
            OnlineReshuffler(db, idle_interval=0.1)
        assert not hasattr(OnlineReshuffler, "start")
        assert not hasattr(OnlineReshuffler, "_worker_loop")
        db.close()
        db2.close()


class TestRecoverySemantics:
    """A batch's record lives in the database's one journal slot, and the
    database's one ``recover()`` resolves it."""

    def test_clean_and_stale_records(self):
        journal = MemoryJournal()
        db = make_db(seed=4, journal=journal)
        driver = db.begin_reshuffle(batch_size=8)
        assert db.recover().action == "clean"
        driver.step()
        # A record from an already-applied batch is discarded as stale.
        replay = ReshuffleIntent(epoch=driver.epoch, frontier_before=0,
                                 frontier_after=4)
        journal.write(driver._seal_record(replay))
        report = db.recover()
        assert report.action == "discarded_stale"
        assert report.request_index == -1  # a batch serves no request
        assert journal.read() is None
        db.close()

    def test_torn_record_rolls_back(self):
        journal = MemoryJournal()
        db = make_db(seed=4, journal=journal)
        db.begin_reshuffle(batch_size=8)
        journal.write(b"\x00garbage that never sealed")
        assert db.recover().action == "rolled_back"
        assert journal.read() is None
        db.close()

    def test_changed_record_rolls_back_and_length_is_public(self):
        journal = RecordingJournal()
        db = make_db(seed=4, journal=journal)
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        driver.step()
        # Length says how many frames the batch rewrote, and nothing else.
        frame = db.cop.frame_size
        assert [blob[:4] for blob in journal.blobs] == [b"RSH2"] * 2
        assert all((len(blob) - 32 - 24) % (24 + frame) == 0
                   for blob in journal.blobs)
        record = journal.blobs[-1]
        for position in range(len(record)):
            tampered = bytearray(record)
            tampered[position] ^= 0x01
            journal.write(tampered)
            assert db.recover().action == "rolled_back", position
        for length in range(len(record)):
            journal.write(record[:length])
            assert db.recover().action == "rolled_back", length
        # Untouched it authenticates: an already-applied batch is stale.
        journal.write(record)
        assert db.recover().action == "discarded_stale"
        db.close()

    def test_journal_ahead_of_state_is_rejected(self):
        journal = MemoryJournal()
        db = make_db(seed=4, journal=journal)
        driver = db.begin_reshuffle(batch_size=8)
        ahead = ReshuffleIntent(epoch=driver.epoch, frontier_before=80,
                                frontier_after=88)
        journal.write(driver._seal_record(ahead))
        with pytest.raises(RecoveryError):
            db.recover()
        db.close()

    def test_record_from_earlier_epoch_is_discarded(self):
        journal = MemoryJournal()
        db = make_db(seed=4, journal=journal)
        driver = db.begin_reshuffle(batch_size=8)
        stale = driver._seal_record(
            ReshuffleIntent(epoch=1, frontier_before=0, frontier_after=4)
        )
        driver.run()
        db.begin_reshuffle(batch_size=8)
        journal.write(stale)
        assert db.recover().action == "discarded_stale"
        assert journal.read() is None
        db.close()

    def test_record_ahead_of_older_snapshot_is_retained(self, tmp_path):
        """A reshuffle record written after the snapshot being
        restored describes a frontier the restored epoch never reached:
        recover() must refuse — clearing the record would lose the only
        roll-forward for a torn batch — and leave the record in place."""
        journal = MemoryJournal()
        db = make_db(seed=4, journal=journal)
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        snap = str(tmp_path / "snap")
        save_snapshot(db, snap)
        driver.step()
        torn = ReshuffleIntent(epoch=driver.epoch,
                               frontier_before=driver.frontier,
                               frontier_after=driver.frontier + 4)
        journal.write(driver._seal_record(torn))
        db.close()

        older = load_snapshot(snap, seed=5, journal=journal)
        resumed = older.resume_reshuffle(batch_size=8)
        with pytest.raises(RecoveryError, match="older than the journal"):
            older.recover()
        assert journal.read() is not None  # the roll-forward survives
        assert resumed.frontier == 8
        older.close()


class TestEpochEndedOffTheDriver:
    """An epoch's last batch may land through recover() or a request's
    heal, after which the caller never steps again: the epoch is still
    counted ended and the progress gauge still reads 1.0."""

    def _last_batch_torn(self, fault):
        metrics = MetricsRegistry()
        injector = FaultInjector(seed=5)
        db = make_db(seed=4, journal=MemoryJournal(), metrics=metrics,
                     disk_factory=faulty_memory_factory(injector))
        driver = db.begin_reshuffle(batch_size=8)
        while driver.total_units - driver.frontier > 8:
            # Leave exactly one full batch: eight sweep frames.
            driver.step(min(8, driver.total_units - driver.frontier - 8))
        injector.add(fault(injector))
        return db, driver, metrics

    def _assert_counted(self, db, driver, metrics):
        assert not driver.active and driver.run() == 0
        assert metrics.snapshot()["counters"]["reshuffle.epochs"] == 1
        assert metrics.gauge("reshuffle.progress").value == 1.0
        db.consistency_check()
        db.close()

    def test_recover_replays_the_last_batch(self):
        db, driver, metrics = self._last_batch_torn(
            lambda inj: crash_after_writes(inj.frames_seen(SITE_DISK_WRITE) + 3)
        )
        with pytest.raises(SimulatedCrash):
            driver.step()
        assert metrics.gauge("reshuffle.progress").value < 1.0
        assert db.recover().action == "replayed"
        self._assert_counted(db, driver, metrics)

    def test_a_request_heals_the_last_batch(self):
        db, driver, metrics = self._last_batch_torn(
            lambda inj: transient_writes(times=1, after=2)
        )
        with pytest.raises(StorageError):
            driver.step()
        db.query(1)
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        self._assert_counted(db, driver, metrics)


class TestFrontierPurity:
    """A batch's comparators are a function of the frontier, not of how
    often (or how unsuccessfully) earlier batches ran."""

    def test_transient_compute_fault_retries_same_comparators(self):
        injector = FaultInjector(seed=3)
        db = make_db(seed=11, journal=MemoryJournal(),
                     disk_factory=faulty_memory_factory(injector))
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        frontier = driver.frontier
        injector.add(transient_reads(times=1))
        with pytest.raises(StorageError):
            driver.step()
        assert driver.frontier == frontier  # nothing applied
        # The retry must re-execute the very units the failed batch
        # consumed; a shifted stream either mis-sorts or exhausts early.
        driver.run()
        assert not driver.active
        db.consistency_check()
        assert db.content_digest() == digest
        assert_batcher_order(db, driver)
        db.close()


class TestPacing:
    def test_mid_epoch_pacing_change_preserves_batcher_order(self):
        """Re-slicing the epoch's unit stream (budget 16 -> 3 -> 11 -> 16
        mid-sort) must execute exactly the canonical comparator sequence:
        a step's budget changes when units run, never which.  A driver
        that rebuilt its iterator from batch history instead of the
        frontier would shift the stream and fail the final-order oracle."""
        db = make_db(seed=22, journal=MemoryJournal())
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=16)
        assert driver.step() == 16
        assert driver.step(3) == 3
        assert driver.step(3) == 3
        assert driver.step(11) == 11
        assert driver.step(11) == 11
        assert driver.frontier == 44
        driver.run()
        assert not driver.active
        db.consistency_check()
        assert db.content_digest() == digest
        assert_batcher_order(db, driver)
        db.close()

    def test_nothing_retunes_a_running_server(self):
        """Pacing and admission are fixed at construction; the online
        controller that re-tuned them is deleted, not aliased."""
        import repro.plan
        from repro.net.admission import AdmissionController, TokenBucket

        assert not hasattr(repro.plan, "PlanController")
        assert not hasattr(repro.plan, "Guardrail")
        with pytest.raises(ImportError):
            import repro.plan.controller  # noqa: F401
        assert not hasattr(OnlineReshuffler, "set_pacing")
        assert not hasattr(TokenBucket, "retune")
        assert not hasattr(AdmissionController, "retune")


class TestResumeUniqueness:
    def test_two_resumes_use_distinct_nonce_streams(self):
        db = make_db(seed=23, journal=MemoryJournal())
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        first = OnlineReshuffler(db)
        second = OnlineReshuffler(db)
        assert first.active and second.frontier == first.frontier == 8
        # Same epoch, same frontier, same derived keys: only the per-resume
        # spawn label keeps the nonce streams apart.  Identical ciphertexts
        # for one plaintext would mean keystream reuse across resumes.
        assert (first._suite.encrypt_page(b"x" * 32)
                != second._suite.encrypt_page(b"x" * 32))
        db.close()

    def test_restored_database_continues_epoch_numbering(self, tmp_path):
        db = make_db(seed=24, journal=MemoryJournal())
        db.begin_reshuffle(batch_size=8).run()
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        snap = str(tmp_path / "snap")
        save_snapshot(db, snap)

        db2 = load_snapshot(snap, seed=25)
        resumed = db2.resume_reshuffle()
        assert resumed is not None and resumed.epoch == 2
        resumed.run()
        # A fresh driver must continue the database-global numbering from
        # the restored epoch, not restart at 1 (which would respawn epoch
        # 1's sibling label and replay its nonce stream).
        assert db2.begin_reshuffle().epoch == 3
        db.close()
        db2.close()


class TestSnapshotHealsRetainedWriteBack:
    def test_snapshot_heals_journal_less_pending_apply(self, tmp_path):
        """A transiently failed batch apply retains its intent in memory;
        with no journal armed, save_snapshot must heal it under the op
        lock — otherwise the dumped frames are ahead of the sealed page map
        and the restored instance is inconsistent."""
        injector = FaultInjector(seed=5)
        db = make_db(seed=29, disk_factory=faulty_memory_factory(injector))
        digest = db.content_digest()
        driver = db.begin_reshuffle(batch_size=8)  # journal-less
        driver.step()
        # Let two frames of the next batch's write-back land, then fail.
        injector.add(transient_writes(times=1, after=2))
        with pytest.raises(StorageError):
            driver.step()
        assert db.engine.write_back_pending

        snap = str(tmp_path / "snap")
        save_snapshot(db, snap)
        assert not db.engine.write_back_pending  # healed under the lock

        db2 = load_snapshot(snap, seed=30)
        db2.consistency_check()
        assert db2.content_digest() == digest
        db.close()
        db2.close()


class TestRequestHealsRetainedBatch:
    @pytest.mark.parametrize("journaled", [False, True])
    def test_next_query_rolls_batch_forward_first(self, journaled):
        """A batch whose write-back failed transiently leaves frames the
        page map does not describe yet; the next request must roll it
        forward before it computes, with or without a journal."""
        injector = FaultInjector(seed=5)
        db = make_db(seed=29, journal=MemoryJournal() if journaled else None,
                     disk_factory=faulty_memory_factory(injector))
        expected = {i: db.query(i) for i in range(db.num_pages)}
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        # Let two frames of the next batch's write-back land, then fail.
        injector.add(transient_writes(times=1, after=2))
        with pytest.raises(StorageError):
            driver.step()
        assert db.engine.write_back_pending
        assert db.engine.journal_pending == journaled

        assert db.query(4) == expected[4]
        assert not db.engine.write_back_pending
        assert not db.engine.journal_pending
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        driver.run()
        assert not driver.active
        assert_batcher_order(db, driver)
        db.consistency_check()
        db.close()


class TestSetupSortObservability:
    def test_setup_epoch_reports_progress(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        db = make_db(num_records=12, cache_capacity=4, page_capacity=16,
                     seed=7, setup_mode="oblivious", metrics=metrics,
                     tracer=tracer)
        # An oblivious build is one finished foreground epoch: its progress
        # gauge and epoch counter survive, the tracer is reset so recorded
        # phases cover requests only, and the driver is dropped.
        assert metrics.gauge("reshuffle.progress").value == 1.0
        assert metrics.snapshot()["counters"]["reshuffle.epochs"] == 1
        assert tracer.spans == []
        assert db.reshuffle is None
        # The setup epoch is epoch 1: the next one is 2, so no sibling
        # nonce label is replayed.
        assert db.begin_reshuffle().epoch == 2
        db.close()


class TestFrontendVisibility:
    def test_requests_during_reshuffle_counter(self):
        from repro.service.frontend import QueryFrontend, ServiceClient

        db = make_db(seed=19, journal=MemoryJournal())
        frontend = QueryFrontend(db)
        client = ServiceClient(frontend)
        client.query(1)
        assert frontend.counters.get("requests.during_reshuffle") == 0
        driver = db.begin_reshuffle(batch_size=4)
        client.query(2)
        driver.run()
        client.query(3)
        assert frontend.counters.get("requests.during_reshuffle") == 1
        client.close()
        db.close()
