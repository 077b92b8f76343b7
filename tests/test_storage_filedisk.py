"""File-backed untrusted page store."""

from __future__ import annotations

import gc
import os
import warnings

import pytest

from repro.baselines import make_records
from repro.cluster.replication import ReplicationLog
from repro.core.database import PirDatabase
from repro.errors import ConfigurationError, StorageError
from repro.service.frontend import SealedReplyCache
from repro.storage.filedisk import (
    SYNC_ALWAYS,
    SYNC_NEVER,
    SYNC_ON_FLUSH,
    FileDiskStore,
)
from repro.storage.timing import DiskTimingModel
from repro.storage.trace import READ

from tests.helpers import make_db, rows


class TestFileDiskStore:
    def _store(self, tmp_path, n=16, frame=8):
        return FileDiskStore(str(tmp_path / "pages.bin"), n, frame)

    def test_write_then_read(self, tmp_path):
        with self._store(tmp_path) as disk:
            disk.write(3, b"ABCDEFGH")
            assert disk.read(3) == b"ABCDEFGH"

    def test_range_roundtrip(self, tmp_path):
        with self._store(tmp_path) as disk:
            frames = [bytes([i]) * 8 for i in range(5)]
            disk.write_range(4, frames)
            assert rows(disk.read_range(4, 5)) == frames

    def test_unwritten_location_rejected(self, tmp_path):
        with self._store(tmp_path) as disk:
            disk.write(0, bytes(8))
            with pytest.raises(StorageError):
                disk.read(1)

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "pages.bin"
        with FileDiskStore(str(path), 8, 8) as disk:
            disk.write_range(0, [bytes([i]) * 8 for i in range(8)])
        reopened = FileDiskStore(str(path), 8, 8)
        # The written-bitmap is not persisted, but peek still sees the bytes.
        assert os.path.getsize(path) == 64
        reopened.close()

    def test_bounds_and_frame_size(self, tmp_path):
        with self._store(tmp_path) as disk:
            with pytest.raises(StorageError):
                disk.write(16, bytes(8))
            with pytest.raises(StorageError):
                disk.write(0, bytes(7))
            with pytest.raises(StorageError):
                disk.peek(99)

    def test_trace_and_timing(self, tmp_path):
        disk = FileDiskStore(
            str(tmp_path / "pages.bin"), 16, 8,
            timing=DiskTimingModel(seek_time=0.01, read_bandwidth=800,
                                   write_bandwidth=800),
        )
        disk.write_range(0, [bytes(8)] * 2)
        assert disk.clock.now == pytest.approx(0.03)
        disk.read_range(0, 2)
        assert disk.clock.now == pytest.approx(0.06)
        assert [e.op for e in disk.trace] == ["write", READ]
        disk.close()

    def test_peek_unwritten_is_none(self, tmp_path):
        with self._store(tmp_path) as disk:
            assert disk.peek(5) is None

    def test_initialised_locations(self, tmp_path):
        with self._store(tmp_path) as disk:
            disk.write_range(2, [bytes(8)] * 3)
            assert disk.initialised_locations() == 3


class TestSyncPolicyAndClose:
    def test_default_policy_is_on_flush(self, tmp_path):
        disk = FileDiskStore(str(tmp_path / "p.bin"), 4, 8)
        assert disk.sync_policy == SYNC_ON_FLUSH
        disk.close()

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FileDiskStore(str(tmp_path / "p.bin"), 4, 8, sync_policy="eventually")

    def test_all_policies_write_and_read(self, tmp_path):
        for policy in (SYNC_ALWAYS, SYNC_ON_FLUSH, SYNC_NEVER):
            path = str(tmp_path / f"{policy}.bin")
            with FileDiskStore(path, 4, 8, sync_policy=policy) as disk:
                disk.write_range(0, [b"\xaa" * 8, b"\xbb" * 8])
                assert rows(disk.read_range(0, 2)) == [b"\xaa" * 8, b"\xbb" * 8]

    def test_sync_always_fsyncs_every_write(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        disk = FileDiskStore(str(tmp_path / "p.bin"), 4, 8,
                             sync_policy=SYNC_ALWAYS)
        disk.write_range(0, [b"\x01" * 8])
        disk.write_range(1, [b"\x02" * 8])
        assert len(synced) == 2
        disk.close()  # flush() fsyncs once more
        assert len(synced) == 3

    def test_sync_never_skips_fsync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        disk = FileDiskStore(str(tmp_path / "p.bin"), 4, 8,
                             sync_policy=SYNC_NEVER)
        disk.write_range(0, [b"\x01" * 8])
        disk.flush()
        disk.close()
        assert synced == []

    def test_close_is_idempotent(self, tmp_path):
        disk = FileDiskStore(str(tmp_path / "p.bin"), 4, 8)
        disk.write_range(0, [b"\x01" * 8])
        disk.close()
        disk.close()
        disk.close()

    def test_context_manager_after_explicit_close(self, tmp_path):
        with FileDiskStore(str(tmp_path / "p.bin"), 4, 8) as disk:
            disk.write_range(0, [b"\x01" * 8])
            disk.close()
        # __exit__ closed an already-closed store without raising; the
        # frames made it to the file.
        with open(tmp_path / "p.bin", "rb") as handle:
            assert handle.read(8) == b"\x01" * 8


class TestPirDatabaseOnFileDisk:
    def test_full_system_over_real_file(self, tmp_path):
        records = make_records(32, 16)

        def factory(num_locations, frame_size, timing, clock, trace):
            return FileDiskStore(
                str(tmp_path / "db.bin"), num_locations, frame_size,
                timing=timing, clock=clock, trace=trace,
            )

        db = PirDatabase.create(
            records, cache_capacity=4, block_size=4, page_capacity=16,
            seed=3, disk_factory=factory,
        )
        for step in range(100):
            page_id = (step * 7) % 32
            assert db.query(page_id) == records[page_id]
        db.update(3, b"on real disk")
        assert db.query(3) == b"on real disk"
        db.consistency_check()
        assert os.path.getsize(tmp_path / "db.bin") == (
            db.params.num_locations * db.cop.frame_size
        )

    @pytest.mark.parametrize("hot_tier_frames", [None, 8])
    @pytest.mark.parametrize("rollback_protection", [False, True])
    def test_close_flushes_the_file_through_every_wrapper(
        self, tmp_path, monkeypatch, rollback_protection, hot_tier_frames
    ):
        """db.close() must reach FileDiskStore.flush (the fsync under
        on-flush) whatever wraps the store — Merkle layer, hot tier, both."""
        flushes = []
        real_flush = FileDiskStore.flush

        def counting_flush(store):
            flushes.append(store)
            real_flush(store)

        monkeypatch.setattr(FileDiskStore, "flush", counting_flush)

        def factory(num_locations, frame_size, timing, clock, trace):
            return FileDiskStore(
                str(tmp_path / "db.bin"), num_locations, frame_size,
                timing=timing, clock=clock, trace=trace,
            )

        db = PirDatabase.create(
            make_records(32, 16), cache_capacity=4, block_size=4,
            page_capacity=16, seed=3, disk_factory=factory,
            rollback_protection=rollback_protection,
            hot_tier_frames=hot_tier_frames,
        )
        db.update(3, b"durable")
        flushes.clear()
        db.close()
        assert len(flushes) == 1

    @pytest.mark.parametrize("hot_tier_frames", [None, 8])
    def test_close_closes_the_file_once(self, tmp_path, hot_tier_frames):
        """db.close() releases the page file, not only flushes it; a second
        close is a no-op."""
        stores = []

        def factory(num_locations, frame_size, timing, clock, trace):
            stores.append(FileDiskStore(
                str(tmp_path / "db.bin"), num_locations, frame_size,
                timing=timing, clock=clock, trace=trace,
            ))
            return stores[-1]

        db = PirDatabase.create(
            make_records(32, 16), cache_capacity=4, block_size=4,
            page_capacity=16, seed=3, disk_factory=factory,
            hot_tier_frames=hot_tier_frames,
        )
        db.update(3, b"durable")
        db.close()
        assert stores[0]._file.closed
        db.close()
        assert stores[0]._file.closed


# Each opens one host file and drops its owner without close().
HOST_FILES = {
    "pages.bin": lambda d: FileDiskStore(str(d / "pages.bin"), 16, 8),
    "replies.cache": lambda d: SealedReplyCache(path=d / "replies.cache"),
    "repl.log": lambda d: ReplicationLog(make_db(8, seed=1).cop, "o:1",
                                         path=str(d / "repl.log")),
}


@pytest.mark.parametrize("name", sorted(HOST_FILES))
def test_a_dropped_owner_closes_its_host_file(tmp_path, name):
    """A store, reply cache or replication log collected without
    ``close()`` closes its file: no ``ResourceWarning: unclosed file``."""
    gc.collect()  # what earlier tests left behind is not this owner's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        HOST_FILES[name](tmp_path)
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []
