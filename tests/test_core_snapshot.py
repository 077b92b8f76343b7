"""Snapshot/restore of a running database."""

from __future__ import annotations

import json
import os

import pytest

from repro import PirDatabase
from repro.baselines import make_records
from repro.core import snapshot
from repro.core.snapshot import load_snapshot, save_snapshot, suspend
from repro.crypto.suite import _RENAMED, BACKENDS, CipherSuite
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    PageDeletedError,
    PageNotFoundError,
    ProtocolError,
    StorageError,
)
from repro.hardware.trusted import TrustedState
from repro.storage.disk import DiskStore
from repro.storage.trace import shapes_identical

from tests.helpers import join_sealed, make_db, split_sealed

RECORDS = make_records(40, 16)


def _warm_db():
    db = make_db(num_records=40, reserve_fraction=0.2, seed=404)
    for i in range(30):
        db.query(i % 40)
    db.update(5, b"edited-snap")
    new_id = db.insert(b"inserted-snap")
    db.delete(9)  # after the insert, so the insert cannot reuse id 9
    db._snapshot_test_new_id = new_id
    return db


@pytest.fixture
def warm_db():
    return _warm_db()


class TestRoundtrip:
    def test_restore_preserves_every_payload(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=1)
        for page_id in range(40):
            if page_id == 9:
                continue
            expected = (b"edited-snap" if page_id == 5
                        else RECORDS[page_id])
            assert restored.query(page_id) == expected
        assert restored.query(warm_db._snapshot_test_new_id) == (
            b"inserted-snap"
        )

    def test_restore_preserves_deletions(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=2)
        with pytest.raises(PageDeletedError):
            restored.query(9)

    def test_restore_preserves_round_robin_pointer(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=3)
        assert restored.engine.next_block_index == warm_db.engine.next_block_index
        assert restored.engine.request_count == warm_db.engine.request_count

    def test_restored_database_is_consistent(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=4)
        restored.consistency_check()

    def test_restored_database_keeps_operating(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=5)
        for i in range(40):
            if i != 9:
                restored.query(i)
        restored.update(2, b"post-restore")
        assert restored.query(2) == b"post-restore"
        restored.consistency_check()
        # Request numbering continues from the snapshot, so compare shapes
        # over the post-restore request indices only.
        first = warm_db.engine.request_count
        assert shapes_identical(
            restored.trace, first, restored.engine.request_count - 1
        )

    def test_snapshot_of_restored_database(self, warm_db, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_snapshot(warm_db, str(first))
        middle = load_snapshot(str(first), seed=6)
        middle.query(1)
        save_snapshot(middle, str(second))
        final = load_snapshot(str(second), seed=7)
        assert final.query(4) == RECORDS[4]


class TestSecurity:
    def test_wrong_master_key_rejected(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        with pytest.raises(AuthenticationError):
            load_snapshot(str(tmp_path), master_key=b"wrong key", seed=8)

    def test_tampered_frames_detected_on_use(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        frames = tmp_path / "frames.bin"
        data = bytearray(frames.read_bytes())
        data[50] ^= 0xFF
        frames.write_bytes(bytes(data))
        restored = load_snapshot(str(tmp_path), seed=9)
        with pytest.raises(AuthenticationError):
            for i in range(40):
                if i != 9:
                    restored.query(i)

    def test_tampered_sealed_state_rejected(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        path = tmp_path / "sealed.bin"
        head, sealed = split_sealed(path.read_bytes())
        data = bytearray(sealed)
        data[10] ^= 1
        path.write_bytes(join_sealed(head, bytes(data)))
        with pytest.raises(AuthenticationError):
            load_snapshot(str(tmp_path), seed=10)

    def test_manifest_contains_no_secrets(self, warm_db, tmp_path):
        """The head of ``sealed.bin`` is the public parameters only."""
        save_snapshot(warm_db, str(tmp_path))
        head, _ = split_sealed((tmp_path / "sealed.bin").read_bytes())
        manifest = json.loads(head)
        assert "key" not in json.dumps(manifest).lower().replace(
            "cipher_backend", ""
        )
        assert set(manifest) == {
            "num_user_pages", "reserve_pages", "cache_capacity",
            "block_size", "num_locations", "page_capacity", "target_c",
            "cipher_backend",
        }


class TestOneSealedState:
    def test_sealed_bin_is_the_suspend_blob(self, tmp_path):
        """A snapshot's ``sealed.bin`` is byte for byte the blob
        ``suspend`` seals for a same-seed twin, and it restores."""
        saved, twin = _warm_db(), _warm_db()
        save_snapshot(saved, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["frames.bin", "sealed.bin"]
        assert (tmp_path / "sealed.bin").read_bytes() == suspend(twin)
        restored = load_snapshot(str(tmp_path), seed=1)
        assert restored.engine.next_block_index == twin.engine.next_block_index
        assert restored.content_digest() == twin.content_digest()


class TestInteractions:
    def test_snapshot_during_rotation_roundtrips(self, warm_db, tmp_path):
        warm_db.rotate_master_key(b"next-key")
        remaining = warm_db.engine.rotation_requests_remaining
        assert remaining is not None and remaining > 0
        # The sealed state carries the legacy key and the rotation
        # countdown, so a mid-rotation save is no longer refused.
        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), master_key=b"next-key", seed=20)
        assert restored.cop.rotation_in_progress
        assert restored.engine.rotation_requests_remaining == remaining
        assert restored.query(0) == RECORDS[0]
        # The restored replica finishes the rotation on its own.
        for _ in range(restored.params.scan_period):
            restored.touch()
        assert not restored.cop.rotation_in_progress
        assert restored.query(1) == RECORDS[1]

    def test_mid_rotation_restore_requires_new_key(self, warm_db, tmp_path):
        warm_db.rotate_master_key(b"next-key")
        save_snapshot(warm_db, str(tmp_path))
        # The pre-rotation key no longer opens the snapshot cache blob.
        with pytest.raises(AuthenticationError):
            load_snapshot(str(tmp_path), master_key=b"repro-master-key",
                          seed=20)

    def test_restore_with_rollback_protection(self, warm_db, tmp_path):
        from repro.storage.merkle import AuthenticatedDisk

        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=21,
                                 rollback_protection=True)
        assert isinstance(restored.disk, AuthenticatedDisk)
        assert restored.query(0) == RECORDS[0]
        # A replay against the restored instance is caught.
        stale = restored.disk.peek(0)
        for _ in range(restored.params.scan_period):
            restored.touch()
        restored.disk.poke(0, stale)
        with pytest.raises(AuthenticationError, match="stale"):
            for _ in range(restored.params.scan_period):
                restored.touch()

    def test_restored_instance_is_observed(self, warm_db, tmp_path):
        """``load_snapshot`` forwards the builder's wiring: the restored
        engine and tier publish to the registry and emit request spans."""
        from repro.obs import MetricsRegistry, Tracer

        save_snapshot(warm_db, str(tmp_path))
        registry, tracer = MetricsRegistry(), Tracer()
        restored = load_snapshot(str(tmp_path), seed=22, hot_tier_frames=4,
                                 metrics=registry, tracer=tracer)
        assert restored.metrics is registry and restored.tracer is tracer
        assert tracer.spans == []  # the frame replay is not a request
        assert restored.query(0) == RECORDS[0]
        counters = registry.snapshot()["counters"]
        assert counters["engine.requests"] == 1
        assert counters["tier.miss"] > 0
        assert [span.name for span in tracer.spans].count("request") == 1

    def test_restore_onto_a_file_store(self, warm_db, tmp_path):
        from repro.storage.filedisk import FileDiskStore

        save_snapshot(warm_db, str(tmp_path / "snap"))
        path = str(tmp_path / "restored.bin")
        restored = load_snapshot(
            str(tmp_path / "snap"), seed=23,
            disk_factory=lambda n, frame, timing, clock, trace:
                FileDiskStore(path, n, frame, timing, clock, trace),
        )
        assert isinstance(restored.disk, FileDiskStore)
        assert restored.query(5) == b"edited-snap"
        restored.close()
        assert os.path.getsize(path) == (
            restored.params.num_locations * restored.cop.frame_size
        )


class TestValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_snapshot(str(tmp_path / "nope"))

    def test_truncated_frames(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        frames = tmp_path / "frames.bin"
        frames.write_bytes(frames.read_bytes()[:-1])
        with pytest.raises(StorageError):
            load_snapshot(str(tmp_path), seed=11)

    def test_frames_file_one_frame_too_long(self, warm_db, tmp_path):
        """The restore reads ``frames.bin`` a chunk at a time; a file
        longer than the manifest says is refused all the same, before any
        frame is replayed."""
        save_snapshot(warm_db, str(tmp_path))
        frames = tmp_path / "frames.bin"
        data = frames.read_bytes()
        frames.write_bytes(data + data[: warm_db.cop.frame_size])
        with pytest.raises(StorageError, match="frames file is"):
            load_snapshot(str(tmp_path), seed=11)

    def test_unwritten_location_refuses_to_dump(self, warm_db, tmp_path):
        frame_size = warm_db.cop.frame_size
        holed = DiskStore(warm_db.disk.num_locations, frame_size)
        for location in range(holed.num_locations):
            if location != 11:
                holed.poke(location, warm_db.disk.peek(location))
        warm_db.disk = holed
        with pytest.raises(StorageError, match="location 11"):
            save_snapshot(warm_db, str(tmp_path))

    def test_page_without_a_position_refuses_to_snapshot(self, warm_db,
                                                         tmp_path):
        """Never encoded as some position: the save is refused."""
        placed = warm_db.cop.state
        holed = TrustedState(placed.num_locations, placed.cache_capacity,
                             placed.block_size)
        for page_id in range(placed.num_pages):
            entry = placed.lookup(page_id)
            if page_id != 7:
                place = holed.set_cached if entry.in_cache else holed.set_disk
                place(page_id, entry.position)
        warm_db.cop.state = holed
        with pytest.raises(PageNotFoundError,
                           match="page id 7 has no recorded position"):
            save_snapshot(warm_db, str(tmp_path))
        assert not (tmp_path / "sealed.bin").exists()

    # The other malformed heads go through the same parse as an owner
    # blob's: tests/test_twoparty_resume.py::MALFORMED_BLOBS.
    @pytest.mark.parametrize("damage", [
        lambda m: json.dumps({**m, "block_size": 0}),
    ], ids=["zero_block_size"])
    def test_a_malformed_manifest_is_refused_typed(self, warm_db, tmp_path,
                                                   damage):
        """``sealed.bin``'s head is host storage: whatever is wrong with
        it is a ConfigurationError naming the snapshot (a block size of 0
        not a ZeroDivisionError)."""
        save_snapshot(warm_db, str(tmp_path))
        path = tmp_path / "sealed.bin"
        head, sealed = split_sealed(path.read_bytes())
        damaged = damage(json.loads(head))
        path.write_bytes(join_sealed(damaged.encode(), sealed))
        with pytest.raises(ConfigurationError, match="snapshot in"):
            load_snapshot(str(tmp_path), seed=15)

    def test_bad_format_version(self, warm_db, tmp_path):
        """The sealed layout's own version byte tells layouts apart: a
        blob of another version is refused."""
        save_snapshot(warm_db, str(tmp_path))
        path = tmp_path / "sealed.bin"
        head, sealed = split_sealed(path.read_bytes())
        trusted = bytearray(warm_db.cop.suite.decrypt_page(sealed))
        trusted[0] = 99
        path.write_bytes(join_sealed(
            head, warm_db.cop.suite.encrypt_page(bytes(trusted))
        ))
        with pytest.raises(StorageError, match=r"\(layout, n, m, k\) = \(99,"):
            load_snapshot(str(tmp_path), seed=12)

    def test_retired_keystream_is_refused_before_any_decrypt(
        self, warm_db, tmp_path, monkeypatch
    ):
        """A head naming the keystream blake2 was before shake replaced
        it: HMAC keys did not change, so its frames would pass every MAC
        check and decrypt to noise — the head must stop the load."""
        save_snapshot(warm_db, str(tmp_path))  # real, MAC-valid frames
        path = tmp_path / "sealed.bin"
        head, sealed = split_sealed(path.read_bytes())
        manifest = json.loads(head)
        # The name CipherSuite itself still accepts (and maps to shake).
        (manifest["cipher_backend"],) = _RENAMED
        path.write_bytes(join_sealed(json.dumps(manifest).encode(), sealed))
        built = []
        monkeypatch.setattr(
            CipherSuite, "__init__",
            lambda self, *args, **kw: built.append(args),
        )
        with pytest.raises(ConfigurationError,
                           match="sealed under the retired blake2 keystream"):
            load_snapshot(str(tmp_path), seed=13)
        assert built == []  # no suite existed, so nothing was decrypted

    @pytest.mark.parametrize("old_format", [1, 2, 3, 4, 5])
    def test_older_formats_are_refused_before_any_suite(
        self, warm_db, tmp_path, monkeypatch, old_format
    ):
        """A directory that still holds ``manifest.json`` was written in
        the retired layout (formats 1 to 5: a public manifest beside a
        doubly sealed state): it is refused, naming the way out, before
        any suite exists.  A fresh snapshot saved over it loads."""
        save_snapshot(warm_db, str(tmp_path))
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": old_format})
        )
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(CipherSuite, "__init__",
                          lambda self, *args, **kw: built.append(args))
            with pytest.raises(ConfigurationError,
                               match="retired layout.*Re-create the database"):
                load_snapshot(str(tmp_path), seed=14)
        assert built == []
        save_snapshot(warm_db, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["frames.bin", "sealed.bin"]
        assert load_snapshot(str(tmp_path), seed=14).query(0) == RECORDS[0]

    @staticmethod
    def _k6_and_k12(tmp_path):
        """Snapshots of two databases with the same key, 120 locations
        and m but different k, in ``k6`` and ``k12``.  Their seeds differ:
        a same-seed pair has one layout, and its swapped files restore a
        consistent database (nothing sealed names the frames yet)."""
        small, large = (
            PirDatabase.create(
                make_records(120, 16), cache_capacity=6, block_size=k,
                page_capacity=16, seed=seed,
            )
            for k, seed in ((6, 17), (12, 18))
        )
        assert small.params.num_locations == large.params.num_locations
        save_snapshot(small, str(tmp_path / "k6"))
        save_snapshot(large, str(tmp_path / "k12"))

    def test_sealed_state_of_another_block_size_is_refused(self, tmp_path):
        """Same key, same 120 locations and m, different k: the other
        database's ``sealed.bin`` cannot be restored next to these frames,
        whose next block does not hold the pages its page map puts there."""
        self._k6_and_k12(tmp_path)
        (tmp_path / "k12" / "sealed.bin").write_bytes(
            (tmp_path / "k6" / "sealed.bin").read_bytes()
        )
        with pytest.raises(StorageError,
                           match="frames.bin does not match sealed.bin"):
            load_snapshot(str(tmp_path / "k12"), seed=18)

    def test_sealed_state_under_another_head_is_refused(self, tmp_path):
        """The sealed state names its (n, m, k), so it cannot be restored
        under the other database's public parameters (the head of its
        blob)."""
        self._k6_and_k12(tmp_path)
        head, _ = split_sealed((tmp_path / "k12" / "sealed.bin").read_bytes())
        _, sealed = split_sealed((tmp_path / "k6" / "sealed.bin").read_bytes())
        (tmp_path / "k12" / "sealed.bin").write_bytes(join_sealed(head, sealed))
        with pytest.raises(StorageError, match=r"sealed as \(layout, n, m, k\) = \(5, 120, 6, 6\)"):
            load_snapshot(str(tmp_path / "k12"), seed=18)

    @pytest.mark.parametrize("backend", sorted(set(BACKENDS) - {"shake"}))
    def test_a_head_naming_another_backend_is_refused(self, tmp_path,
                                                      backend):
        """The page suite's MAC key does not depend on the backend, so a
        head naming another supported backend passes the MAC and opens
        the state to noise, which the sealed layout's own header refuses
        (making the head associated data of the seal is a later re-pin)."""
        db = make_db(num_records=40, seed=22, cipher_backend="shake")
        save_snapshot(db, str(tmp_path))
        path = tmp_path / "sealed.bin"
        head, sealed = split_sealed(path.read_bytes())
        path.write_bytes(join_sealed(
            json.dumps({**json.loads(head), "cipher_backend": backend}).encode(),
            sealed,
        ))
        with pytest.raises(StorageError, match="trusted state sealed as"):
            load_snapshot(str(tmp_path), seed=23)

    @pytest.mark.parametrize("keep", [0, 3, 10])
    def test_a_truncated_head_is_a_protocol_error(self, warm_db, tmp_path,
                                                  keep):
        """A ``sealed.bin`` cut before the end of its head is refused as an
        owner blob cut there is, naming the snapshot."""
        save_snapshot(warm_db, str(tmp_path))
        path = tmp_path / "sealed.bin"
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ProtocolError, match="snapshot in .* is truncated"):
            load_snapshot(str(tmp_path), seed=24)

    # Cut inside (n, m, k), inside the position column (61 bytes of
    # header, scalars and empty legacy key, then 30 of 56 one-byte
    # positions), mid-blob and inside the last cache slot.
    @pytest.mark.parametrize("keep", [5, 24 + 9 * 7 + 4, 0.5, -3])
    def test_truncated_trusted_state_is_a_storage_error(
        self, warm_db, tmp_path, keep
    ):
        """An authentic but truncated trusted-state blob is refused as
        malformed storage, not as a bare struct.error / IndexError or a
        numpy ValueError."""
        save_snapshot(warm_db, str(tmp_path))
        path = tmp_path / "sealed.bin"
        head, sealed = split_sealed(path.read_bytes())
        trusted = warm_db.cop.suite.decrypt_page(sealed)
        cut = keep if isinstance(keep, int) else int(len(trusted) * keep)
        path.write_bytes(join_sealed(
            head, warm_db.cop.suite.encrypt_page(trusted[:cut])
        ))
        with pytest.raises(StorageError, match="truncated"):
            load_snapshot(str(tmp_path), seed=16)


class TestReshuffleSidecar:
    """There is no reshuffle sidecar: a mid-epoch snapshot seals the epoch
    in ``sealed.bin`` with the rest of the trusted state."""

    def test_mid_epoch_snapshot_holds_two_files(self, warm_db, tmp_path):
        driver = warm_db.begin_reshuffle(batch_size=8)
        driver.step()
        save_snapshot(warm_db, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["frames.bin", "sealed.bin"]
        assert not hasattr(snapshot, "resume_reshuffle")
        assert not hasattr(driver, "restore_state")

    def test_resume_without_active_epoch_returns_none(self, warm_db,
                                                      tmp_path):
        warm_db.begin_reshuffle(batch_size=8).run()
        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=23)
        assert restored.resume_reshuffle() is None
        assert restored.reshuffle is None
        assert restored.begin_reshuffle().epoch == 2

    def test_resume_continues_the_epoch(self, warm_db, tmp_path):
        digest = warm_db.content_digest()
        driver = warm_db.begin_reshuffle(batch_size=8)
        driver.step()
        save_snapshot(warm_db, str(tmp_path))
        frontier = driver.frontier

        restored = load_snapshot(str(tmp_path), seed=24)
        with pytest.raises(ConfigurationError, match="in progress"):
            restored.begin_reshuffle()
        resumed = restored.resume_reshuffle()
        assert resumed is restored.reshuffle
        assert resumed.active and resumed.frontier == frontier
        resumed.run()
        restored.consistency_check()
        assert restored.content_digest() == digest

    def test_rotating_epoch_restores_from_the_two_files(self, tmp_path):
        """A mid-epoch, mid-rotation snapshot restores from its frames and
        sealed state alone: the resumed epoch is the saved one,
        finishing it sorts the pages by its key, and one scan period of
        requests after it drops the legacy key."""
        from tests.test_online_reshuffle import assert_batcher_order

        db = make_db(64, seed=31)
        digest = db.content_digest()
        db.rotate_master_key(b"rotated-key")
        driver = db.begin_reshuffle(batch_size=8)
        driver.step()
        saved = (driver.epoch, driver.frontier, db.cop.state.epoch_key)
        save_snapshot(db, str(tmp_path / "snap"))
        copy = tmp_path / "copy"
        copy.mkdir()
        for name in ("frames.bin", "sealed.bin"):
            (copy / name).write_bytes((tmp_path / "snap" / name).read_bytes())

        restored = load_snapshot(str(copy), master_key=b"rotated-key",
                                 seed=32)
        resumed = restored.resume_reshuffle()
        assert resumed is not None
        assert (resumed.epoch, resumed.frontier,
                restored.cop.state.epoch_key) == saved
        resumed.run()
        assert_batcher_order(restored, resumed)
        assert restored.cop.rotation_in_progress
        for _ in range(restored.params.scan_period):
            restored.touch()
        assert not restored.cop.rotation_in_progress
        restored.consistency_check()
        assert restored.content_digest() == digest

    def test_save_refused_with_pending_reshuffle_record(self, warm_db,
                                                        tmp_path):
        from repro.core.journal import MemoryJournal, ReshuffleIntent

        warm_db.engine.journal = journal = MemoryJournal()
        driver = warm_db.begin_reshuffle(batch_size=8)
        driver.step()
        intent = ReshuffleIntent(epoch=driver.epoch,
                                 frontier_before=driver.frontier,
                                 frontier_after=driver.frontier + 8)
        journal.write(driver._seal_record(intent))
        with pytest.raises(ConfigurationError,
                           match="pending intent-journal record"):
            save_snapshot(warm_db, str(tmp_path))
        assert warm_db.recover().action == "replayed"
        save_snapshot(warm_db, str(tmp_path))
