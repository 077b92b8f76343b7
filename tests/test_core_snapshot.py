"""Snapshot/restore of a running database."""

from __future__ import annotations

import json
import os

import pytest

from repro.baselines import make_records
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.crypto.suite import _RENAMED, CipherSuite
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    PageDeletedError,
    PageNotFoundError,
    StorageError,
)
from repro.hardware.pagemap import PageMap
from repro.storage.disk import DiskStore
from repro.storage.trace import shapes_identical

from tests.helpers import make_db

RECORDS = make_records(40, 16)


@pytest.fixture
def warm_db():
    db = make_db(num_records=40, reserve_fraction=0.2, seed=404)
    for i in range(30):
        db.query(i % 40)
    db.update(5, b"edited-snap")
    new_id = db.insert(b"inserted-snap")
    db.delete(9)  # after the insert, so the insert cannot reuse id 9
    db._snapshot_test_new_id = new_id
    return db


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
        sealed = tmp_path / "sealed.bin"
        data = bytearray(sealed.read_bytes())
        data[10] ^= 1
        sealed.write_bytes(bytes(data))
        with pytest.raises(AuthenticationError):
            load_snapshot(str(tmp_path), seed=10)

    def test_manifest_contains_no_secrets(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "key" not in json.dumps(manifest).lower().replace(
            "cipher_backend", ""
        )
        assert set(manifest) == {
            "format", "num_user_pages", "reserve_pages", "cache_capacity",
            "block_size", "num_locations", "page_capacity", "target_c",
            "frame_size", "cipher_backend",
        }


class TestInteractions:
    def test_snapshot_during_rotation_roundtrips(self, warm_db, tmp_path):
        warm_db.rotate_master_key(b"next-key")
        remaining = warm_db.engine.rotation_requests_remaining
        assert remaining is not None and remaining > 0
        # A format-2 snapshot carries the legacy key and the rotation
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
        """Never encoded as position 2^64 - 1: the save is refused."""
        placed = warm_db.cop.page_map
        holed = PageMap(placed.num_pages)
        for page_id in range(placed.num_pages):
            entry = placed.lookup(page_id)
            if page_id != 7:
                place = holed.set_cached if entry.in_cache else holed.set_disk
                place(page_id, entry.position)
        warm_db.cop.page_map = holed
        with pytest.raises(PageNotFoundError,
                           match="page id 7 has no recorded position"):
            save_snapshot(warm_db, str(tmp_path))
        assert not (tmp_path / "sealed.bin").exists()

    def test_bad_format_version(self, warm_db, tmp_path):
        save_snapshot(warm_db, str(tmp_path))
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError):
            load_snapshot(str(tmp_path), seed=12)

    def test_retired_keystream_is_refused_before_any_decrypt(
        self, warm_db, tmp_path, monkeypatch
    ):
        """A format-2 manifest from before the shake keystream replaced
        blake2: HMAC keys did not change, so its frames would pass every
        MAC check and decrypt to noise — the manifest must stop the load."""
        save_snapshot(warm_db, str(tmp_path))  # real, MAC-valid frames
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == 2
        # The name CipherSuite itself still accepts (and maps to shake).
        (manifest["cipher_backend"],) = _RENAMED
        manifest_path.write_text(json.dumps(manifest))
        built = []
        monkeypatch.setattr(
            CipherSuite, "__init__",
            lambda self, *args, **kw: built.append(args),
        )
        with pytest.raises(ConfigurationError,
                           match="sealed under the retired blake2 keystream"):
            load_snapshot(str(tmp_path), seed=13)
        assert built == []  # no suite existed, so nothing was decrypted

    def test_sealing_layer_under_another_keystream_fails_closed(
        self, warm_db, tmp_path
    ):
        """The outer layer of ``sealed.bin`` is always the shake keystream;
        one sealed under any other (a pre-change aes / null / pure
        snapshot's was blake2) still passes the outer MAC, and the noise it
        opens to is caught by the inner layer's MAC."""
        save_snapshot(warm_db, str(tmp_path))
        backend = warm_db.cop.suite.backend
        sealing_key = b"snapshot-sealing:" + backend.encode()
        sealed = tmp_path / "sealed.bin"
        inner = CipherSuite(sealing_key, backend="shake").decrypt_page(
            sealed.read_bytes()
        )
        sealed.write_bytes(
            CipherSuite(sealing_key, backend="null").encrypt_page(inner)
        )
        with pytest.raises(AuthenticationError):
            load_snapshot(str(tmp_path), seed=15)

    # Cut inside the round-robin pointer, inside the page map (after two
    # u64 counters, the u64 page count and 7.5 nine-byte entries), mid-blob
    # and inside the epoch number.
    @pytest.mark.parametrize("keep", [5, 24 + 9 * 7 + 4, 0.5, -3])
    def test_truncated_trusted_state_is_a_storage_error(
        self, warm_db, tmp_path, keep
    ):
        """An authentic but truncated trusted-state blob is refused as
        malformed storage, not as a bare struct.error / IndexError or a
        numpy ValueError."""
        save_snapshot(warm_db, str(tmp_path))
        sealing = CipherSuite(
            b"snapshot-sealing:" + warm_db.cop.suite.backend.encode(),
            backend="shake",
        )
        sealed = tmp_path / "sealed.bin"
        trusted = warm_db.cop.suite.decrypt_page(
            sealing.decrypt_page(sealed.read_bytes())
        )
        cut = keep if isinstance(keep, int) else int(len(trusted) * keep)
        sealed.write_bytes(sealing.encrypt_page(
            warm_db.cop.suite.encrypt_page(trusted[:cut])
        ))
        with pytest.raises(StorageError, match="truncated"):
            load_snapshot(str(tmp_path), seed=16)


class TestReshuffleSidecar:
    def test_sidecar_written_only_while_epoch_active(self, warm_db, tmp_path):
        from repro.core.snapshot import resume_reshuffle

        sidecar = tmp_path / "reshuffle.sealed"
        save_snapshot(warm_db, str(tmp_path))
        assert not sidecar.exists()

        driver = warm_db.begin_reshuffle(batch_size=8)
        driver.step()
        save_snapshot(warm_db, str(tmp_path))
        assert sidecar.exists()

        # A later save without an active epoch removes the stale sidecar.
        driver.run()
        save_snapshot(warm_db, str(tmp_path))
        assert not sidecar.exists()

    def test_resume_without_sidecar_returns_none(self, warm_db, tmp_path):
        from repro.core.snapshot import resume_reshuffle

        save_snapshot(warm_db, str(tmp_path))
        restored = load_snapshot(str(tmp_path), seed=23)
        assert resume_reshuffle(restored, str(tmp_path)) is None
        assert restored.reshuffle is None

    def test_resume_continues_the_epoch(self, warm_db, tmp_path):
        from repro.core.snapshot import resume_reshuffle

        digest = warm_db.content_digest()
        driver = warm_db.begin_reshuffle(batch_size=8)
        driver.step()
        save_snapshot(warm_db, str(tmp_path))
        frontier = driver.frontier

        restored = load_snapshot(str(tmp_path), seed=24)
        resumed = resume_reshuffle(restored, str(tmp_path))
        assert resumed is restored.reshuffle
        assert resumed.active and resumed.frontier == frontier
        resumed.run()
        restored.consistency_check()
        assert restored.content_digest() == digest

    def test_save_refused_with_pending_reshuffle_record(self, warm_db,
                                                        tmp_path):
        from repro.core.journal import MemoryJournal
        from repro.shuffle.online import ReshuffleIntent

        driver = warm_db.begin_reshuffle(batch_size=8,
                                         journal=MemoryJournal())
        driver.step()
        intent = ReshuffleIntent(epoch=driver.epoch,
                                 frontier_before=driver.frontier,
                                 frontier_after=driver.frontier + 8)
        driver.journal.write(driver._seal_record(intent))
        with pytest.raises(ConfigurationError, match="reshuffle"):
            save_snapshot(warm_db, str(tmp_path))
        driver.recover()
        save_snapshot(warm_db, str(tmp_path))
