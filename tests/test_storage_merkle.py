"""Merkle freshness layer: rollback detection beyond honest-but-curious."""

from __future__ import annotations

import pytest

from repro.baselines import make_records
from repro.core.database import PirDatabase
from repro.errors import AuthenticationError, StorageError
from repro.storage.disk import DiskStore
from repro.storage.merkle import AuthenticatedDisk, MerkleTree

from tests.helpers import rows


class TestMerkleTree:
    def test_update_changes_root(self):
        tree = MerkleTree(8)
        before = tree.root
        after = tree.update(3, b"frame")
        assert after != before
        assert tree.root == after

    def test_verify_accepts_current_frame(self):
        tree = MerkleTree(8)
        root = tree.update(5, b"current")
        assert tree.verify(5, b"current", root)

    def test_verify_rejects_other_frame(self):
        tree = MerkleTree(8)
        root = tree.update(5, b"current")
        assert not tree.verify(5, b"older version", root)

    def test_verify_rejects_against_stale_root(self):
        tree = MerkleTree(8)
        old_root = tree.update(5, b"v1")
        tree.update(5, b"v2")
        assert not tree.verify(5, b"v1", tree.root)
        assert tree.verify(5, b"v1", old_root)  # only the old root accepts v1

    def test_leaf_position_binding(self):
        """The same frame at a different index must not verify."""
        tree = MerkleTree(8)
        tree.update(2, b"frame")
        root = tree.update(6, b"frame")
        assert tree.verify(2, b"frame", root)
        assert not tree.verify(3, b"frame", root)

    def test_non_power_of_two_leaves(self):
        tree = MerkleTree(5)
        root = tree.update_range(0, [bytes([i]) for i in range(5)])
        for i in range(5):
            assert tree.verify(i, bytes([i]), root)

    def test_bounds(self):
        tree = MerkleTree(4)
        with pytest.raises(StorageError):
            tree.update(4, b"x")
        with pytest.raises(StorageError):
            MerkleTree(0)


class TestAuthenticatedDisk:
    def _disk(self, n=16, frame=8):
        return AuthenticatedDisk(DiskStore(n, frame))

    def test_honest_roundtrip(self):
        disk = self._disk()
        disk.write_range(0, [bytes([i]) * 8 for i in range(16)])
        assert disk.read(5) == bytes([5]) * 8
        assert rows(disk.read_range(2, 3)) == [bytes([i]) * 8 for i in (2, 3, 4)]

    def test_replay_attack_detected(self):
        disk = self._disk()
        disk.write(3, b"version1")
        stale = disk.peek(3)
        disk.write(3, b"version2")
        # Malicious server: put the old (validly MAC'd) frame back.
        disk.poke(3, stale)
        with pytest.raises(AuthenticationError, match="stale"):
            disk.read(3)

    def test_corruption_detected(self):
        disk = self._disk()
        disk.write(0, bytes(8))
        disk.poke(0, b"\xff" * 8)
        with pytest.raises(AuthenticationError):
            disk.read_range(0, 1)

    def test_root_changes_on_every_write(self):
        disk = self._disk()
        roots = set()
        for i in range(5):
            disk.write(0, bytes([i]) * 8)
            roots.add(disk.trusted_root)
        assert len(roots) == 5


class TestTwoPartyFreshness:
    def test_owner_detects_provider_replay(self):
        from repro.twoparty import TwoPartySession

        records = make_records(40, 16)
        session = TwoPartySession.create(
            records, cache_capacity=6, block_size=5, page_capacity=16,
            seed=15, rollback_protection=True,
        )
        owner = session.owner
        for page_id in range(40):
            assert owner.query(page_id) == records[page_id]
        stale = session.provider.disk.peek(0)
        for _ in range(owner.params.scan_period):
            owner.touch()
        session.provider.disk.poke(0, stale)
        with pytest.raises(AuthenticationError, match="stale"):
            for _ in range(owner.params.scan_period):
                owner.touch()

    def test_honest_provider_unaffected(self):
        from repro.twoparty import TwoPartySession

        records = make_records(30, 16)
        owner = TwoPartySession.create(
            records, cache_capacity=6, block_size=5, page_capacity=16,
            seed=16, rollback_protection=True, reserve_fraction=0.2,
        ).owner
        owner.update(3, b"fresh")
        assert owner.query(3) == b"fresh"
        new_id = owner.insert(b"added")
        assert owner.query(new_id) == b"added"


class TestEndToEnd:
    def test_database_with_rollback_protection(self):
        records = make_records(32, 16)
        db = PirDatabase.create(
            records, cache_capacity=4, block_size=4, page_capacity=16,
            seed=6, rollback_protection=True,
        )
        for step in range(80):
            page_id = (step * 5) % 32
            assert db.query(page_id) == records[page_id]
        db.update(3, b"fresh write")
        assert db.query(3) == b"fresh write"
        db.consistency_check()

    def test_database_replay_attack_detected(self):
        records = make_records(32, 16)
        db = PirDatabase.create(
            records, cache_capacity=4, block_size=4, page_capacity=16,
            seed=7, rollback_protection=True,
        )
        stale = db.disk.peek(0)
        # Several requests later the location has been rewritten...
        for _ in range(db.params.scan_period):
            db.touch()
        # ...the malicious server now rolls location 0 back.
        db.disk.poke(0, stale)
        with pytest.raises(AuthenticationError, match="stale"):
            for _ in range(db.params.scan_period):
                db.touch()
