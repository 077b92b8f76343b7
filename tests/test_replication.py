"""Sealed replication unit tests (repro.cluster.replication).

The cross-member integration drills live in test_cluster_router.py and
test_crash_restart.py; this file pins down the pieces in isolation: the
sealed record codec, the origin-side log (cover traffic, durability,
semi-sync waits), and the peer-side applier's idempotent sequence
tracking.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from tests.helpers import make_db
from repro.baselines import make_records
from repro.cluster.replication import (
    KIND_DELETE,
    KIND_NOOP,
    KIND_WRITE,
    ReplicationApplier,
    ReplicationLog,
    decode_record,
    encode_record,
    record_size,
)
from repro.core.snapshot import bootstrap_replica, load_snapshot, save_snapshot
from repro.core.engine import BatchOp
from repro.errors import (
    PageDeletedError,
    PageNotFoundError,
    RollbackError,
    StorageError,
)

RECORDS = make_records(40, 16)


@pytest.fixture()
def db():
    database = make_db(num_records=40)
    yield database
    database.close()


class TestRecordCodec:
    def test_roundtrip_all_kinds(self, db):
        cop = db.cop
        for kind, page_id, payload in [
            (KIND_NOOP, 0, b""),
            (KIND_WRITE, 7, b"new payload"),
            (KIND_DELETE, 9, b""),
        ]:
            sealed = encode_record(cop, 3, kind, page_id, payload)
            record = decode_record(cop, sealed)
            assert (record.seq, record.kind, record.page_id,
                    record.payload) == (3, kind, page_id, payload)

    def test_all_records_same_size(self, db):
        """The privacy property: a noop cover, a delete, and a max-size
        write are indistinguishable ciphertexts."""
        cop = db.cop
        sizes = {
            len(encode_record(cop, 1, KIND_NOOP, 0, b"")),
            len(encode_record(cop, 2, KIND_DELETE, 30, b"")),
            len(encode_record(cop, 3, KIND_WRITE, 5,
                              b"x" * cop.page_capacity)),
        }
        assert len(sizes) == 1

    def test_payload_bound_enforced(self, db):
        with pytest.raises(StorageError, match="page bound"):
            encode_record(db.cop, 1, KIND_WRITE, 0,
                          b"x" * (db.cop.page_capacity + 1))

    def test_tampered_record_rejected(self, db):
        sealed = bytearray(encode_record(db.cop, 1, KIND_WRITE, 4, b"data"))
        sealed[len(sealed) // 2] ^= 0x40
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            decode_record(db.cop, bytes(sealed))

    def test_cross_replica_readable(self, db, tmp_path):
        """A replica (same master key, different RNG lineage) must unseal
        the record; a foreign deployment must not."""
        from repro.core.snapshot import bootstrap_replica
        replica = bootstrap_replica(db, str(tmp_path / "boot"), seed=9)
        try:
            sealed = encode_record(db.cop, 5, KIND_WRITE, 2, b"shared")
            assert decode_record(replica.cop, sealed).payload == b"shared"
        finally:
            replica.close()
        foreign = make_db(num_records=8, master_key=b"someone-else's key")
        try:
            from repro.errors import ReproError
            with pytest.raises(ReproError):
                decode_record(foreign.cop, sealed)
        finally:
            foreign.close()

    def test_record_size_is_header_plus_page(self, db):
        assert record_size(db.cop) == 4 + 8 + 1 + 8 + 4 + db.cop.page_capacity


class TestReplicationLog:
    def test_emit_assigns_dense_sequences(self, db):
        log = ReplicationLog(db.cop, "o:1")
        assert log.emit("write", 1, b"a") == 1
        assert log.emit("noop") == 2
        assert log.emit("delete", 2) == 3
        assert log.last_seq == 3
        assert [seq for seq, _ in log.records_since(0)] == [1, 2, 3]

    def test_cover_traffic_off_drops_noops(self, db):
        log = ReplicationLog(db.cop, "o:1", cover_traffic=False)
        assert log.emit("noop") == 0
        assert log.emit("write", 1, b"a") == 1
        assert log.emit("noop") == 1  # unchanged high-water mark
        assert log.last_seq == 1

    def test_every_submitted_op_emits_exactly_one_record(self, db):
        """One emit rule for single ops and batches: served ops emit their
        record, *failed* ops a ``noop`` cover — a refused lone request must
        look like a served one on the replication wire."""
        db.replication = log = ReplicationLog(db.cop, "o:1")

        def kinds(since):
            return [decode_record(db.cop, sealed).kind
                    for _, sealed in log.records_since(since)]

        db.query(1)
        db.update(2, b"new")
        new_id = db.insert(b"fresh")
        db.delete(3)
        db.touch()
        assert kinds(0) == [KIND_NOOP, KIND_WRITE, KIND_WRITE, KIND_DELETE,
                            KIND_NOOP]
        assert decode_record(
            db.cop, log.records_since(2)[0][1]).page_id == new_id
        # Failed single ops: a deleted page (refused only after the full
        # request ran) and two validation failures.
        requests = db.engine.request_count
        with pytest.raises(PageDeletedError):
            db.query(3)
        assert db.engine.request_count == requests + 1
        with pytest.raises(PageNotFoundError):
            db.query(10 ** 9)
        with pytest.raises(PageNotFoundError):
            db.delete(3)
        assert kinds(5) == [KIND_NOOP] * 3
        # ... exactly what the same failures emit inside a batch.
        db.run_batch([BatchOp("query", page_id=3),
                      BatchOp("query", page_id=10 ** 9)])
        assert kinds(8) == [KIND_NOOP] * 2
        assert log.last_seq == 10

    def test_durable_backlog_reloads_and_discards_torn_tail(self, db, tmp_path):
        path = str(tmp_path / "repl.log")
        log = ReplicationLog(db.cop, "o:1", path=path)
        log.emit("write", 1, b"a")
        log.emit("write", 2, b"b")
        log.close()
        # Torn tail: a partial header from a crash mid-append.
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x03")
        reloaded = ReplicationLog(db.cop, "o:1", path=path)
        try:
            assert reloaded.last_seq == 2
            seq, sealed = reloaded.records_since(1)[0]
            assert decode_record(db.cop, sealed).payload == b"b"
            # The torn bytes were truncated away; appending continues.
            assert reloaded.emit("write", 3, b"c") == 3
        finally:
            reloaded.close()

    def test_wait_replicated_tracks_connected_peers_only(self, db):
        log = ReplicationLog(db.cop, "o:1", wait_timeout=0.2)
        seq = log.emit("write", 1, b"a")

        async def drill():
            # No peers at all: trivially replicated.
            assert await log.wait_replicated(seq)
            log.mark_connected("peer:1")
            # Connected and lagging: times out, counted.
            assert not await log.wait_replicated(seq)
            assert log.counters.get("wait_timeouts") == 1
            # Disconnected peers are not waited on (they catch up later).
            log.mark_disconnected("peer:1")
            assert await log.wait_replicated(seq)
            log.mark_connected("peer:1")
            waiter = asyncio.ensure_future(log.wait_replicated(seq, 30.0))
            await asyncio.sleep(0.01)
            assert not waiter.done()
            log.record_ack("peer:1", seq)  # as the peer's stream does
            return await asyncio.wait_for(waiter, 1.0)

        assert asyncio.run(drill())
        assert log.counters.get("wait_timeouts") == 1

    def test_wait_unblocks_when_lagging_peer_disconnects(self, db):
        log = ReplicationLog(db.cop, "o:1")
        seq = log.emit("write", 1, b"a")
        log.mark_connected("peer:1")

        async def drill():
            waiter = asyncio.ensure_future(log.wait_replicated(seq, 30.0))
            await asyncio.sleep(0.01)
            assert not waiter.done()
            log.mark_disconnected("peer:1")
            return await asyncio.wait_for(waiter, 1.0)

        assert asyncio.run(drill())
        assert log.counters.get("wait_timeouts") == 0


class TestReplicationApplier:
    def _sealed(self, db, seq, kind=KIND_WRITE, page_id=1, payload=b"x"):
        return encode_record(db.cop, seq, kind, page_id, payload)

    def test_apply_in_order(self, db):
        applier = ReplicationApplier(db)
        applier.apply("o:1", 1, self._sealed(db, 1, payload=b"first"))
        applier.apply("o:1", 2, self._sealed(db, 2, payload=b"second"))
        assert applier.applied_for("o:1") == 2
        assert db.engine.retrieve(1).payload == b"second"

    def test_duplicates_apply_exactly_once(self, db):
        """The netchaos duplicate-plan guarantee: a record delivered
        twice mutates once."""
        applier = ReplicationApplier(db)
        sealed = self._sealed(db, 1, payload=b"once")
        before = db.engine.request_count
        applier.apply("o:1", 1, sealed)
        applier.apply("o:1", 1, sealed)
        assert db.engine.request_count == before + 1
        assert applier.counters.get("duplicates") == 1
        assert applier.counters.get("applied") == 1

    def test_record_past_a_gap_applies_nothing_until_resent(self, db):
        """Only ``applied + 1`` applies: a record past a gap is acked at the
        unchanged mark and kept nowhere; the sender's retransmission, in
        order, fills the gap."""
        applier = ReplicationApplier(db)
        before = db.engine.request_count
        late = self._sealed(db, 2, payload=b"late")
        assert applier.apply("o:1", 2, late) == 0
        assert applier.apply("o:1", 10 ** 9, late) == 0
        assert db.engine.request_count == before
        assert applier.counters.as_dict() == {}
        assert applier.apply("o:1", 1, self._sealed(db, 1,
                                                    payload=b"early")) == 1
        assert db.engine.retrieve(1).payload == b"early"
        assert applier.apply("o:1", 2, late) == 2
        assert db.engine.retrieve(1).payload == b"late"

    def test_origins_tracked_independently(self, db):
        applier = ReplicationApplier(db)
        applier.apply("o:1", 1, self._sealed(db, 1, page_id=1, payload=b"a"))
        applier.apply("o:2", 1, self._sealed(db, 1, page_id=2, payload=b"b"))
        assert applier.applied_for("o:1") == 1
        assert applier.applied_for("o:2") == 1

    def test_spliced_sequence_detected(self, db):
        """A host replaying record body N under envelope seq M is caught
        by the sealed inner sequence (counted as an error) and leaves the
        mark where it was, so the genuine record still applies."""
        applier = ReplicationApplier(db)
        spliced = self._sealed(db, 9, payload=b"evil")
        assert applier.apply("o:1", 1, spliced) == 0
        assert applier.counters.get("errors") == 1
        assert applier.applied_for("o:1") == 0
        applier.apply("o:1", 1, self._sealed(db, 1, payload=b"good"))
        assert applier.applied_for("o:1") == 1
        assert db.engine.retrieve(1).payload == b"good"

    def test_tampered_record_is_followed_by_the_genuine_one(self, db):
        """One flipped byte fails authentication: nothing applies, the ack
        keeps the old mark, and the origin's retransmission of the genuine
        record lands — not as a "duplicate" of the forgery."""
        applier = ReplicationApplier(db)
        genuine = self._sealed(db, 1, payload=b"genuine")
        tampered = bytearray(genuine)
        tampered[len(tampered) // 2] ^= 0x01
        before = db.engine.request_count
        assert applier.apply("o:1", 1, bytes(tampered)) == 0
        assert db.engine.request_count == before
        assert applier.apply("o:1", 1, genuine) == 1
        assert db.engine.retrieve(1).payload == b"genuine"
        assert applier.counters.as_dict() == {"errors": 1, "applied": 1}

    def test_authentic_record_whose_op_fails_still_advances(self, db):
        """The poisoned-write rule: an op the engine refuses must not wedge
        the stream behind it."""
        applier = ReplicationApplier(db)
        poisoned = self._sealed(db, 1, page_id=10 ** 6, payload=b"x")
        assert applier.apply("o:1", 1, poisoned) == 1
        assert applier.counters.get("errors") == 1
        applier.apply("o:1", 2, self._sealed(db, 2, payload=b"after"))
        assert db.engine.retrieve(1).payload == b"after"

    def test_delete_of_missing_page_burns_cover_request(self, db):
        applier = ReplicationApplier(db)
        db.engine.delete(3)
        before = db.engine.request_count
        applier.apply("o:1", 1, self._sealed(db, 1, kind=KIND_DELETE,
                                             page_id=3, payload=b""))
        # Identical trace shape: the apply still costs one request.
        assert db.engine.request_count == before + 1
        assert applier.applied_for("o:1") == 1

    def test_restored_marks_make_replays_duplicates(self, db, tmp_path):
        """The applied marks are sealed trusted state: a peer restored from
        its snapshot alone resumes every origin where the snapshot left it,
        and a replay of a record the snapshot holds is a duplicate."""
        applier = ReplicationApplier(db)
        applier.apply("o:1", 1, self._sealed(db, 1, payload=b"a"))
        applier.apply("o:2", 1, self._sealed(db, 1, payload=b"b"))
        directory = str(tmp_path / "snap")
        save_snapshot(db, directory)
        assert sorted(os.listdir(directory)) == ["frames.bin", "sealed.bin"]
        restored = load_snapshot(directory, seed=3)
        try:
            fresh = ReplicationApplier(restored)
            assert fresh.applied_for("o:1") == fresh.applied_for("o:2") == 1
            before = restored.engine.request_count
            assert fresh.apply("o:1", 1, self._sealed(db, 1, payload=b"a")) == 1
            assert fresh.counters.get("duplicates") == 1
            assert restored.engine.request_count == before
        finally:
            restored.close()

    def test_record_from_no_origin_applies_nothing(self, db):
        """An envelope naming no origin has no mark to advance: nothing
        applies, so the sealed vector never holds an empty origin."""
        applier = ReplicationApplier(db)
        before = db.engine.request_count
        assert applier.apply("", 1, self._sealed(db, 1)) == 0
        assert db.engine.request_count == before
        assert applier.counters.as_dict() == {}


class TestBacklogCompaction:
    def test_compact_drops_prefix_and_reindexes(self, db):
        log = ReplicationLog(db.cop, "o:1")
        for i in range(8):
            log.emit("write", i % 4, b"p%d" % i)
        assert log.compact(5) == 5
        assert log.compacted_seq == 5
        assert log.last_seq == 8
        assert [seq for seq, _ in log.records_since(5)] == [6, 7, 8]
        seq, sealed = log.next_record(6)
        assert seq == 7
        assert decode_record(db.cop, sealed).seq == 7
        # Sequences keep growing from the old high-water mark.
        assert log.emit("write", 1, b"after") == 9

    def test_compact_clamps_and_noops(self, db):
        log = ReplicationLog(db.cop, "o:1")
        log.emit("write", 1, b"a")
        log.emit("write", 2, b"b")
        assert log.compact(100) == 2  # clamped to last_seq
        assert log.last_seq == 2
        assert log.compact(1) == 0  # below the base: nothing to do
        assert log.counters.get("compacted") == 2

    def test_stale_consumer_is_refused_not_skipped(self, db):
        log = ReplicationLog(db.cop, "o:1")
        for i in range(6):
            log.emit("write", i % 4, b"x")
        log.compact(4)
        with pytest.raises(StorageError):
            log.records_since(3)
        with pytest.raises(StorageError):
            log.next_record(2)
        assert log.counters.get("too_stale") == 2

    def test_durable_file_trimmed_and_reloads_with_base(self, db, tmp_path):
        path = str(tmp_path / "repl-a.log")
        log = ReplicationLog(db.cop, "o:1", path=path)
        for i in range(10):
            log.emit("write", i % 4, b"p%d" % i)
        size_full = os.path.getsize(path)
        log.compact(7)
        assert os.path.getsize(path) < size_full
        log.emit("write", 0, b"tail")
        log.close()

        reloaded = ReplicationLog(db.cop, "o:1", path=path)
        try:
            assert reloaded.compacted_seq == 7
            assert reloaded.last_seq == 11
            seqs = [seq for seq, _ in reloaded.records_since(7)]
            assert seqs == [8, 9, 10, 11]
            for seq, sealed in reloaded.records_since(7):
                assert decode_record(db.cop, sealed).seq == seq
        finally:
            reloaded.close()

    def test_snapshot_then_compact_catchup_flow(self, db, tmp_path):
        """The intended lifecycle: a peer's snapshot seals its applied
        mark, the origin compacts everything the snapshot covers, and the
        peer rebuilt from the snapshot alone streams only the tail."""
        log = ReplicationLog(db.cop, "o:1")
        peer = bootstrap_replica(db, str(tmp_path / "boot"), seed=4)
        applier = ReplicationApplier(peer)
        for i in range(4):
            seq = log.emit("noop")
            applier.apply("o:1", seq, log.records_since(seq - 1)[0][1])
        directory = str(tmp_path / "snap")
        save_snapshot(peer, directory)
        peer.close()
        log.compact(applier.applied_for("o:1"))
        assert log.compacted_seq == 4
        rebuilt = load_snapshot(directory, seed=5)
        try:
            mark = ReplicationApplier(rebuilt).applied_for("o:1")
            assert mark == 4
            log.emit("noop")
            assert [seq for seq, _ in log.records_since(mark)] == [5]
        finally:
            rebuilt.close()

    def test_fully_compacted_file_reloads_at_its_base(self, db, tmp_path):
        """Compacting the whole backlog leaves a file with no records that
        still names its base: the reload continues the numbering instead of
        reissuing sequence 1 (or refusing a backlog that was never lost)."""
        path = str(tmp_path / "repl.log")
        log = ReplicationLog(db.cop, "o:1", path=path)
        for i in range(3):
            log.emit("write", i, b"p%d" % i)
        assert log.compact(3) == 3
        log.close()
        reloaded = ReplicationLog(db.cop, "o:1", path=path)
        try:
            assert (reloaded.compacted_seq, reloaded.last_seq) == (3, 3)
            assert reloaded.records_since(3) == []
            assert reloaded.emit("write", 1, b"next") == 4
        finally:
            reloaded.close()


class TestBacklogRollback:
    """The origin's own stream mark is its sealed emitted high-water mark:
    a backlog that ends below it was rolled back by the host, and a log
    over it would hand a write a sequence number a peer already holds."""

    @pytest.mark.parametrize("rollback", ["truncate", "delete"])
    def test_rolled_back_backlog_is_refused(self, db, tmp_path, rollback):
        peer = bootstrap_replica(db, str(tmp_path / "boot"), seed=4)
        applier = ReplicationApplier(peer)
        path = str(tmp_path / "repl.log")
        db.replication = log = ReplicationLog(db.cop, "o:1", path=path)
        db.update(1, b"one")
        db.update(1, b"two")
        size_at_2 = os.path.getsize(path)
        db.update(3, b"three")
        for seq, sealed in log.records_since(0):
            applier.apply("o:1", seq, sealed)
        assert applier.applied_for("o:1") == 3
        log.close()
        if rollback == "truncate":
            os.truncate(path, size_at_2)
        else:
            os.remove(path)
        with pytest.raises(RollbackError, match="below the sealed emitted "
                                                "mark 3"):
            db.replication = ReplicationLog(db.cop, "o:1", path=path)
        # No log exists to hand the next write seq 3 again: the peer holds
        # every write the origin made, under the sequence it was made at.
        assert db.cop.state.stream_mark("o:1") == 3
        assert peer.content_digest() == db.content_digest()
        # Refused before the file is opened for appending.
        assert (os.path.getsize(path) == size_at_2 if rollback == "truncate"
                else not os.path.exists(path))
        peer.close()

    def test_in_memory_log_over_restored_state_is_refused(self, db, tmp_path):
        log = ReplicationLog(db.cop, "o:1")
        log.emit("write", 1, b"a")
        directory = str(tmp_path / "snap")
        save_snapshot(db, directory)
        restored = load_snapshot(directory, seed=3)
        try:
            with pytest.raises(RollbackError, match="ends at seq 0"):
                ReplicationLog(restored.cop, "o:1")
            # Another origin's stream has no mark to fall below.
            assert ReplicationLog(restored.cop, "o:2").emit("noop") == 1
        finally:
            restored.close()
