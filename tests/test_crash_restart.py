"""Whole-process crash and restart of a network-served database.

The satellite drill for the cluster PR: a :class:`ServerThread` is
*killed* (event loop slammed shut, no drain) mid-write-back over a
:class:`~repro.storage.filedisk.FileDiskStore`-backed database, the
process "restarts" — snapshot restored next to the surviving
:class:`~repro.core.journal.FileJournal`, intent rolled forward — and
the same :class:`~repro.net.client.NetworkClient` retransmits its
acknowledged insert byte-for-byte.  The persistent reply cache answers
the duplicate with the original sealed reply; the insert is applied
exactly once across the crash.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from tests.helpers import make_db, wait_until
from repro.baselines import make_records
from repro.core.journal import FileJournal
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.errors import DegradedServiceError, ReproError
from repro.faults import (
    SITE_DISK_WRITE,
    FaultInjector,
    FaultPlan,
    FaultyDiskStore,
)
from repro.net import NetworkClient, PirServer, ServerThread
from repro.service import protocol
from repro.service.frontend import QueryFrontend, SealedReplyCache
from repro.storage.disk import DiskStore
from repro.storage.filedisk import FileDiskStore

NUM_RECORDS = 30
SEED = 77
RECORDS = make_records(NUM_RECORDS, 16)


def _try_update(client, page_id, value):
    from repro.errors import DegradedServiceError

    try:
        client.update(page_id, value)
        return True
    except DegradedServiceError:
        return False


def file_disk_factory(path):
    def build(num_locations, frame_size, timing, clock, trace):
        return FileDiskStore(path, num_locations, frame_size,
                             timing=timing, clock=clock, trace=trace)

    return build


class TestCrashRestartOverNetwork:
    def test_kill_mid_write_back_restart_exactly_once(self, tmp_path):
        journal_path = str(tmp_path / "intent.jnl")
        cache_path = str(tmp_path / "replies.cache")
        snap_dir = str(tmp_path / "snap")

        db = make_db(
            num_records=NUM_RECORDS, cache_capacity=6, seed=SEED,
            journal=FileJournal(journal_path),
            disk_factory=file_disk_factory(str(tmp_path / "pages.bin")),
        )
        frontend = QueryFrontend(
            db, reply_cache=SealedReplyCache(path=cache_path))
        thread = ServerThread(PirServer(frontend)).start()
        port = thread.port
        client = NetworkClient(thread.host, port,
                               timeout=5.0, read_timeout=1.0)

        # An insert, acknowledged over the wire.  Driven through
        # _transact so the identical sealed bytes can be retransmitted
        # after the restart — exactly what a real client's transparent
        # retransmission sends.
        sealed = client._suite.encrypt_page(
            protocol.encode_client_message(protocol.Insert(b"ack me once"))
        )
        request_id = client._next_request_id
        client._next_request_id += 1
        first_reply = client._transact(request_id, sealed)
        decoded = protocol.decode_client_message(
            client._suite.decrypt_page(first_reply)
        )
        assert isinstance(decoded, protocol.Result)
        new_id = decoded.page_id
        # Persist-before-ack: the reply hit the cache file before the
        # client saw it.
        assert os.path.getsize(cache_path) > 0

        # The snapshot the "operator" took before the outage.
        save_snapshot(db, snap_dir)

        # Power failure mid-write-back on the next request: the intent
        # record is durable in the file journal, half the frames are
        # not, and the server process is killed without ceremony.
        k = db.params.block_size
        injector = FaultInjector(0, [FaultPlan(SITE_DISK_WRITE, "crash",
                                               after=k // 2)])
        db.engine.disk = FaultyDiskStore(db.disk, injector)
        with pytest.raises(ReproError):
            client.update(5, b"torn update")
        thread.kill()
        assert db.engine.journal_pending

        # -- restart: same port, same journal, same reply-cache file ----
        restored = load_snapshot(snap_dir, seed=SEED + 1,
                                 journal=FileJournal(journal_path))
        assert restored.engine.journal_pending
        report = restored.recover()
        # The intent was sealed before any frame was written, so the
        # torn update rolls *forward*...
        assert report.action == "replayed"
        assert restored.query(5) == b"torn update"
        # ...and the pre-crash acknowledged insert is intact.
        assert restored.query(new_id) == b"ack me once"

        frontend2 = QueryFrontend(
            restored, reply_cache=SealedReplyCache(path=cache_path))
        server2 = PirServer(frontend2, port=port, adopt_sessions=True)
        with ServerThread(server2):
            applied_before = restored.engine.request_count
            # The client never learned about the restart: its socket is
            # dead, so _transact reconnects, RESUMEs (the new process
            # adopts the session — the suite derives from the id), and
            # retransmits the identical bytes.
            second_reply = client._transact(request_id, sealed)
            assert second_reply == first_reply  # the original sealed ACK
            assert restored.engine.request_count == applied_before
            assert frontend2.counters.get("requests.duplicate") == 1
            assert frontend2.counters.get("sessions.adopted") == 1
            assert client.counters.get("reconnects") == 1
            assert client.counters.get("retransmits") == 1
            # Normal service continues on the resumed session.
            assert client.query(new_id) == b"ack me once"
            assert client.query(3) == RECORDS[3]
            client.close()
        restored.consistency_check()

    def test_unacked_request_at_crash_may_be_reissued(self, tmp_path):
        """A request whose journal write never happened simply never
        happened: after restart the client re-issues it as a *new*
        request and it applies cleanly (no duplicate, no loss)."""
        journal_path = str(tmp_path / "intent.jnl")
        snap_dir = str(tmp_path / "snap")

        db = make_db(num_records=NUM_RECORDS, cache_capacity=6, seed=SEED,
                     journal=FileJournal(journal_path))
        frontend = QueryFrontend(db)
        thread = ServerThread(PirServer(frontend)).start()
        port = thread.port
        client = NetworkClient(thread.host, port,
                               timeout=5.0, read_timeout=1.0)
        assert client.query(1) == RECORDS[1]
        save_snapshot(db, snap_dir)

        thread.kill()  # dies before the update is ever sent

        restored = load_snapshot(snap_dir, seed=SEED + 2,
                                 journal=FileJournal(journal_path))
        assert restored.recover().action == "clean"
        frontend2 = QueryFrontend(restored)
        server2 = PirServer(frontend2, port=port, adopt_sessions=True)
        with ServerThread(server2):
            client.update(2, b"after restart")
            assert client.query(2) == b"after restart"
            assert client.counters.get("reconnects") == 1
            client.close()


class TestReplicationCrashDrills:
    """The cross-replica drill (DESIGN.md §13): kill a backend with
    writes in flight, the surviving replica serves every acknowledged
    write, and the restarted backend converges back to identical
    trusted content."""

    def test_kill_backend_with_writes_in_flight_no_stale_reads(
            self, tmp_path):
        import threading

        from repro.cluster import (
            ClusterRouter,
            RouterThread,
            build_cluster,
            connect_replication,
        )

        durable = tmp_path / "repl"
        durable.mkdir()
        handles = build_cluster(RECORDS, 2, str(tmp_path / "boot"),
                                page_capacity=16, target_c=2.0)
        try:
            for handle in handles:
                handle.start()
            connect_replication(handles, durable_dir=str(durable))
            router = ClusterRouter(
                [handle.spec for handle in handles],
                probe_interval=0.05, probe_timeout=1.0, eject_after=2,
                readmit_after=2, connect_timeout=1.0, backend_timeout=5.0,
            )
            with RouterThread(router) as thread:
                with NetworkClient(thread.host, thread.port,
                                   timeout=10.0) as client:
                    assert client.query(0) == RECORDS[0]
                    pinned = router._pins[client.session_id]
                    victim = next(h for h in handles
                                  if h.spec.address == pinned)
                    survivor = next(h for h in handles
                                    if h.spec.address != pinned)

                    # A stream of writes with the kill racing the
                    # middle of it: the router fails the session over
                    # and retransmits.  Every update either succeeds
                    # with read-your-writes intact or is refused
                    # *retryably* (the write exists only on the dead
                    # member — the cluster sheds rather than serve
                    # stale state); a stale read is never acceptable.
                    killer = threading.Thread(target=victim.kill)
                    for page_id in range(10):
                        value = b"inflight-%d" % page_id
                        try:
                            client.update(page_id, value)
                        except DegradedServiceError:
                            # Acknowledged-but-unreplicated window:
                            # only the restarted member can replay the
                            # missing record; bring it back and retry.
                            killer.join(timeout=5.0)
                            victim.restart()
                            assert wait_until(
                                lambda v=value, p=page_id:
                                _try_update(client, p, v))
                        assert client.query(page_id) == value
                        if page_id == 3:
                            killer.start()
                    killer.join(timeout=5.0)
                    for page_id in range(10):
                        assert (client.query(page_id)
                                == b"inflight-%d" % page_id)

                    # The victim restarts (unless the shed path already
                    # brought it back) and replays the tail it missed
                    # from the survivor's (durable) backlog.
                    if victim.thread is None:
                        victim.restart()
                    assert wait_until(
                        lambda: victim.repl_applier.applied_for(
                            survivor.spec.address)
                        >= survivor.repl_log.last_seq)
            # Quiesce, then check convergence: identical trusted
            # content on both members despite divergent physical
            # layouts, with the backlog durable on disk.
            for handle in handles:
                handle.kill()
            for page_id in range(10):
                expected = b"inflight-%d" % page_id
                assert victim.db.query(page_id) == expected
                assert survivor.db.query(page_id) == expected
            assert (victim.db.content_digest()
                    == survivor.db.content_digest())
            assert os.path.getsize(durable / "repl-0.log") > 0
            assert os.path.getsize(durable / "repl-1.log") > 0
        finally:
            for handle in handles:
                handle.kill()
            for handle in handles:
                handle.db.close()

    @pytest.mark.parametrize("member", ["restart", "bootstrap"])
    def test_snapshot_alone_replays_backlog(self, tmp_path, member):
        """A member resumes replication from its sealed state alone, past
        the origin's compaction.  ``restart``: a replica checkpointed by
        ``save_snapshot`` (three files, no sidecar) dies, the origin
        compacts through the checkpointed mark and keeps writing, and the
        restored replica replays exactly the missed tail of the durable
        backlog.  ``bootstrap``: a fresh replica bootstrapped after the
        compaction inherits the origin's emitted mark and streams only what
        follows it."""
        from repro.cluster.replication import (
            ReplicationApplier,
            ReplicationLog,
        )
        from repro.core.snapshot import bootstrap_replica

        log_path = str(tmp_path / "origin.log")
        snap_dir = str(tmp_path / "replica-snap")
        origin = make_db(num_records=NUM_RECORDS, seed=SEED)
        if member == "restart":
            replica = bootstrap_replica(origin, str(tmp_path / "boot"),
                                        seed=SEED + 1)
        log = ReplicationLog(origin.cop, "origin:1", path=log_path)
        origin.replication = log

        # Phase 1: replicated normally, then checkpointed.
        origin.update(1, b"pre-checkpoint")
        origin.query(4)
        if member == "restart":
            applier = ReplicationApplier(replica)
            for seq, sealed in log.records_since(0):
                applier.apply("origin:1", seq, sealed)
            save_snapshot(replica, snap_dir)
            assert sorted(os.listdir(snap_dir)) == ["frames.bin", "sealed.bin"]
            replica.close()
        checkpointed = log.last_seq
        assert log.compact(checkpointed) == checkpointed
        if member == "bootstrap":
            member_db = bootstrap_replica(origin, str(tmp_path / "late"),
                                          seed=SEED + 2)

        # Phase 2: the origin keeps writing while the member is away.
        origin.update(2, b"while down")
        origin.delete(3)

        # Phase 3: the snapshot alone, then the durable backlog.
        if member == "restart":
            member_db = load_snapshot(snap_dir, seed=SEED + 2)
        fresh = ReplicationApplier(member_db)
        reloaded = ReplicationLog(origin.cop, "origin:1", path=log_path)
        assert (reloaded.compacted_seq, reloaded.last_seq) == (
            checkpointed, log.last_seq)
        replayed = []
        for seq, sealed in reloaded.records_since(
                fresh.applied_for("origin:1")):
            replayed.append(fresh.apply("origin:1", seq, sealed))
        assert replayed == [checkpointed + 1, checkpointed + 2]
        assert fresh.counters.get("duplicates") == 0
        assert member_db.query(1) == b"pre-checkpoint"
        assert member_db.query(2) == b"while down"
        with pytest.raises(ReproError):
            member_db.query(3)
        assert member_db.content_digest() == origin.content_digest()
        reloaded.close()
        log.close()
        member_db.close()
        origin.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open files through Linux's procfs")
    def test_a_closed_durable_mesh_leaves_no_backlog_open(self, tmp_path):
        """Each member's ``repl-<i>.log`` stays open across a kill and a
        restart (the log outlives them) and is closed by its database's
        ``close()``."""
        from repro.cluster import build_cluster, connect_replication

        durable = tmp_path / "repl"
        durable.mkdir()

        def open_backlogs():
            names = []
            for fd in os.listdir("/proc/self/fd"):
                with contextlib.suppress(OSError):
                    target = os.readlink(f"/proc/self/fd/{fd}")
                    if os.path.dirname(target) == str(durable):
                        names.append(os.path.basename(target))
            return sorted(names)

        handles = build_cluster(RECORDS, 2, str(tmp_path / "boot"),
                                page_capacity=16, target_c=2.0)
        try:
            for handle in handles:
                handle.start()
            connect_replication(handles, durable_dir=str(durable))
            with NetworkClient(handles[0].host, handles[0].port,
                               timeout=10.0) as client:
                client.update(1, b"durable")
            handles[0].kill()
            handles[0].restart()
            assert open_backlogs() == ["repl-0.log", "repl-1.log"]
        finally:
            for handle in handles:
                handle.kill()
            for handle in handles:
                handle.db.close()
        assert open_backlogs() == []


class TestKillIsAbrupt:
    def test_kill_does_not_drain(self):
        """kill() must not run the orderly drain path: in-flight state
        (sessions, reply cache) stays as the crash left it."""
        db = make_db(num_records=16)
        try:
            frontend = QueryFrontend(db)
            thread = ServerThread(PirServer(frontend)).start()
            client = NetworkClient(thread.host, thread.port, timeout=5.0)
            client.query(1)
            assert frontend.session_count == 1
            thread.kill()
            # No drain: the session was never closed.
            assert frontend.session_count == 1
            client._teardown()
        finally:
            db.close()

    def test_kill_twice_is_idempotent(self):
        db = make_db(num_records=16)
        try:
            frontend = QueryFrontend(db)
            thread = ServerThread(PirServer(frontend)).start()
            thread.kill()
            thread.kill()
        finally:
            db.close()
