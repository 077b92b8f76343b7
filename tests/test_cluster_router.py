"""Cluster tier tests: membership policy, routed serving, failover drills.

The integration classes stand up a real router over real backend
servers (loopback TCP end to end) and drive them through the failure
modes DESIGN.md §13 promises to survive: backend death mid-session,
lost backend replies, rolling restarts, and full-cluster outage.
"""

from __future__ import annotations

import contextlib
import socket
import struct
import threading

import pytest

from tests.helpers import make_db, wait_until
from repro.baselines import make_records
import repro.cluster.router as router_module
from repro.cluster import (
    BackendHandle,
    BackendSpec,
    ClusterMembership,
    ClusterRouter,
    RouterThread,
    build_cluster,
    connect_replication,
)
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    DegradedServiceError,
    TransientChannelError,
)
from repro.faults import ChaosProxy, ChaosProxyThread, FaultInjector, \
    drop_replies
from repro.hardware.specs import IBM_4764
from repro.net import NetworkClient
from repro.obs import MetricsRegistry
from repro.service.frontend import QueryFrontend

RECORDS = make_records(40, 16)


# ---------------------------------------------------------------------------
# Membership policy (pure, no sockets)
# ---------------------------------------------------------------------------


class TestBackendSpec:
    def test_parse(self):
        spec = BackendSpec.parse("10.0.0.1:7000")
        assert (spec.host, spec.port) == ("10.0.0.1", 7000)
        assert spec.address == "10.0.0.1:7000"

    @pytest.mark.parametrize("text", ["nohost", ":123", "host:", "host:abc"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ConfigurationError):
            BackendSpec.parse(text)


class TestMembershipPolicy:
    def specs(self, n=3):
        return [BackendSpec("127.0.0.1", 7000 + i) for i in range(n)]

    def test_needs_backends_and_unique_addresses(self):
        with pytest.raises(ConfigurationError):
            ClusterMembership([])
        with pytest.raises(ConfigurationError):
            ClusterMembership(self.specs(2) + [self.specs(1)[0]])

    def test_eject_needs_consecutive_failures(self):
        membership = ClusterMembership(self.specs(), eject_after=3)
        address = self.specs()[0].address
        membership.record_probe_failure(address)
        membership.record_probe_failure(address)
        membership.record_probe_ok(address, False, 0)  # streak broken
        membership.record_probe_failure(address)
        membership.record_probe_failure(address)
        assert membership.member(address).up
        membership.record_probe_failure(address)
        assert not membership.member(address).up
        assert membership.up_count == 2

    def test_readmit_needs_consecutive_successes(self):
        membership = ClusterMembership(self.specs(), eject_after=1,
                                       readmit_after=2)
        address = self.specs()[0].address
        membership.record_probe_failure(address)
        assert not membership.member(address).up
        membership.record_probe_ok(address, False, 0)
        assert not membership.member(address).up  # one success is a flap
        membership.record_probe_ok(address, False, 0)
        assert membership.member(address).up
        assert membership.at_full_strength

    def test_mark_down_is_immediate(self):
        membership = ClusterMembership(self.specs(), eject_after=5)
        address = self.specs()[1].address
        membership.mark_down(address)
        assert not membership.member(address).up

    def test_pick_prefers_least_loaded_and_skips_unroutable(self):
        membership = ClusterMembership(self.specs())
        a, b, c = [spec.address for spec in self.specs()]
        membership.pin(a)
        membership.pin(a)
        membership.pin(b)
        assert membership.pick().address == c
        membership.mark_down(c)
        assert membership.pick().address == b
        membership.record_probe_ok(b, True, 1)  # draining: healthy, no picks
        assert membership.pick().address == a
        assert not membership.at_full_strength

    def test_pick_honours_exclusions(self):
        membership = ClusterMembership(self.specs(2))
        a, b = [spec.address for spec in self.specs(2)]
        assert membership.pick(exclude={a}).address == b
        assert membership.pick(exclude={a, b}) is None

    def test_gauges_track_strength(self):
        registry = MetricsRegistry()
        membership = ClusterMembership(self.specs(), metrics=registry)
        membership.mark_down(self.specs()[0].address)
        gauges = registry.snapshot()["gauges"]
        assert gauges["cluster.members.total"] == 3
        assert gauges["cluster.members.up"] == 2


# ---------------------------------------------------------------------------
# Routed serving over real sockets
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def cluster(tmp_path, n=2, registry=None, replicated=False):
    handles = build_cluster(RECORDS, n, str(tmp_path), metrics=registry,
                            page_capacity=16, target_c=2.0)
    try:
        for handle in handles:
            handle.start()
        if replicated:
            connect_replication(handles)
        router = ClusterRouter(
            [handle.spec for handle in handles],
            probe_interval=0.05, probe_timeout=1.0, eject_after=2,
            readmit_after=2, connect_timeout=1.0, backend_timeout=5.0,
            metrics=registry,
        )
        with RouterThread(router) as thread:
            yield handles, router, thread
    finally:
        for handle in handles:
            handle.kill()
        for handle in handles:
            handle.db.close()


class TestBuildCluster:
    def test_replicas_keep_the_primarys_spec_and_trace_switch(self, tmp_path):
        """A snapshot stores neither: restored members used to get the
        zero-cost spec (a clock that never moves) and a live trace."""
        handles = build_cluster(RECORDS, 3, str(tmp_path), page_capacity=16,
                                target_c=2.0, spec=IBM_4764,
                                trace_enabled=False)
        try:
            costs = []
            for handle in handles:
                db = handle.db
                assert db.cop.spec is IBM_4764
                assert not db.trace.enabled
                before = db.clock.now
                assert db.query(3) == RECORDS[3]
                costs.append(db.clock.now - before)
            eq8 = handles[0].db.expected_query_time()
            assert eq8 > 0.0
            assert costs == [pytest.approx(eq8, rel=1e-9)] * 3
        finally:
            for handle in handles:
                handle.db.close()

    def test_replicas_carry_the_primarys_store_stack(self, tmp_path):
        """A failover target is the configured instance: same freshness
        layer and hot tier on every member, not a bare store."""
        handles = build_cluster(RECORDS, 3, str(tmp_path), page_capacity=16,
                                rollback_protection=True, hot_tier_frames=16)
        try:
            for handle in handles:
                chain, store = [], handle.db.disk
                while store is not None:
                    chain.append(type(store).__name__)
                    store = getattr(store, "inner", None)
                assert chain == ["AuthenticatedDisk", "TieredDiskStore",
                                 "DiskStore"]
            replica = handles[2].db
            stale = replica.disk.peek(0)
            for _ in range(replica.params.scan_period):
                replica.touch()
            replica.disk.poke(0, stale)
            with pytest.raises(AuthenticationError, match="stale"):
                for _ in range(replica.params.scan_period):
                    replica.touch()
        finally:
            for handle in handles:
                handle.db.close()

    def test_per_member_objects_are_refused_by_name(self, tmp_path):
        from repro.core.journal import MemoryJournal

        with pytest.raises(ConfigurationError, match="journal"):
            build_cluster(RECORDS, 2, str(tmp_path), page_capacity=16,
                          journal=MemoryJournal())

    def test_members_share_one_reply_cache_and_draw_distinct_ids(
            self, tmp_path):
        """Every member dedupes from the same cache (a failover's
        retransmission finds the original reply), listens on loopback,
        and salts its id stream, so same-seed members never issue the
        same session id."""
        handles = build_cluster(RECORDS, 3, str(tmp_path), page_capacity=16,
                                target_c=2.0)
        try:
            caches = {id(handle.frontend._reply_cache) for handle in handles}
            assert len(caches) == 1
            assert {handle.host for handle in handles} == {"127.0.0.1"}
            first_ids = {handle.frontend.open_session() for handle in handles}
            assert len(first_ids) == 3
        finally:
            for handle in handles:
                handle.db.close()


class TestBackendRestart:
    def test_a_restart_rebinds_the_port_the_first_start_bound(self):
        """A member starts on an ephemeral port and comes back on that
        same port, so the router's address for it stays good."""
        db = make_db(num_records=16)
        handle = BackendHandle(db, QueryFrontend(db))
        try:
            handle.start()
            port = handle.port
            assert port != 0
            with NetworkClient(handle.host, port, timeout=5.0) as client:
                assert client.query(1) == db.query(1)
            handle.kill()
            handle.restart()
            assert handle.port == port
            with NetworkClient(handle.host, port, timeout=5.0) as client:
                assert client.query(2) == db.query(2)
        finally:
            handle.kill()
            db.close()


class TestRoutedServing:
    def test_sessions_balance_and_serve(self, tmp_path):
        with cluster(tmp_path, n=2) as (handles, router, thread):
            clients = [NetworkClient(thread.host, thread.port, timeout=5.0)
                       for _ in range(4)]
            try:
                for index, client in enumerate(clients):
                    assert client.query(index) == RECORDS[index]
                per_member = [state.pinned
                              for state in router.membership.members]
                assert sorted(per_member) == [2, 2]
            finally:
                for client in clients:
                    client.close()


class TestRouterStop:
    def test_stop_cancelling_a_closing_connection_is_clean(
            self, tmp_path, monkeypatch, caplog):
        """The router's mirror of TestGracefulDrain's test of the same
        name (tests/test_net_server.py): a handler already past BYE,
        waiting for its transport to close, when stop() cancels it, must
        finish and deregister — not end cancelled, which asyncio's stream
        callback logs as "Exception in callback"."""
        import asyncio
        import logging
        import threading

        closing = threading.Event()

        async def slow_wait_closed(self):
            closing.set()
            await asyncio.sleep(30.0)

        with caplog.at_level(logging.ERROR, logger="asyncio"), \
                cluster(tmp_path, n=2) as (handles, router, thread):
            monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                                slow_wait_closed)
            with NetworkClient(thread.host, thread.port,
                               timeout=5.0) as client:
                assert client.query(3) == RECORDS[3]
            assert closing.wait(timeout=30)
            thread.stop()
            assert router._conn_tasks == set()
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []


class TestHealthGating:
    def test_dead_member_ejected_then_readmitted(self, tmp_path):
        with cluster(tmp_path, n=2) as (handles, router, thread):
            victim = handles[0]
            address = victim.spec.address
            victim.kill()
            assert wait_until(
                lambda: not router.membership.member(address).up)
            assert router.membership.up_count == 1
            victim.restart()
            assert wait_until(lambda: router.membership.at_full_strength)

    def test_new_sessions_avoid_ejected_member(self, tmp_path):
        with cluster(tmp_path, n=2) as (handles, router, thread):
            victim = handles[0]
            victim.kill()
            assert wait_until(
                lambda: not router.membership.member(
                    victim.spec.address).up)
            with NetworkClient(thread.host, thread.port,
                               timeout=5.0) as client:
                assert client.query(2) == RECORDS[2]
                assert (router._pins[client.session_id]
                        == handles[1].spec.address)


class TestFailover:
    def test_mid_session_backend_death(self, tmp_path):
        """Kill the pinned backend under an open session: the next query
        fails over to the replica (which adopts the session) without the
        client noticing."""
        with cluster(tmp_path, n=2) as (handles, router, thread):
            with NetworkClient(thread.host, thread.port,
                               timeout=5.0) as client:
                assert client.query(3) == RECORDS[3]
                pinned = router._pins[client.session_id]
                victim = next(h for h in handles
                              if h.spec.address == pinned)
                survivor = next(h for h in handles
                                if h.spec.address != pinned)
                victim.kill()
                assert client.query(4) == RECORDS[4]
                assert client.query(5) == RECORDS[5]
                # The router, not the client, absorbed the failure.
                assert client.counters.get("reconnects") == 0
                assert router.counters.get("failovers") >= 1
                assert (router._pins[client.session_id]
                        == survivor.spec.address)
                assert survivor.frontend.counters.get("sessions.adopted") == 1

    def test_exactly_once_when_reply_lost_after_apply(self, tmp_path):
        """The acknowledged-but-unreplied window: backend A applies an
        update and caches the reply, but the reply never reaches the
        router.  Failover retransmits to B, whose view of the shared
        reply cache answers without re-applying — and B already holds
        the write via the sealed replication stream, so the failed-over
        session reads its own write from the survivor."""
        handles = build_cluster(RECORDS, 2, str(tmp_path),
                                page_capacity=16, target_c=2.0)
        try:
            for handle in handles:
                handle.start()
            # Interpose a chaos proxy between the router and backend 0:
            # the router believes the proxy IS the member (so the proxy
            # address is also backend 0's replication origin identity).
            proxy = ChaosProxy(handles[0].host, handles[0].port,
                               FaultInjector(seed=13))
            with ChaosProxyThread(proxy) as chaos:
                connect_replication(
                    handles,
                    origins=[f"{chaos.host}:{chaos.port}",
                             handles[1].spec.address],
                )
                specs = [BackendSpec(chaos.host, chaos.port),
                         handles[1].spec]
                router = ClusterRouter(
                    specs, probe_interval=30.0, probe_timeout=1.0,
                    connect_timeout=1.0, backend_timeout=1.0,
                )
                with RouterThread(router) as thread:
                    # Equal load: the first session pins to the first
                    # configured member — the proxied one.
                    with NetworkClient(thread.host, thread.port,
                                       timeout=5.0) as client:
                        assert client.query(1) == RECORDS[1]
                        assert (router._pins[client.session_id]
                                == specs[0].address)
                        engines = [h.db.engine for h in handles]
                        before = sum(e.request_count for e in engines)
                        # Arm the drop now, after the warmup frames are
                        # through: the next server->client frame through
                        # the proxy is the update's acknowledgement.
                        proxy.injector = FaultInjector(seed=13, plans=[
                            drop_replies(times=1),
                        ])
                        client.update(6, b"landed once")
                        after = sum(e.request_count for e in engines)
                        # Exactly one application *per member* despite
                        # the failover retransmission: the origin served
                        # the update, its peer applied the replicated
                        # record, and the retransmit was answered from
                        # the shared reply cache without re-executing.
                        assert after == before + 2
                        assert (handles[1].frontend.counters
                                .get("requests.duplicate") == 1)
                        assert router.counters.get("failovers") == 1
                        assert router.counters.get("retransmits") == 1
                        # The failed-over session keeps serving reads.
                        assert client.query(1) == RECORDS[1]
                # Quiesce (no applier worker mutating an engine), then
                # check the write landed on BOTH members: the shared
                # reply cache gave single application and a preserved
                # ACK, and the sealed replication stream gave
                # cross-replica write visibility (DESIGN.md §13).
                for handle in handles:
                    handle.kill()
                assert handles[0].db.query(6) == b"landed once"
                assert handles[1].db.query(6) == b"landed once"
        finally:
            for handle in handles:
                handle.kill()
            for handle in handles:
                handle.db.close()

    def test_whole_cluster_down_is_retryable_refusal(self, tmp_path):
        with cluster(tmp_path, n=2) as (handles, router, thread):
            with NetworkClient(thread.host, thread.port,
                               timeout=5.0) as client:
                client.query(1)
                for handle in handles:
                    handle.kill()
                with pytest.raises(DegradedServiceError) as excinfo:
                    client.query(2)
                assert excinfo.value.retry_after > 0
                # Recovery: both members return, service resumes on the
                # same session.
                for handle in handles:
                    handle.restart()
                assert wait_until(
                    lambda: router.membership.at_full_strength)
                assert client.query(2) == RECORDS[2]


class TestRollingRestart:
    def test_drain_one_at_a_time_zero_errors(self, tmp_path):
        """Roll every backend while a session keeps querying: drained
        members shed, the router migrates the session, and the client
        never sees an error."""
        with cluster(tmp_path, n=2) as (handles, router, thread):
            with NetworkClient(thread.host, thread.port,
                               timeout=5.0) as client:
                assert client.query(0) == RECORDS[0]
                for handle in handles:
                    handle.drain()
                    for page_id in range(1, 5):
                        assert client.query(page_id) == RECORDS[page_id]
                    handle.restart()
                    assert wait_until(
                        lambda: router.membership.at_full_strength)
                # The whole roll was invisible: no client-side recovery.
                assert client.counters.get("reconnects") == 0


class TestClientReconnectThroughRouter:
    def test_client_redial_resumes_via_router(self, tmp_path):
        """A client that loses its connection *to the router* re-dials
        and RESUMEs; the router routes the resume to the pinned member
        (or adopts elsewhere)."""
        with cluster(tmp_path, n=2) as (handles, router, thread):
            client = NetworkClient(thread.host, thread.port, timeout=5.0)
            try:
                assert client.query(7) == RECORDS[7]
                # Simulate a NAT reset between client and router.
                client._teardown()
                assert client.query(8) == RECORDS[8]
                assert client.counters.get("reconnects") == 1
                assert client.counters.get("retransmits") == 0
            finally:
                with contextlib.suppress(TransientChannelError):
                    client.close()


class TestSessionIdCollision:
    """Session ids must be unique cluster-wide.

    They derive from the database's seeded RNG tree, and cluster members
    deliberately share a seed (identical data) — so unsalted frontends
    issue the *same* id sequence.  The ``session_salt`` diversifies the
    stream; the router's collision guard is the backstop when an
    operator deploys without one.
    """

    def test_same_seed_frontends_collide_without_salt(self):
        db_a, db_b = make_db(num_records=16), make_db(num_records=16)
        try:
            fe_a = QueryFrontend(db_a)
            fe_b = QueryFrontend(db_b)
            first_a = fe_a.open_session()
            assert fe_b.open_session() == first_a  # the hazard, verbatim
            salted = QueryFrontend(db_b, session_salt="member-1")
            assert salted.open_session() != first_a
        finally:
            db_a.close()
            db_b.close()

    def test_router_guard_sheds_colliding_welcome(self):
        """Two unsalted same-seed members behind the router: the second
        client's HELLO lands on the other member, which issues the same
        id.  The router must shed it (never share an id — it is the key
        input), close the duplicate, and serve the retried HELLO."""
        dbs = [make_db(num_records=16), make_db(num_records=16)]
        handles = [
            BackendHandle(db, QueryFrontend(db))
            for db in dbs
        ]
        try:
            for handle in handles:
                handle.start()
            router = ClusterRouter(
                [handle.spec for handle in handles],
                probe_interval=0.05, probe_timeout=1.0,
                connect_timeout=1.0, backend_timeout=5.0,
            )
            with RouterThread(router) as thread:
                first = NetworkClient(thread.host, thread.port, timeout=5.0)
                assert first.query(1) is not None
                with pytest.raises(DegradedServiceError):
                    NetworkClient(thread.host, thread.port, timeout=5.0)
                assert router.counters.get("session_collisions") == 1
                # The duplicate session was torn down on its member, not
                # leaked with a key another client is using.
                assert wait_until(lambda: sum(
                    handle.frontend.session_count for handle in handles
                ) == 1)
                # A retried HELLO draws that member's next id and serves.
                second = NetworkClient(thread.host, thread.port, timeout=5.0)
                assert second.session_id != first.session_id
                assert second.query(2) is not None
                first.close()
                second.close()
        finally:
            for handle in handles:
                handle.kill()
            for db in dbs:
                db.close()


class GarbageMember:
    """A raw-socket cluster member that answers every read with a frame no
    envelope decodes (tag 0xee), and counts the connections it accepted
    and the ones its peer closed."""

    GARBAGE = struct.pack(">I", 3) + b"\xee\xee\xee"

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.spec = BackendSpec("127.0.0.1",
                                self._listener.getsockname()[1])
        self.accepted = 0
        self.closed_by_peer = 0
        self._lock = threading.Lock()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self.accepted += 1
            threading.Thread(target=self._answer, args=(conn,),
                             daemon=True).start()

    def _answer(self, conn):
        with conn:
            conn.settimeout(30.0)
            try:
                while conn.recv(65536):
                    conn.sendall(self.GARBAGE)
            except OSError:
                return
            with self._lock:
                self.closed_by_peer += 1

    def close(self):
        self._listener.close()


class TestMalformedMember:
    def test_garbage_handshake_releases_slot_and_connection(self):
        """A member that answers HELLO with a garbage frame: the router
        releases the load slot it reserved, closes the connection, marks
        the member down and serves the client from the healthy member."""
        db = make_db(num_records=16)
        healthy = BackendHandle(db, QueryFrontend(db))
        garbage = GarbageMember()
        try:
            healthy.start()
            # Garbage first: it wins the least-loaded tie.  Probes are slow
            # and need three failures, so only the HELLO can eject it.
            router = ClusterRouter(
                [garbage.spec, healthy.spec], probe_interval=30.0,
                probe_timeout=1.0, connect_timeout=1.0, backend_timeout=5.0,
            )
            with RouterThread(router) as thread:
                with NetworkClient(thread.host, thread.port,
                                   timeout=5.0) as client:
                    assert client.query(3) == make_records(16, 16)[3]
                    assert (router._pins[client.session_id]
                            == healthy.spec.address)
                    member = router.membership.member(garbage.spec.address)
                    assert member.pinned == 0
                    assert not member.up
                assert wait_until(lambda: sum(
                    state.pinned for state in router.membership.members
                ) == 0)
                # Every connection to the garbage member was closed by the
                # router: the HELLO's and the probe's.
                assert wait_until(
                    lambda: garbage.closed_by_peer == garbage.accepted >= 2)
        finally:
            garbage.close()
            healthy.kill()
            db.close()


class TestBackendAdoption:
    def test_plain_server_refuses_unknown_resume(self):
        """Without adopt_sessions a RESUME for an unknown id must be
        refused — adoption is a cluster-only trust posture."""
        import socket

        from repro.net import PirServer, ServerThread
        from repro.net.framing import (
            NetRefused,
            Resume,
            decode_net_message,
            encode_net_message,
            read_frame_sock,
            write_frame_sock,
        )

        db = make_db(num_records=16)
        try:
            frontend = QueryFrontend(db)
            with ServerThread(PirServer(frontend)) as handle:
                sock = socket.create_connection(
                    (handle.host, handle.port), timeout=5.0)
                try:
                    write_frame_sock(
                        sock, encode_net_message(Resume(0xDEAD)))
                    answer = decode_net_message(read_frame_sock(sock))
                    assert isinstance(answer, NetRefused)
                    assert "unknown session" in answer.refusal.reason
                finally:
                    sock.close()
            assert frontend.session_count == 0
        finally:
            db.close()

    def test_adoption_rejects_session_zero(self):
        db = make_db(num_records=16)
        try:
            frontend = QueryFrontend(db)
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError):
                frontend.adopt_session(0)
        finally:
            db.close()


class TestSealedReplication:
    """The cross-replica write-divergence fix, end to end (DESIGN.md
    §13): sealed write replication between members, the router's
    read-your-writes failover gate, and restart catch-up."""

    def test_failover_reads_own_write_then_restart_converges(self, tmp_path):
        """Kill the pinned member right after an acknowledged write: the
        failed-over session must read that write from the survivor, and
        the restarted member must replay the tail it missed until both
        engines hold identical trusted content."""
        with cluster(tmp_path, n=2, replicated=True) as (
                handles, router, thread):
            with NetworkClient(thread.host, thread.port,
                               timeout=5.0) as client:
                assert client.query(3) == RECORDS[3]
                client.update(6, b"replicated")
                pinned = router._pins[client.session_id]
                victim = next(h for h in handles
                              if h.spec.address == pinned)
                survivor = next(h for h in handles
                                if h.spec.address != pinned)
                victim.kill()
                # Read-your-writes across failover: the survivor applied
                # the sealed record before the update was acknowledged
                # (semi-sync), the router's gate verified it, and the
                # session sees its own write.
                assert client.query(6) == b"replicated"
                assert router.counters.get("ryw.checks") >= 1
                assert router.counters.get("ryw.rejected") == 0
                # More writes land while the victim is down...
                client.update(7, b"while-down")
                # ...then it returns and replays the missed tail from
                # the survivor's backlog.
                victim.restart()
                assert wait_until(
                    lambda: victim.repl_applier.applied_for(
                        survivor.spec.address)
                    >= survivor.repl_log.last_seq)
            # Quiesce both members (no applier worker mutating an
            # engine), then compare: the replicas converge on identical
            # trusted content even though their physical layouts (and
            # RNG lineages) differ.
            for handle in handles:
                handle.kill()
            assert victim.db.query(6) == b"replicated"
            assert victim.db.query(7) == b"while-down"
            assert (victim.db.content_digest()
                    == survivor.db.content_digest())

    def test_failover_refuses_stale_replica(self, tmp_path, monkeypatch):
        """The heart of the bugfix: a replica that has not applied the
        session's acknowledged writes must NOT adopt the session.  The
        router refuses (retryably) instead of serving a stale read."""
        # A stale candidate is refused after RYW_TIMEOUT; shortened here so
        # the refusal beats the client's own 5 s timeout.
        monkeypatch.setattr(router_module, "RYW_TIMEOUT", 0.3)
        with cluster(tmp_path, n=2, replicated=True) as (
                handles, router, thread):
            with NetworkClient(thread.host, thread.port,
                               timeout=5.0) as client:
                assert client.query(1) == RECORDS[1]
                pinned = router._pins[client.session_id]
                victim = next(h for h in handles
                              if h.spec.address == pinned)
                # Partition the replication stream: the next write is
                # acknowledged by the origin but never reaches the peer
                # (with no *connected* peers the semi-sync wait is
                # trivially satisfied — availability over blocking).
                victim.stop_replication()
                client.update(6, b"origin only")
                victim.kill()
                # The survivor lags the session's watermark: refusing is
                # correct, serving the old page 6 would be silent data
                # loss.
                with pytest.raises(DegradedServiceError) as excinfo:
                    client.query(6)
                assert excinfo.value.retry_after > 0
                assert router.counters.get("ryw.rejected") >= 1
                # Recovery: the origin restarts, its streamer replays
                # the backlog, the peer catches up past the watermark,
                # and the same session's read then succeeds — with the
                # written value, on whichever member adopts it.
                victim.restart()
                assert wait_until(
                    lambda: router.membership.at_full_strength)

                def read_back():
                    try:
                        return client.query(6) == b"origin only"
                    except DegradedServiceError:
                        return False

                assert wait_until(read_back)

    def test_concurrent_resumes_converge_on_one_adopter(self, tmp_path):
        """Two RESUMEs racing for one session after a NAT reset must not
        be adopted by different replicas — adoption is serialized per
        session id, and both racers land on the same member."""
        import socket
        import threading

        from repro.net.framing import (
            Resume,
            Welcome,
            decode_net_message,
            encode_net_message,
            read_frame_sock,
            write_frame_sock,
        )

        with cluster(tmp_path, n=3, replicated=True) as (
                handles, router, thread):
            proxy = ChaosProxy(thread.host, thread.port,
                               FaultInjector(seed=7))
            with ChaosProxyThread(proxy) as chaos:
                client = NetworkClient(chaos.host, chaos.port, timeout=5.0)
                try:
                    assert client.query(1) == RECORDS[1]
                    client.update(6, b"raced write")
                    session_id = client.session_id
                    pinned = router._pins[session_id]
                    victim = next(h for h in handles
                                  if h.spec.address == pinned)
                    victim.kill()
                    # NAT reset between client and router: the session
                    # is unattached on both ends but stays pinned.
                    chaos.sever_all()
                    # Two recovery paths race their RESUMEs directly at
                    # the router.
                    answers = []
                    barrier = threading.Barrier(2)

                    def resume():
                        sock = socket.create_connection(
                            (thread.host, thread.port), timeout=5.0)
                        try:
                            barrier.wait(timeout=5.0)
                            write_frame_sock(
                                sock,
                                encode_net_message(Resume(session_id)))
                            answers.append(
                                decode_net_message(read_frame_sock(sock)))
                        finally:
                            sock.close()

                    racers = [threading.Thread(target=resume)
                              for _ in range(2)]
                    for racer in racers:
                        racer.start()
                    for racer in racers:
                        racer.join(timeout=10.0)
                    assert [type(a) for a in answers] == [Welcome, Welcome]
                    assert all(a.session_id == session_id for a in answers)
                    # Exactly one survivor adopted; the second racer was
                    # routed to the first one's pin.
                    survivors = [h for h in handles if h is not victim]
                    adopter = router._pins[session_id]
                    assert adopter in {h.spec.address for h in survivors}
                    assert sum(
                        h.frontend.counters.get("sessions.adopted")
                        for h in survivors) == 1
                    # The client re-dials through the proxy, resumes the
                    # same session, and reads its own write.
                    assert client.query(6) == b"raced write"
                finally:
                    with contextlib.suppress(TransientChannelError):
                        client.close()
