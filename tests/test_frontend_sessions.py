"""Random session ids, idle-session reaping, and reply-cache pinning
(service.frontend)."""

import pytest

from tests.helpers import make_db
from repro.errors import ProtocolError
from repro.service import protocol
from repro.service.frontend import (
    REPLY_CACHE_SIZE,
    SESSION_RANDOM,
    QueryFrontend,
    SealedReplyCache,
    ServiceClient,
)


class FakeTime:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class ScriptedTokens:
    """Stands in for the frontend's id RNG: each ``token(8)`` is the next
    scripted id, big-endian."""

    def __init__(self, ids):
        self._ids = iter(ids)

    def token(self, length):
        return next(self._ids).to_bytes(length, "big")


class TestSessionIdModes:
    def test_random_ids_are_64_bit_and_distinct(self):
        db = make_db()
        frontend = QueryFrontend(db)  # the default, and the only mode
        ids = [frontend.open_session() for _ in range(32)]
        assert len(set(ids)) == 32
        assert all(0 < session_id < 2**64 for session_id in ids)
        # Unguessable shape: not clustered the way a counter would be.
        # With 64-bit uniform draws, consecutive ids land in the same
        # 2^32-wide bucket with probability ~2^-32 per pair.
        deltas = [abs(a - b) for a, b in zip(ids, ids[1:])]
        assert all(delta > 2**20 for delta in deltas)
        db.close()

    def test_random_ids_depend_on_seed(self):
        db_a, db_b = make_db(seed=1), make_db(seed=2)
        assert (QueryFrontend(db_a).open_session()
                != QueryFrontend(db_b).open_session())
        db_a.close()
        db_b.close()

    def test_unknown_mode_rejected(self):
        """Random ids are the one mode: the retired counting mode is
        refused like any other value."""
        db = make_db()
        for mode in ("sequential", "guessable"):
            with pytest.raises(ProtocolError, match="session_id_mode"):
                QueryFrontend(db, session_id_mode=mode)
        QueryFrontend(db, session_id_mode=SESSION_RANDOM).open_session()
        db.close()

    def test_a_zero_draw_is_redrawn(self):
        """Id 0 is never issued: a draw of zero is thrown back."""
        db = make_db()
        frontend = QueryFrontend(db)
        frontend._session_rng = ScriptedTokens([0, 0, 41])
        assert frontend.open_session() == 41
        db.close()

    def test_a_colliding_draw_is_redrawn(self):
        """A draw equal to a live session's id is thrown back, so two
        clients never share a session key."""
        db = make_db()
        frontend = QueryFrontend(db)
        frontend._session_rng = ScriptedTokens([7, 7, 7, 9])
        assert frontend.open_session() == 7
        assert frontend.open_session() == 9
        assert sorted(frontend.session_ids) == [7, 9]
        db.close()

    def test_opening_sessions_leaves_the_engine_frames_unchanged(self):
        """The id stream is a child of the database's RNG that does not
        consume its parent: a database whose frontend opened sessions
        writes the same frames as one that never did."""
        quiet, busy = make_db(seed=5), make_db(seed=5)
        frontend = QueryFrontend(busy)
        for _ in range(4):
            frontend.open_session()
        for db in (quiet, busy):
            for page_id in (3, 11, 3, 27):
                db.query(page_id)
        frames = [db.disk.peek_range(0, db.disk.num_locations).tobytes()
                  for db in (quiet, busy)]
        assert frames[0] == frames[1]
        quiet.close()
        busy.close()

    def test_service_client_works_in_random_mode(self):
        db = make_db()
        frontend = QueryFrontend(db)
        client = ServiceClient(frontend)
        assert client.query(3) == db.query(3)
        client.close()
        db.close()


class TestIdleSessionReaping:
    def _frontend(self, ttl=10.0):
        db = make_db()
        clock = FakeTime()
        frontend = QueryFrontend(db, session_ttl=ttl, time_source=clock)
        return db, clock, frontend

    def test_no_ttl_means_no_reaping(self):
        db = make_db()
        frontend = QueryFrontend(db)
        frontend.open_session()
        assert frontend.reap_idle_sessions() == 0
        assert frontend.session_count == 1
        db.close()

    def test_idle_sessions_reaped_after_ttl(self):
        db, clock, frontend = self._frontend(ttl=10.0)
        frontend.open_session()
        frontend.open_session()
        clock.advance(10.5)
        assert frontend.reap_idle_sessions() == 2
        assert frontend.session_count == 0
        assert frontend.counters.get("sessions.reaped") == 2
        db.close()

    def test_activity_refreshes_the_clock(self):
        db, clock, frontend = self._frontend(ttl=10.0)
        client = ServiceClient(frontend)
        idle = frontend.open_session()
        clock.advance(8.0)
        client.query(1)  # refreshes the client's session, not `idle`
        clock.advance(4.0)
        assert frontend.reap_idle_sessions() == 1
        assert frontend.session_count == 1
        with pytest.raises(ProtocolError, match="unknown session"):
            frontend.session_suite(idle)
        client.query(2)  # survivor still works
        db.close()

    def test_reaped_session_requests_refused(self):
        db, clock, frontend = self._frontend(ttl=5.0)
        client = ServiceClient(frontend)
        clock.advance(6.0)
        assert frontend.reap_idle_sessions() == 1
        with pytest.raises(ProtocolError, match="unknown session"):
            client.query(0)
        db.close()

    def test_reap_drops_reply_cache_entries(self):
        db, clock, frontend = self._frontend(ttl=5.0)
        session_id = frontend.open_session()
        suite = frontend.session_suite(session_id)
        sealed = suite.encrypt_page(
            protocol.encode_client_message(protocol.Query(1))
        )
        frontend.serve(session_id, sealed)
        assert len(frontend._reply_cache) == 1
        clock.advance(6.0)
        assert frontend.reap_idle_sessions() == 1
        assert len(frontend._reply_cache) == 0
        db.close()

    def test_bad_ttl_rejected(self):
        db = make_db()
        with pytest.raises(ProtocolError, match="session_ttl"):
            QueryFrontend(db, session_ttl=0.0)
        db.close()


class TestReplyCachePinning:
    """Eviction must never remove a session's most recent (acknowledged)
    reply: it is exactly what a client retransmits after failover, and
    evicting it would re-execute an acknowledged mutation."""

    def test_latest_reply_per_session_survives_churn(self):
        cache = SealedReplyCache()
        # Session 1's acknowledged reply awaits a possible retransmit
        # while session 2 churns the cache well past its bound.
        cache.put(1, b"acked request", b"pinned reply")
        churn = REPLY_CACHE_SIZE + 6
        for index in range(churn):
            cache.put(2, b"req-%d" % index, b"reply-%d" % index)
        # The bound held — churn evicted session 2's *older* entries —
        # and both sessions' latest replies are still present.
        assert len(cache) == REPLY_CACHE_SIZE
        assert cache.get(1, b"acked request") == (b"pinned reply", None)
        last = b"req-%d" % (churn - 1)
        assert cache.get(2, last) == (b"reply-%d" % (churn - 1), None)
        assert cache.get(2, b"req-0") is None

    def test_all_pinned_overflows_instead_of_evicting(self):
        # One live session per entry: every entry is a pinned latest, so
        # the cache temporarily exceeds its size rather than open a
        # double-apply window.
        cache = SealedReplyCache()
        sessions = range(1, REPLY_CACHE_SIZE + 4)
        for session_id in sessions:
            cache.put(session_id, b"only", b"reply-%d" % session_id)
        assert len(cache) == len(sessions)
        for session_id in sessions:
            assert cache.get(session_id, b"only") is not None

    def test_drop_session_unpins(self):
        cache = SealedReplyCache()
        cache.put(1, b"a", b"ra")
        for session_id in range(2, REPLY_CACHE_SIZE + 1):
            cache.put(session_id, b"b", b"rb")
        cache.drop_session(1)
        assert cache.get(1, b"a") is None
        # Unpinned space is reusable: session 2's old entry is now the
        # evictable one once newer traffic arrives.
        cache.put(2, b"c", b"rc")
        cache.put(REPLY_CACHE_SIZE + 1, b"d", b"rd")
        assert len(cache) == REPLY_CACHE_SIZE
        assert cache.get(2, b"b") is None
        assert cache.get(2, b"c") == (b"rc", None)

    def test_acked_mutation_dedupes_after_cache_overfill(self):
        """The failover regression, at the frontend level: an update is
        served and acknowledged, the shared cache fills past its bound
        with other sessions' traffic, and the retransmitted sealed bytes
        must still dedupe — not re-execute the mutation."""
        db = make_db()
        frontend = QueryFrontend(db)
        session_id = frontend.open_session()
        suite = frontend.session_suite(session_id)
        sealed_update = suite.encrypt_page(
            protocol.encode_client_message(
                protocol.Update(3, b"acked write"))
        )
        first = frontend.serve(session_id, sealed_update)
        before = db.engine.request_count
        # Churn: one busy neighbour session floods the cache.
        other = frontend.open_session()
        other_suite = frontend.session_suite(other)
        churn = REPLY_CACHE_SIZE + 4
        for index in range(churn):
            frontend.serve(other, other_suite.encrypt_page(
                protocol.encode_client_message(protocol.Query(index % 8))
            ))
        # The retransmission (identical sealed bytes, as after a
        # reconnect or failover) is answered from cache byte-for-byte.
        assert frontend.serve(session_id, sealed_update) == first
        assert frontend.counters.get("requests.duplicate") == 1
        assert db.engine.request_count == before + churn  # churn only
        db.close()


class TestPersistentReplyCache:
    def test_torn_tail_is_truncated_before_appending(self, tmp_path):
        """A crash mid-append leaves a torn record.  The restart must cut
        it off, not append behind it: left in place it swallows the head
        of every later record, so replies acknowledged after the *first*
        restart are gone at the *second* — and a retransmission of one
        re-executes an acknowledged mutation."""
        path = tmp_path / "replies.log"
        cache = SealedReplyCache(path=path)
        cache.put(1, b"request A", b"reply A")
        cache.close()
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x00\x00\x00")  # half a header
        restarted = SealedReplyCache(path=path)
        assert len(restarted) == 1
        assert path.stat().st_size == intact
        restarted.put(2, b"request C", b"reply C")
        restarted.put(3, b"request D", b"reply D")
        restarted.close()
        again = SealedReplyCache(path=path)
        try:
            assert len(again) == 3
            assert again.get(1, b"request A") == (b"reply A", None)
            assert again.get(2, b"request C") == (b"reply C", None)
            assert again.get(3, b"request D") == (b"reply D", None)
        finally:
            again.close()


class TestReapingVsInflightRequests:
    """A session with a queued-but-unserved request must not be reaped:
    the server admitted the request, so dropping the session between the
    queue and the worker would refuse work it already accepted."""

    def _frontend(self, ttl=5.0):
        db = make_db()
        clock = FakeTime()
        frontend = QueryFrontend(db, session_ttl=ttl, time_source=clock)
        return db, clock, frontend

    def test_queued_request_blocks_reaping_until_served(self):
        """The reap-vs-queue race, pinned to its worst interleaving: the
        request is admitted, the TTL expires while it waits in the
        queue, the reaper fires — and the session must survive so the
        worker can still serve the queued request."""
        db, clock, frontend = self._frontend(ttl=5.0)
        session_id = frontend.open_session()
        suite = frontend.session_suite(session_id)
        sealed = suite.encrypt_page(
            protocol.encode_client_message(protocol.Query(2))
        )
        frontend.begin_request(session_id)  # admitted, sitting queued
        clock.advance(6.0)                  # TTL passes while it waits
        assert frontend.reap_idle_sessions() == 0
        assert frontend.session_count == 1
        assert frontend.serve(session_id, sealed) is not None
        frontend.end_request(session_id)
        # With the bracket balanced and the session idle again, the
        # next expiry reaps it normally.
        clock.advance(6.0)
        assert frontend.reap_idle_sessions() == 1
        db.close()

    def test_overlapping_requests_all_must_finish(self):
        db, clock, frontend = self._frontend(ttl=5.0)
        session_id = frontend.open_session()
        frontend.begin_request(session_id)
        frontend.begin_request(session_id)  # pipelined second request
        clock.advance(6.0)
        frontend.end_request(session_id)
        assert frontend.reap_idle_sessions() == 0  # one still in flight
        frontend.end_request(session_id)
        assert frontend.reap_idle_sessions() == 1
        db.close()

    def test_unbalanced_end_is_harmless(self):
        db, clock, frontend = self._frontend(ttl=5.0)
        session_id = frontend.open_session()
        frontend.end_request(session_id)  # stray; never goes negative
        frontend.begin_request(session_id)
        clock.advance(6.0)
        assert frontend.reap_idle_sessions() == 0
        db.close()
