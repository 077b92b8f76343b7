"""Three-party service layer: protocol codec, sessions, multi-client use."""

from __future__ import annotations

import pytest

from repro.baselines import make_records
from repro.errors import PageDeletedError, PageNotFoundError, ProtocolError
from repro.service import (
    MAX_BATCH_OPS,
    Batch,
    BatchReply,
    Delete,
    Insert,
    Ok,
    Query,
    QueryFrontend,
    Refused,
    Result,
    SealedReplyCache,
    ServiceClient,
    Update,
    decode_client_message,
    encode_client_message,
)
from repro.service.frontend import REPLY_CACHE_SIZE
from repro.storage.trace import shapes_identical

from tests.helpers import make_db

RECORDS = make_records(40, 16)


class TestProtocolCodec:
    @pytest.mark.parametrize(
        "message",
        [
            Query(7),
            Update(3, b"payload"),
            Insert(b"fresh bytes"),
            Delete(12),
            Result(9, b"data"),
            Ok(),
            Refused("nope"),
        ],
    )
    def test_roundtrip(self, message):
        assert decode_client_message(encode_client_message(message)) == message

    def test_empty_payloads(self):
        assert decode_client_message(encode_client_message(Insert(b""))) == Insert(b"")

    def test_malformed(self):
        with pytest.raises(ProtocolError):
            decode_client_message(b"")
        with pytest.raises(ProtocolError):
            decode_client_message(b"\xaa")
        with pytest.raises(ProtocolError):
            decode_client_message(b"\x10\x00")  # truncated QUERY
        good = encode_client_message(Update(1, b"xy"))
        with pytest.raises(ProtocolError):
            decode_client_message(good + b"\x00")  # trailing garbage

    def test_batch_roundtrip(self):
        batch = Batch((Query(1), Update(2, b"pay"), Insert(b"new"), Delete(3)))
        assert decode_client_message(encode_client_message(batch)) == batch
        reply = BatchReply((Result(1, b"pay"), Ok(), Refused("no", "deleted")))
        assert decode_client_message(encode_client_message(reply)) == reply

    def test_batch_validation(self):
        with pytest.raises(ProtocolError):
            encode_client_message(Batch(()))  # empty
        with pytest.raises(ProtocolError):
            encode_client_message(Batch((Batch((Query(1),)),)))  # nested
        with pytest.raises(ProtocolError):
            encode_client_message(Batch((Result(1, b"x"),)))  # reply in batch
        with pytest.raises(ProtocolError):
            encode_client_message(Batch(tuple(
                Query(i) for i in range(MAX_BATCH_OPS + 1)
            )))
        with pytest.raises(ProtocolError):
            encode_client_message(BatchReply((Query(1),)))  # op in reply

    def test_batch_malformed_wire_bytes(self):
        good = encode_client_message(Batch((Query(1), Delete(2))))
        with pytest.raises(ProtocolError):
            decode_client_message(good + b"\x00")  # trailing garbage
        with pytest.raises(ProtocolError):
            decode_client_message(good[:-3])  # truncated inner item
        with pytest.raises(ProtocolError):
            decode_client_message(b"\x14\x00\x00\x00\x00")  # zero count
        # A batch whose inner item is itself a batch must be refused even
        # when hand-crafted on the wire (the encoder already refuses it).
        inner = encode_client_message(Query(1))
        nested = encode_client_message(Batch((Query(1),)))
        crafted = (b"\x14" + (2).to_bytes(4, "big")
                   + len(inner).to_bytes(4, "big") + inner
                   + len(nested).to_bytes(4, "big") + nested)
        with pytest.raises(ProtocolError):
            decode_client_message(crafted)


class TestFrontend:
    @pytest.fixture
    def frontend(self):
        return QueryFrontend(make_db(num_records=40, reserve_fraction=0.2,
                                     seed=500))

    def test_single_client_operations(self, frontend):
        client = ServiceClient(frontend)
        assert client.query(5) == RECORDS[5]
        client.update(5, b"via service")
        assert client.query(5) == b"via service"
        new_id = client.insert(b"svc insert")
        assert client.query(new_id) == b"svc insert"
        client.delete(3)
        # The refusal surfaces with the server's error class, not a
        # generic client error.
        with pytest.raises(PageDeletedError):
            client.query(3)

    def test_multiple_clients_share_the_database(self, frontend):
        alice = ServiceClient(frontend)
        bob = ServiceClient(frontend)
        alice.update(2, b"from alice")
        assert bob.query(2) == b"from alice"
        assert frontend.counters.get("sessions") == 2
        assert frontend.counters.get("requests") == 2

    def test_sessions_are_cryptographically_separate(self, frontend):
        alice = ServiceClient(frontend)
        bob = ServiceClient(frontend)
        sealed = alice._suite.encrypt_page(
            encode_client_message(Query(1))
        )
        # Bob's session key cannot open Alice's request.
        reply = frontend.serve(bob.session_id, sealed)
        decoded = decode_client_message(bob._suite.decrypt_page(reply))
        assert isinstance(decoded, Refused)

    def test_unknown_session_rejected(self, frontend):
        with pytest.raises(ProtocolError):
            frontend.serve(999, b"blob")

    def test_closed_session_rejected(self, frontend):
        client = ServiceClient(frontend)
        client.close()
        with pytest.raises(ProtocolError):
            client.query(0)

    def test_client_latency_includes_rtt(self, frontend):
        client = ServiceClient(frontend)  # a 20 ms round trip
        client.query(1)
        assert client.latencies.minimum() >= 0.02

    def test_client_channel_runs_on_the_database_clock(self, frontend):
        """The client's channel charges the database's own virtual clock:
        a query's round trip shows up in ``database.clock``."""
        client = ServiceClient(frontend)
        assert client.channel.clock is frontend.database.clock
        before = frontend.database.clock.now
        client.query(1)
        assert frontend.database.clock.now - before >= 0.02

    def test_client_channel_charges_rtt_and_transfer(self, frontend):
        """A round trip costs 20 ms plus its bytes at 10 MB/s, whatever
        the server does in between."""
        client = ServiceClient(frontend)
        client.channel._handler = lambda blob: b"r" * 3000
        clock = frontend.database.clock
        before = clock.now
        client.channel.call(b"q" * 1000)
        assert clock.now - before == pytest.approx(0.02 + 4000 / 10e6)

    def test_trace_uniform_across_clients_and_ops(self, frontend):
        alice = ServiceClient(frontend)
        bob = ServiceClient(frontend)
        alice.query(0)
        bob.update(1, b"x")
        alice.insert(b"y")
        bob.query(0)
        assert shapes_identical(frontend.database.trace, 0)

    def test_refusal_does_not_crash_session(self, frontend):
        client = ServiceClient(frontend)
        with pytest.raises(PageNotFoundError):
            client.query(10**9)  # out of range -> Refused
        assert client.query(4) == RECORDS[4]  # session still healthy


class TestBatchRequests:
    @pytest.fixture
    def frontend(self):
        return QueryFrontend(make_db(num_records=40, reserve_fraction=0.2,
                                     seed=510))

    def test_mixed_batch(self, frontend):
        client = ServiceClient(frontend)
        replies = client.batch([
            Query(5),
            Update(6, b"batched"),
            Insert(b"batch insert"),
            Query(6),
        ])
        assert replies[0] == Result(5, RECORDS[5])
        assert replies[1] == Ok()
        assert isinstance(replies[2], Result)
        assert replies[3] == Result(6, b"batched")
        assert client.query(replies[2].page_id) == b"batch insert"

    def test_batch_pays_session_crypto_once(self, frontend):
        client = ServiceClient(frontend)
        client.batch([Query(i) for i in range(8)])
        # One sealed request frame in, one sealed reply frame out.
        assert frontend.counters.get("requests") == 1
        assert frontend.counters.get("batch.requests") == 1
        assert frontend.counters.get("batch.ops") == 8

    def test_failures_are_per_operation(self, frontend):
        client = ServiceClient(frontend)
        client.delete(3)
        replies = client.batch([Query(2), Query(3), Query(10**9), Query(4)])
        assert replies[0] == Result(2, RECORDS[2])
        assert isinstance(replies[1], Refused)
        assert replies[1].code == "deleted"
        assert isinstance(replies[2], Refused)
        assert replies[2].code == "not-found"
        assert replies[3] == Result(4, RECORDS[4])

    def test_query_many(self, frontend):
        client = ServiceClient(frontend)
        assert client.query_many([1, 7, 13]) == [
            RECORDS[1], RECORDS[7], RECORDS[13]
        ]
        client.delete(7)
        with pytest.raises(PageDeletedError):
            client.query_many([1, 7, 13])

    def test_duplicate_batch_not_reexecuted(self, frontend):
        session = frontend.open_session()
        suite = frontend.session_suite(session)
        sealed = suite.encrypt_page(encode_client_message(
            Batch((Insert(b"once"), Query(1)))
        ))
        first = frontend.serve(session, sealed)
        count = frontend.database.engine.request_count
        assert frontend.serve(session, sealed) == first
        assert frontend.database.engine.request_count == count
        assert frontend.counters.get("requests.duplicate") == 1


class TestSealedReplyCache:
    def test_lru_eviction_bound(self):
        cache = SealedReplyCache()
        total = REPLY_CACHE_SIZE + 2
        for i in range(total):
            cache.put(1, b"req%d" % i, b"rep%d" % i)
        assert len(cache) == REPLY_CACHE_SIZE
        assert cache.get(1, b"req0") is None
        last = total - 1
        assert cache.get(1, b"req%d" % last) == (b"rep%d" % last, None)

    def test_get_refreshes_recency(self):
        cache = SealedReplyCache()
        cache.put(1, b"a", b"ra")
        for i in range(REPLY_CACHE_SIZE - 1):
            cache.put(1, b"b%d" % i, b"rb")
        assert cache.get(1, b"a") == (b"ra", None)  # refresh a
        cache.put(1, b"c", b"rc")  # evicts b0, not a
        assert cache.get(1, b"b0") is None
        assert cache.get(1, b"a") == (b"ra", None)

    def test_get_returns_the_mark_with_the_reply(self):
        cache = SealedReplyCache()
        cache.put(1, b"w", b"rw", ("o:1", 7))
        assert cache.get(1, b"w") == (b"rw", ("o:1", 7))
        cache.put(1, b"w", b"rw2")  # a re-put without a mark drops it
        assert cache.get(1, b"w") == (b"rw2", None)

    def test_capacity_must_be_positive(self):
        """The bound is a positive count, and the cache fills all of it
        before it evicts anything."""
        assert REPLY_CACHE_SIZE > 0
        cache = SealedReplyCache()
        for i in range(REPLY_CACHE_SIZE):
            cache.put(1, b"req%d" % i, b"rep%d" % i)
        assert len(cache) == REPLY_CACHE_SIZE
        assert cache.get(1, b"req0") == (b"rep0", None)

    def test_a_reloaded_cache_keeps_the_bound(self, tmp_path):
        """A persistent cache re-reads every record its file holds, then
        trims to the same bound, oldest first, as the live cache does."""
        path = tmp_path / "replies.log"
        cache = SealedReplyCache(path=path)
        total = REPLY_CACHE_SIZE + 5
        for i in range(total):
            cache.put(1, b"req%d" % i, b"rep%d" % i)
        cache.close()
        reloaded = SealedReplyCache(path=path)
        try:
            assert len(reloaded) == REPLY_CACHE_SIZE
            assert all(reloaded.get(1, b"req%d" % i) is None
                       for i in range(5))
            assert reloaded.get(1, b"req5") == (b"rep5", None)
            last = total - 1
            assert reloaded.get(1, b"req%d" % last) == (b"rep%d" % last,
                                                        None)
        finally:
            reloaded.close()

    def test_frontend_cache_stays_bounded_under_load(self):
        frontend = QueryFrontend(
            make_db(num_records=40, reserve_fraction=0.2, seed=511))
        session = frontend.open_session()
        suite = frontend.session_suite(session)
        sealed_requests = [
            suite.encrypt_page(encode_client_message(Query(i % 40)))
            for i in range(REPLY_CACHE_SIZE + 8)
        ]
        for sealed in sealed_requests:
            frontend.serve(session, sealed)
        assert len(frontend._reply_cache) == REPLY_CACHE_SIZE
        # Recent transmissions still deduplicate ...
        count = frontend.database.engine.request_count
        frontend.serve(session, sealed_requests[-1])
        assert frontend.database.engine.request_count == count
        assert frontend.counters.get("requests.duplicate") == 1
        # ... while evicted ones re-execute (safe: queries are idempotent).
        frontend.serve(session, sealed_requests[0])
        assert frontend.database.engine.request_count == count + 1
