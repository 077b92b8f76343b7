"""Graceful degradation: refusal codes, health state machine, client retry.

Satellite guarantee: *every* :class:`~repro.errors.ReproError` subclass —
including ones defined after this test was written — maps through
:func:`repro.service.health.classify` and the frontend to a deterministic,
machine-readable ``Refused`` code.
"""

from __future__ import annotations

import pytest

import repro.errors as errors_module
from repro.errors import (
    AuthenticationError,
    CapacityError,
    ConfigurationError,
    CryptoError,
    DegradedServiceError,
    PageDeletedError,
    PageNotFoundError,
    ProtocolError,
    RecoveryError,
    ReproError,
    StorageError,
    TransientChannelError,
    TransientStorageError,
)
from repro.core.journal import MemoryJournal
from repro.errors import IndexError_
from repro.faults import (
    FaultInjector,
    FaultyDiskStore,
    FlakyChannel,
    drop_messages,
    duplicate_messages,
    transient_reads,
    transient_writes,
)
from repro.faults.retry import RetryPolicy
from repro.service import (
    DEGRADED,
    FAILED,
    HEALTHY,
    HealthMonitor,
    QueryFrontend,
    ServiceClient,
    classify,
    error_for_refusal,
    protocol,
)
from repro.service.health import (
    DEGRADE_AFTER,
    FAIL_AFTER,
    MAX_HINT,
    RETRY_HINT,
)
from repro.storage.disk import DiskStore

from tests.helpers import make_db


def all_repro_error_classes():
    """Every ReproError subclass, discovered recursively."""
    found = []
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: c.__name__)


def make_frontend(**db_options):
    db = make_db(num_records=20, cache_capacity=6, seed=5, **db_options)
    return QueryFrontend(db)


def serve_query(frontend, session_id, page_id=1):
    suite = frontend.session_suite(session_id)
    sealed = suite.encrypt_page(
        protocol.encode_client_message(protocol.Query(page_id))
    )
    sealed_reply = frontend.serve(session_id, sealed)
    return protocol.decode_client_message(suite.decrypt_page(sealed_reply))


class TestClassify:
    EXPECTED_CODES = {
        PageDeletedError: ("deleted", False),
        PageNotFoundError: ("not-found", False),
        TransientStorageError: ("transient-storage", True),
        StorageError: ("storage", False),
        AuthenticationError: ("auth-failure", False),
        CryptoError: ("crypto", False),
        TransientChannelError: ("transient-channel", True),
        ProtocolError: ("protocol", False),
        ConfigurationError: ("bad-request", False),
        CapacityError: ("capacity", False),
        RecoveryError: ("recovery-failed", False),
        DegradedServiceError: ("unavailable", True),
        ReproError: ("internal", False),
    }

    def test_expected_codes(self):
        for cls, (code, retryable) in self.EXPECTED_CODES.items():
            refusal = classify(cls("boom"))
            assert refusal.code == code, cls.__name__
            assert refusal.retryable == retryable, cls.__name__

    def test_every_repro_error_subclass_has_a_code(self):
        for cls in all_repro_error_classes():
            refusal = classify(cls("boom"))
            assert refusal.code, f"{cls.__name__} classified without a code"
            assert refusal.severity in ("client", "fault", "fatal")

    def test_unknown_subclass_inherits_parent_code(self):
        class BitRotError(StorageError):
            pass

        assert classify(BitRotError("x")).code == "storage"

    def test_foreign_exception_maps_to_internal(self):
        assert classify(ValueError("x")).code == "internal"

    def test_classification_is_deterministic(self):
        codes = [classify(cls("e")).code for cls in all_repro_error_classes()]
        assert codes == [
            classify(cls("e")).code for cls in all_repro_error_classes()
        ]


class TestRefusedWireFormat:
    def test_extended_roundtrip(self):
        refused = protocol.Refused("storage fault", "transient-storage", 0.25)
        blob = protocol.encode_client_message(refused)
        assert protocol.decode_client_message(blob) == refused

    def test_retryable_property(self):
        assert protocol.Refused("r", "c", 0.0).retryable
        assert protocol.Refused("r", "c", 1.5).retryable
        assert not protocol.Refused("r", "c", -1.0).retryable

    def test_default_refusal_is_non_retryable(self):
        refused = protocol.Refused("nope")
        assert refused.code == ""
        assert not refused.retryable


class TestFrontendRefusalCodes:
    def _refusal_code_for(self, exc):
        frontend = make_frontend()
        session = frontend.open_session()

        def boom(ops):
            raise exc

        frontend.database.run_batch = boom
        reply = serve_query(frontend, session)
        assert isinstance(reply, protocol.Refused)
        return reply

    def test_every_subclass_yields_its_classified_code(self):
        for cls in all_repro_error_classes():
            reply = self._refusal_code_for(cls("kaboom"))
            expected = classify(cls("kaboom"))
            assert reply.code == expected.code, cls.__name__
            assert reply.retryable == expected.retryable, cls.__name__
            assert cls.__name__ in reply.reason

    def test_client_errors_do_not_hurt_health(self):
        frontend = make_frontend()
        session = frontend.open_session()
        for _ in range(10):
            reply = serve_query(frontend, session, page_id=10_000)
            assert isinstance(reply, protocol.Refused)
            assert reply.code == "not-found"
        assert frontend.health.state == HEALTHY

    def test_garbage_session_traffic_does_not_hurt_health(self):
        frontend = make_frontend()
        session = frontend.open_session()
        suite = frontend.session_suite(session)
        for _ in range(10):
            sealed_reply = frontend.serve(session, b"\x00" * 48)
            reply = protocol.decode_client_message(
                suite.decrypt_page(sealed_reply)
            )
            assert isinstance(reply, protocol.Refused)
        assert frontend.health.state == HEALTHY
        assert frontend.counters.get("requests") == 10

    def test_refusal_counters(self):
        frontend = make_frontend()
        session = frontend.open_session()
        serve_query(frontend, session, page_id=10_000)
        serve_query(frontend, session, page_id=10_000)
        assert frontend.counters.get("refused.not-found") == 2


class TestHealthStateMachine:
    def test_validation(self):
        """The fixed thresholds are ordered the way the state machine
        needs: a streak degrades before it fails, and the first fault's
        hint is a positive wait no larger than the cap."""
        assert 1 <= DEGRADE_AFTER <= FAIL_AFTER
        assert 0 < RETRY_HINT <= MAX_HINT
        monitor = HealthMonitor()
        assert monitor.state == HEALTHY
        assert monitor.retry_after == RETRY_HINT

    def test_degrades_then_fails_on_fault_streak(self):
        assert (DEGRADE_AFTER, FAIL_AFTER) == (3, 8)
        monitor = HealthMonitor()
        for i in range(1, FAIL_AFTER + 1):
            monitor.record_fault()
            if i < DEGRADE_AFTER:
                assert monitor.state == HEALTHY
            elif i < FAIL_AFTER:
                assert monitor.state == DEGRADED
            else:
                assert monitor.state == FAILED

    def test_success_resets_streak_and_recovers_degraded(self):
        monitor = HealthMonitor()
        for _ in range(DEGRADE_AFTER):
            monitor.record_fault()
        assert monitor.state == DEGRADED
        monitor.record_success()
        assert monitor.state == HEALTHY
        assert monitor.fault_streak == 0

    def test_fatal_fault_fails_immediately(self):
        monitor = HealthMonitor()
        monitor.record_fault(fatal=True)
        assert monitor.state == FAILED

    def test_failed_is_sticky_until_recovered(self):
        monitor = HealthMonitor()
        monitor.record_fault(fatal=True)
        monitor.record_success()
        assert monitor.state == FAILED
        with pytest.raises(DegradedServiceError) as excinfo:
            monitor.check()
        assert excinfo.value.retry_after > 0.0
        monitor.mark_recovered()
        assert monitor.state == HEALTHY
        monitor.check()

    def test_retry_hint_grows_with_streak(self):
        monitor = HealthMonitor()
        monitor.record_fault()
        first = monitor.retry_after
        assert first == RETRY_HINT
        monitor.record_fault()
        second = monitor.retry_after
        assert second > first
        while RETRY_HINT * monitor.fault_streak < MAX_HINT:
            monitor.record_fault()
        monitor.record_fault()
        assert monitor.retry_after == MAX_HINT

    def test_retry_hint_is_linear_in_the_streak_up_to_the_cap(self):
        monitor = HealthMonitor()
        for streak in range(1, int(MAX_HINT / RETRY_HINT) + 10):
            monitor.record_fault()
            assert monitor.retry_after == pytest.approx(
                min(streak * RETRY_HINT, MAX_HINT))

    def test_a_recovered_monitor_starts_a_fresh_streak(self):
        """mark_recovered forgets the streak that failed the service: it
        takes DEGRADE_AFTER new faults to degrade it again."""
        monitor = HealthMonitor()
        for _ in range(FAIL_AFTER):
            monitor.record_fault()
        assert monitor.state == FAILED
        monitor.mark_recovered()
        for _ in range(DEGRADE_AFTER - 1):
            monitor.record_fault()
        assert monitor.state == HEALTHY
        assert monitor.retry_after == pytest.approx(
            (DEGRADE_AFTER - 1) * RETRY_HINT)
        monitor.record_fault()
        assert monitor.state == DEGRADED


class TestFrontendDegradation:
    def _failing_frontend(self, exc_factory):
        frontend = make_frontend()
        calls = []

        def boom(ops):
            calls.append(ops)
            raise exc_factory()

        frontend.database.run_batch = boom
        return frontend, calls

    def test_failed_frontend_sheds_load(self):
        frontend, calls = self._failing_frontend(
            lambda: TransientStorageError("disk flapping"))
        session = frontend.open_session()
        for _ in range(FAIL_AFTER):
            serve_query(frontend, session)
        assert frontend.health.state == FAILED
        engine_calls = len(calls)

        reply = serve_query(frontend, session)
        assert isinstance(reply, protocol.Refused)
        assert reply.code == "unavailable"
        assert reply.retryable
        assert reply.retry_after > 0.0
        # Load shedding: the engine was never touched for the refused call.
        assert len(calls) == engine_calls

    def test_fatal_fault_fails_in_one_hit(self):
        frontend, _ = self._failing_frontend(
            lambda: RecoveryError("journal ahead of state"))
        session = frontend.open_session()
        reply = serve_query(frontend, session)
        assert reply.code == "recovery-failed"
        assert frontend.health.state == FAILED

    def test_recover_restores_service(self):
        frontend, _ = self._failing_frontend(
            lambda: RecoveryError("dead"))
        session = frontend.open_session()
        serve_query(frontend, session)
        assert frontend.health.state == FAILED

        del frontend.database.run_batch  # un-monkeypatch: "repaired"
        report = frontend.recover()
        assert report.action == "clean"
        assert frontend.health.state == HEALTHY
        reply = serve_query(frontend, session, page_id=1)
        assert isinstance(reply, protocol.Result)
        assert frontend.counters.get("recoveries") == 1

    def test_health_counters(self):
        frontend, _ = self._failing_frontend(
            lambda: TransientStorageError("x"))
        session = frontend.open_session()
        for _ in range(FAIL_AFTER):
            serve_query(frontend, session)
        counts = frontend.counters.as_dict()
        assert counts["health.faults"] == FAIL_AFTER
        assert counts["health.degraded"] == 1
        assert counts["health.failed"] == 1


class TestHealthPerEnginePass:
    """Health hears about each engine pass once.  A window that fails hands
    the *same* exception to every slot it held; counting slots let a batch
    of 8 fail the service on one transient read, and the unconditional
    success after a batch let all-refused batches read as healthy."""

    def _frontend(self, plan):
        injector = FaultInjector(0)
        db = make_db(num_records=64, cache_capacity=8, seed=5,
                     disk_factory=faulty_factory(injector))
        assert db.params.block_size >= 8  # a batch of 8 is one window
        frontend = QueryFrontend(db)
        injector.add(plan)
        return frontend, frontend.open_session()

    def _serve_batch(self, frontend, session_id, size):
        suite = frontend.session_suite(session_id)
        sealed = suite.encrypt_page(protocol.encode_client_message(
            protocol.Batch(tuple(protocol.Query(i) for i in range(size)))
        ))
        reply = protocol.decode_client_message(
            suite.decrypt_page(frontend.serve(session_id, sealed))
        )
        assert isinstance(reply, protocol.BatchReply)
        return reply.replies

    def test_five_failing_single_queries_degrade(self):
        frontend, session = self._frontend(transient_reads(times=None))
        for _ in range(5):
            assert isinstance(serve_query(frontend, session),
                              protocol.Refused)
        assert frontend.health.state == DEGRADED
        assert frontend.health.fault_streak == 5

    def test_five_failing_batches_degrade_too(self):
        frontend, session = self._frontend(transient_reads(times=None))
        for _ in range(5):
            replies = self._serve_batch(frontend, session, 2)
            assert all(isinstance(r, protocol.Refused) for r in replies)
        assert frontend.health.state == DEGRADED
        assert frontend.health.fault_streak == 5

    def test_one_bad_read_in_a_batch_is_one_fault(self):
        frontend, session = self._frontend(transient_reads(times=1))
        replies = self._serve_batch(frontend, session, 8)
        assert all(isinstance(r, protocol.Refused) for r in replies)
        assert frontend.health.state == HEALTHY
        assert frontend.health.fault_streak == 1
        # The next pass reads cleanly and clears the streak.
        assert all(isinstance(r, protocol.Result)
                   for r in self._serve_batch(frontend, session, 8))
        assert frontend.health.fault_streak == 0

    def test_client_errors_and_health(self):
        """A refused lone op is no success, so it leaves a fault streak
        standing; a batch whose windows did not fault is one, even when
        every slot is a client error."""
        frontend, session = self._frontend(transient_reads(times=1))
        self._serve_batch(frontend, session, 2)
        assert frontend.health.fault_streak == 1
        assert serve_query(frontend, session, page_id=10_000).code == (
            "not-found")
        assert frontend.health.fault_streak == 1
        suite = frontend.session_suite(session)
        sealed = suite.encrypt_page(protocol.encode_client_message(
            protocol.Batch((protocol.Query(10_000), protocol.Delete(10_001)))
        ))
        reply = protocol.decode_client_message(
            suite.decrypt_page(frontend.serve(session, sealed)))
        assert [r.code for r in reply.replies] == ["not-found", "not-found"]
        assert frontend.health.fault_streak == 0


class TestClientRetry:
    def test_retries_dropped_messages(self):
        frontend = make_frontend()
        injector = FaultInjector(3, [drop_messages(times=2)])
        client = ServiceClient(
            frontend,
            retry=RetryPolicy(max_attempts=4, base_delay=0.05),
            channel_wrapper=lambda ch: FlakyChannel(ch, injector),
        )
        before = client.channel.clock.now
        assert client.query(1) == frontend.database.query(1)
        assert client.counters.get("retries") == 2
        # Two backoff sleeps (>= 0.05 * (1 - jitter) each) plus the dropped
        # round trips advanced the virtual clock.
        assert client.channel.clock.now - before > 2 * 0.025

    def test_without_retry_refusals_raise(self):
        frontend = make_frontend()
        client = ServiceClient(frontend)
        with pytest.raises(PageNotFoundError):
            client.query(10_000)

    def test_retryable_refusal_is_retried_to_success(self):
        frontend = make_frontend()
        expected = frontend.database.query(2)
        real_run_batch = frontend.database.run_batch
        state = {"failures": 2}

        def flaky_run_batch(ops):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise TransientStorageError("disk flapping")
            return real_run_batch(ops)

        frontend.database.run_batch = flaky_run_batch
        client = ServiceClient(
            frontend, retry=RetryPolicy(max_attempts=5, base_delay=0.01)
        )
        assert client.query(2) == expected
        assert client.counters.get("retries") == 2

    def test_non_retryable_refusal_is_not_retried(self):
        frontend = make_frontend()
        client = ServiceClient(frontend, retry=RetryPolicy(max_attempts=5))
        with pytest.raises(PageNotFoundError):
            client.query(10_000)
        assert client.counters.get("retries") == 0

    def test_retry_honours_server_hint_as_floor(self):
        frontend = make_frontend()
        streak = 10  # past FAIL_AFTER: failed, hint 10 x RETRY_HINT
        for _ in range(streak):
            frontend.health.record_fault()
        hint = frontend.health.retry_after
        assert hint == streak * RETRY_HINT
        client = ServiceClient(
            frontend,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
        )
        before = client.channel.clock.now
        with pytest.raises(DegradedServiceError):
            client.query(1)
        elapsed = client.channel.clock.now - before
        # Two retry sleeps, each floored by the server's hint.
        assert elapsed >= 2 * hint

    def test_retried_runs_are_deterministic(self):
        def run():
            frontend = make_frontend()
            injector = FaultInjector(3, [drop_messages(times=2)])
            client = ServiceClient(
                frontend,
                retry=RetryPolicy(max_attempts=4, base_delay=0.05),
                channel_wrapper=lambda ch: FlakyChannel(ch, injector),
            )
            payload = client.query(1)
            return (
                payload,
                client.channel.clock.now,
                client.counters.as_dict(),
                frontend.counters.as_dict(),
                [(e.op, e.location, e.count, e.request_index, e.timestamp)
                 for e in frontend.database.trace],
            )

        assert run() == run()


class TestClientErrorMapping:
    """Refusals surface to callers as their server-side error class."""

    NON_RETRYABLE = [
        (PageDeletedError, PageDeletedError),
        (PageNotFoundError, PageNotFoundError),
        (StorageError, StorageError),
        (AuthenticationError, AuthenticationError),
        (CryptoError, CryptoError),
        (ProtocolError, ProtocolError),
        (ConfigurationError, ConfigurationError),
        (CapacityError, CapacityError),
        (RecoveryError, RecoveryError),
        (IndexError_, IndexError_),
        (ReproError, ReproError),
    ]

    def _client_for(self, exc):
        frontend = make_frontend()

        def boom(ops):
            raise exc

        frontend.database.run_batch = boom
        return ServiceClient(frontend)

    def test_non_retryable_refusals_raise_their_class(self):
        for raised, expected in self.NON_RETRYABLE:
            client = self._client_for(raised("kaboom"))
            with pytest.raises(expected) as excinfo:
                client.query(1)
            assert type(excinfo.value) is expected, raised.__name__
            assert "kaboom" in str(excinfo.value)

    def test_retryable_refusals_raise_degraded_with_hint(self):
        for raised in (TransientStorageError, TransientChannelError):
            client = self._client_for(raised("flap"))
            with pytest.raises(DegradedServiceError) as excinfo:
                client.query(1)
            assert excinfo.value.retry_after >= 0.0, raised.__name__

    def test_error_for_refusal_unknown_and_legacy_codes(self):
        assert type(error_for_refusal("", "legacy")) is ReproError
        assert type(error_for_refusal("martian", "what")) is ReproError
        exc = error_for_refusal("transient-storage", "retry me", 0.25)
        assert isinstance(exc, DegradedServiceError)
        assert exc.retry_after == 0.25


def faulty_factory(injector):
    def build(num_locations, frame_size, timing, clock, trace):
        return FaultyDiskStore(
            DiskStore(num_locations, frame_size, timing, clock, trace),
            injector,
        )

    return build


class TestWriteFaultMidApply:
    """A transient write failure mid-apply must not corrupt the store.

    Regression for the mid-apply hazard: the trusted deltas land before
    the frame write-back, so a retryable write failure used to leave the
    pageMap pointing at never-written frames while the retry-after hint
    invited a resend that overwrote the pending journal record.  The
    window has committed by then, so it is answered — a refusal would
    invite a retry that applies it twice — and its write-back is finished
    by the next request's heal.
    """

    def test_client_retry_after_write_fault_heals_and_succeeds(self):
        injector = FaultInjector(0)
        db = make_db(
            num_records=20, cache_capacity=6, seed=5,
            journal=MemoryJournal(),
            disk_factory=faulty_factory(injector),
        )
        frontend = QueryFrontend(db)
        client = ServiceClient(
            frontend, retry=RetryPolicy(max_attempts=4, base_delay=0.01)
        )
        injector.add(transient_writes(times=1))
        client.update(2, b"healed")
        assert client.counters.get("retries") == 0  # answered, not refused
        assert db.engine.counters.get("write_back.deferred") == 1
        assert db.engine.write_back_pending
        assert client.query(2) == b"healed"
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        assert not db.engine.write_back_pending
        assert not db.engine.journal_pending
        db.consistency_check()

    def test_a_committed_insert_is_answered_once(self):
        """An insert whose write-back fails after it committed takes one
        free page: it is answered, not refused, so the client's retry
        policy never runs it a second time."""
        injector = FaultInjector(0)
        db = make_db(
            num_records=20, cache_capacity=6, seed=5, reserve_fraction=0.3,
            disk_factory=faulty_factory(injector),
        )
        client = ServiceClient(
            QueryFrontend(db), retry=RetryPolicy(max_attempts=4,
                                                 base_delay=0.01)
        )
        free = db.cop.state.free_count
        injector.add(transient_writes(times=1))
        new_id = client.insert(b"inserted once")
        assert db.cop.state.free_count == free - 1
        assert client.counters.get("retries") == 0
        # A second such fault lands on the delete's heal of the insert's
        # write-back: nothing of the delete ran, so it is refused, and
        # its retry deletes the page exactly once.
        injector.add(transient_writes(times=1))
        client.delete(new_id)
        assert client.counters.get("retries") == 1
        assert db.cop.state.free_count == free
        assert not db.engine.write_back_pending
        db.consistency_check()

    def test_a_failed_heal_refuses_only_the_later_window(self):
        """A batch over two windows: the first (an insert) commits and its
        write-back fails, then the second window's heal fails too.  Only
        the second window is refused; the insert keeps its answer, so the
        batch is not retried and the insert takes one free page."""
        injector = FaultInjector(0)
        db = make_db(
            num_records=20, cache_capacity=6, seed=5, reserve_fraction=0.3,
            disk_factory=faulty_factory(injector),
        )
        client = ServiceClient(
            QueryFrontend(db), retry=RetryPolicy(max_attempts=4,
                                                 base_delay=0.01)
        )
        k = db.params.block_size
        ops = [protocol.Insert(b"inserted once")]
        ops += [protocol.Query(1)] * k  # k - 1 in window 1, one in window 2
        free = db.cop.state.free_count
        injector.add(transient_writes(times=2))
        replies = client.batch(ops)
        assert client.counters.get("retries") == 0
        assert all(isinstance(r, protocol.Result) for r in replies[:k])
        assert isinstance(replies[k], protocol.Refused)
        assert db.cop.state.free_count == free - 1
        assert db.engine.write_back_pending
        assert client.query(replies[0].page_id) == b"inserted once"
        assert not db.engine.write_back_pending
        db.consistency_check()

    def test_pending_journal_record_survives_the_failed_request(self):
        injector = FaultInjector(0)
        journal = MemoryJournal()
        db = make_db(
            num_records=20, cache_capacity=6, seed=5, journal=journal,
            disk_factory=faulty_factory(injector),
        )
        injector.add(transient_writes(times=1))
        db.query(3)  # committed; its write-back deferred
        # The only record able to repair the store is still in the slot,
        # and the engine knows the write-back is unfinished.
        assert journal.read() is not None
        assert db.engine.write_back_pending
        assert db.engine.request_count == 0


class TestDuplicateSuppression:
    """At-least-once delivery never double-applies a mutating request."""

    def test_duplicate_insert_allocates_exactly_one_page(self):
        frontend = make_frontend(reserve_fraction=0.2)
        injector = FaultInjector(4, [duplicate_messages()])
        client = ServiceClient(
            frontend, channel_wrapper=lambda ch: FlakyChannel(ch, injector)
        )
        before = frontend.database.engine.request_count
        new_id = client.insert(b"exactly once")
        assert frontend.database.engine.request_count == before + 1
        assert frontend.counters.get("requests.duplicate") == 1
        assert client.query(new_id) == b"exactly once"
        frontend.database.consistency_check()

    def test_retry_after_a_lost_reply_is_answered_from_cache(self):
        """A client retry retransmits the bytes it sealed once, so an
        insert whose reply was lost is not run a second time."""

        class LoseFirstReply:
            def __init__(self, inner):
                self.inner, self.clock, self.lost = inner, inner.clock, False

            def call(self, request):
                reply = self.inner.call(request)
                if not self.lost:
                    self.lost = True
                    raise TransientChannelError("reply lost")
                return reply

        frontend = make_frontend(reserve_fraction=0.2)
        client = ServiceClient(frontend, retry=RetryPolicy(max_attempts=3),
                               channel_wrapper=LoseFirstReply)
        free = len(frontend.database.cop.state.free_ids())
        new_id = client.insert(b"exactly once")
        assert client.counters.get("retries") == 1
        assert frontend.counters.get("requests.duplicate") == 1
        assert len(frontend.database.cop.state.free_ids()) == free - 1
        assert client.query(new_id) == b"exactly once"

    def test_replayed_request_bytes_answered_from_cache(self):
        frontend = make_frontend()
        session = frontend.open_session()
        suite = frontend.session_suite(session)
        sealed = suite.encrypt_page(
            protocol.encode_client_message(protocol.Update(1, b"v1"))
        )
        first = frontend.serve(session, sealed)
        count = frontend.database.engine.request_count
        second = frontend.serve(session, sealed)
        assert second == first
        assert frontend.database.engine.request_count == count
        assert frontend.counters.get("requests.duplicate") == 1

    def test_distinct_transmissions_are_not_deduplicated(self):
        # The same logical request sealed twice uses fresh nonces, so both
        # transmissions execute — dedup keys on ciphertext identity only.
        frontend = make_frontend()
        session = frontend.open_session()
        suite = frontend.session_suite(session)
        message = protocol.encode_client_message(protocol.Query(1))
        first = suite.encrypt_page(message)
        second = suite.encrypt_page(message)
        assert first != second
        frontend.serve(session, first)
        frontend.serve(session, second)
        assert frontend.counters.get("requests") == 2
        assert frontend.counters.get("requests.duplicate") == 0

    def test_refused_replies_are_not_cached(self):
        frontend = make_frontend()
        session = frontend.open_session()
        garbage = b"\x00" * 48
        frontend.serve(session, garbage)
        frontend.serve(session, garbage)
        # Both deliveries re-execute (refusals mutate nothing durable).
        assert frontend.counters.get("requests") == 2
        assert frontend.counters.get("requests.duplicate") == 0

    def test_cache_dropped_with_session(self):
        frontend = make_frontend()
        client = ServiceClient(frontend)
        client.query(1)
        assert len(frontend._reply_cache) == 1
        client.close()
        assert len(frontend._reply_cache) == 0
