"""Admission-control tests (repro.net.admission)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.admission import (
    SHED_RETRY_HINT,
    AdmissionController,
    TokenBucket,
)
from repro.obs import MetricsRegistry


class FakeTime:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeTime()
        bucket = TokenBucket(rate=1.0, capacity=3.0, time_source=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        clock = FakeTime()
        bucket = TokenBucket(rate=2.0, capacity=2.0, time_source=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # +1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_capacity(self):
        clock = FakeTime()
        bucket = TokenBucket(rate=10.0, capacity=2.0, time_source=clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_retry_after_reflects_deficit(self):
        clock = FakeTime()
        bucket = TokenBucket(rate=4.0, capacity=1.0, time_source=clock)
        assert bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.25)
        clock.advance(0.25)
        assert bucket.retry_after() == pytest.approx(0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, capacity=-1.0)


class TestAdmissionController:
    def test_session_cap(self):
        controller = AdmissionController(max_sessions=2)
        assert controller.admit_session(0) is None
        assert controller.admit_session(1) is None
        refusal = controller.admit_session(2)
        assert refusal is not None
        assert refusal.code == "unavailable"
        assert refusal.retryable
        assert controller.counters.get("shed.sessions") == 1
        assert controller.counters.get("shed") == 1

    def test_queue_depth_gate(self):
        controller = AdmissionController(max_queue_depth=4)
        assert controller.admit_request(3) is None
        refusal = controller.admit_request(4)
        assert refusal is not None and refusal.retryable
        assert controller.counters.get("shed.queue") == 1

    def test_queue_shed_spends_no_rate_token(self):
        """Regression: the rate gate ran first, so each queue-shed request
        drained a token and the next request was rate-shed although
        nothing had been admitted."""
        clock = FakeTime()  # frozen: no refill
        bucket = TokenBucket(rate=1.0, capacity=2.0, time_source=clock)
        controller = AdmissionController(max_queue_depth=1, bucket=bucket)
        for _ in range(2):
            refusal = controller.admit_request(5)
            assert refusal is not None and "queue depth" in refusal.reason
        assert bucket.tokens == pytest.approx(2.0)
        assert controller.admit_request(0) is None
        assert controller.counters.get("shed.queue") == 2
        assert controller.counters.get("shed.rate") == 0

    def test_both_gates_shedding_counts_the_queue(self):
        clock = FakeTime()
        bucket = TokenBucket(rate=1.0, capacity=1.0, time_source=clock)
        controller = AdmissionController(max_queue_depth=1, bucket=bucket)
        assert controller.admit_request(0) is None  # drains the bucket
        refusal = controller.admit_request(1)
        assert "queue depth" in refusal.reason
        assert controller.counters.get("shed.queue") == 1
        assert controller.counters.get("shed.rate") == 0

    def test_rate_gate_uses_bucket_hint(self):
        clock = FakeTime()
        bucket = TokenBucket(rate=1.0, capacity=1.0, time_source=clock)
        controller = AdmissionController(bucket=bucket)
        assert controller.admit_request(0) is None
        refusal = controller.admit_request(0)
        assert refusal is not None
        assert refusal.code == "unavailable"
        assert refusal.retry_after == pytest.approx(1.0)
        assert controller.counters.get("shed.rate") == 1

    def test_disabled_gates_admit_everything(self):
        controller = AdmissionController()
        for depth in (0, 10, 10_000):
            assert controller.admit_request(depth) is None
        assert controller.admit_session(10_000) is None
        assert controller.counters.get("shed") == 0

    def test_retry_hint_floors_retry_after(self):
        clock = FakeTime()
        # A bucket that refills within the floor: its own hint is 1 ms.
        bucket = TokenBucket(rate=1000.0, capacity=1.0, time_source=clock)
        controller = AdmissionController(max_sessions=1, bucket=bucket)
        assert controller.admit_session(1).retry_after == SHED_RETRY_HINT
        assert controller.admit_request(0) is None
        assert controller.admit_request(0).retry_after == SHED_RETRY_HINT

    def test_counters_mirror_into_registry(self):
        registry = MetricsRegistry()
        controller = AdmissionController(max_sessions=1, metrics=registry)
        controller.admit_session(5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["net.shed"] == 1
        assert snapshot["counters"]["net.shed.sessions"] == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_sessions=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue_depth=-1)
