"""Admission control for the network server: shed load, don't drop it.

Three independent gates, all answering with the *existing* retryable
refusal vocabulary (:class:`repro.service.protocol.Refused` with code
``unavailable`` and a positive ``retry_after``) instead of slamming the
connection shut — a shed client backs off and retries through the same
:class:`~repro.errors.DegradedServiceError` path it already uses for a
degraded engine:

* a **max-concurrent-sessions** cap, checked at handshake time;
* a **token bucket** bounding sustained request rate (capacity = burst);
* a **queue-depth** bound — when the requests waiting for the server's
  serving lock back up, extra requests are refused before they queue,
  keeping worst-case latency for admitted requests proportional to the
  configured depth.

Every shed increments ``net.shed`` plus a per-gate counter
(``net.shed.sessions`` / ``net.shed.rate`` / ``net.shed.queue``), so the
load generator and ``benchmarks/bench_net.py`` can observe backpressure
engaging.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..errors import ConfigurationError
from ..obs.registry import registry_or_private
from ..service import protocol

__all__ = ["TokenBucket", "AdmissionController"]

#: Refusal code for admission sheds — the same retryable slug a degraded
#: engine uses, so existing client retry loops honour it unchanged.
SHED_CODE = "unavailable"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``capacity`` burst.

    ``time_source`` defaults to :func:`time.monotonic`; tests inject a fake
    clock for deterministic refill behaviour.  Acquisition is not
    thread-safe on its own — the server consults it only from the
    event-loop thread — but :meth:`retune` may be called concurrently
    (the :mod:`repro.plan` controller runs on its own thread), so the
    refill/retune pair shares an internal lock.
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        time_source: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0 or capacity <= 0:
            raise ConfigurationError(
                "token bucket rate and capacity must be positive"
            )
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._time_source = time_source
        self._tokens = self.capacity
        self._last_refill = time_source()
        self._lock = threading.Lock()

    def retune(self, rate: Optional[float] = None,
               capacity: Optional[float] = None) -> None:
        """Change ``rate`` and/or ``capacity`` without resetting the level.

        Accrued tokens at the old rate are banked first, then the new
        parameters apply; shrinking ``capacity`` clips the current level
        so a burst allowance cut takes effect immediately.
        """
        if rate is not None and rate <= 0:
            raise ConfigurationError("token bucket rate must be positive")
        if capacity is not None and capacity <= 0:
            raise ConfigurationError("token bucket capacity must be positive")
        with self._lock:
            self._refill_locked()
            if rate is not None:
                self.rate = float(rate)
            if capacity is not None:
                self.capacity = float(capacity)
                self._tokens = min(self._tokens, self.capacity)

    def _refill_locked(self) -> None:
        now = self._time_source()
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.capacity,
                               self._tokens + elapsed * self.rate)
        self._last_refill = now

    def _refill(self) -> None:
        with self._lock:
            self._refill_locked()

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; False means shed."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will have accumulated."""
        with self._lock:
            self._refill_locked()
            deficit = amount - self._tokens
            if deficit <= 0:
                return 0.0
            return deficit / self.rate


class AdmissionController:
    """Decides, per handshake and per request, whether to admit or shed.

    The ``admit_*`` methods return ``None`` to admit or a retryable
    :class:`~repro.service.protocol.Refused` describing the shed; the
    server turns the refusal into an envelope REFUSED frame.  ``None``
    gates (``bucket=None``, ``max_sessions=None``, …) are disabled.
    """

    def __init__(
        self,
        max_sessions: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        bucket: Optional[TokenBucket] = None,
        retry_hint: float = 0.05,
        metrics=None,
    ):
        if max_sessions is not None and max_sessions <= 0:
            raise ConfigurationError("max_sessions must be positive")
        if max_queue_depth is not None and max_queue_depth <= 0:
            raise ConfigurationError("max_queue_depth must be positive")
        if retry_hint < 0:
            raise ConfigurationError("retry_hint must be non-negative")
        self.max_sessions = max_sessions
        self.max_queue_depth = max_queue_depth
        self.bucket = bucket
        self.retry_hint = retry_hint
        self.counters = registry_or_private(metrics).counter_view("net.")

    def retune(self, rate: Optional[float] = None,
               capacity: Optional[float] = None) -> None:
        """Adjust the token-bucket gate in place (see ``TokenBucket.retune``).

        No-op when rate limiting is disabled (``bucket=None``) — the
        controller cannot conjure a gate the operator didn't configure.
        """
        if self.bucket is not None:
            self.bucket.retune(rate=rate, capacity=capacity)

    def _shed(self, gate: str, reason: str,
              retry_after: float) -> protocol.Refused:
        self.counters.increment("shed")
        self.counters.increment(f"shed.{gate}")
        return protocol.Refused(reason, SHED_CODE,
                                max(retry_after, self.retry_hint))

    def admit_session(self, active_sessions: int) -> Optional[protocol.Refused]:
        """Handshake gate: refuse when the session table is full."""
        if (self.max_sessions is not None
                and active_sessions >= self.max_sessions):
            return self._shed(
                "sessions",
                f"session limit {self.max_sessions} reached",
                self.retry_hint,
            )
        return None

    def admit_request(self, queue_depth: int) -> Optional[protocol.Refused]:
        """Per-request gate: rate limit first, then queue backpressure."""
        if self.bucket is not None and not self.bucket.try_acquire():
            return self._shed(
                "rate",
                "request rate limit exceeded",
                self.bucket.retry_after(),
            )
        if (self.max_queue_depth is not None
                and queue_depth >= self.max_queue_depth):
            return self._shed(
                "queue",
                f"request queue depth {self.max_queue_depth} reached",
                self.retry_hint,
            )
        return None
