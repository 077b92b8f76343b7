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

import time
from typing import Callable, Optional

from ..errors import ConfigurationError
from ..obs.registry import registry_or_private
from ..service import protocol

__all__ = ["TokenBucket", "AdmissionController"]

#: Refusal code for admission sheds — the same retryable slug a degraded
#: engine uses, so existing client retry loops honour it unchanged.
SHED_CODE = "unavailable"

#: The least retry-after a shed advertises (seconds).
SHED_RETRY_HINT = 0.05


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``capacity`` burst.

    ``time_source`` defaults to :func:`time.monotonic`; tests inject a fake
    clock for deterministic refill behaviour.  Not thread-safe, and it
    need not be: see :class:`AdmissionController`.
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

    def _refill(self) -> None:
        now = self._time_source()
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(self.capacity,
                               self._tokens + elapsed * self.rate)
        self._last_refill = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; False means shed."""
        self._refill()
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def retry_after(self, amount: float = 1.0) -> float:
        """Seconds until ``amount`` tokens will have accumulated."""
        self._refill()
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

    One thread at a time, by rule rather than by lock: a controller (and
    its bucket) belongs to one :class:`~repro.net.server.PirServer`, which
    calls it only from its loop thread.  The gates are fixed when the
    controller is built; a different rate is a new plan, deployed.
    """

    def __init__(
        self,
        max_sessions: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        bucket: Optional[TokenBucket] = None,
        metrics=None,
    ):
        if max_sessions is not None and max_sessions <= 0:
            raise ConfigurationError("max_sessions must be positive")
        if max_queue_depth is not None and max_queue_depth <= 0:
            raise ConfigurationError("max_queue_depth must be positive")
        self.max_sessions = max_sessions
        self.max_queue_depth = max_queue_depth
        self.bucket = bucket
        self.counters = registry_or_private(metrics).counter_view("net.")

    def _shed(self, gate: str, reason: str,
              retry_after: float) -> protocol.Refused:
        self.counters.increment("shed")
        self.counters.increment(f"shed.{gate}")
        return protocol.Refused(reason, SHED_CODE,
                                max(retry_after, SHED_RETRY_HINT))

    def admit_session(self, active_sessions: int) -> Optional[protocol.Refused]:
        """Handshake gate: refuse when the session table is full."""
        if (self.max_sessions is not None
                and active_sessions >= self.max_sessions):
            return self._shed(
                "sessions",
                f"session limit {self.max_sessions} reached",
                SHED_RETRY_HINT,
            )
        return None

    def admit_request(self, queue_depth: int) -> Optional[protocol.Refused]:
        """Per-request gate: queue backpressure first, then the rate limit.

        The queue gate has no side effect, so it runs first: a request it
        sheds spends no rate token.  When both gates would shed, the
        refusal (and ``net.shed.queue``) is the queue gate's.
        """
        if (self.max_queue_depth is not None
                and queue_depth >= self.max_queue_depth):
            return self._shed(
                "queue",
                f"request queue depth {self.max_queue_depth} reached",
                SHED_RETRY_HINT,
            )
        if self.bucket is not None and not self.bucket.try_acquire():
            return self._shed(
                "rate",
                "request rate limit exceeded",
                self.bucket.retry_after(),
            )
        return None
