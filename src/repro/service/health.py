"""Service health tracking and graceful degradation.

Two pieces:

* :func:`classify` maps every :class:`~repro.errors.ReproError` subclass to
  a deterministic :class:`Refusal` — a stable machine-readable code, a
  retryability flag, and a severity saying how the fault affects service
  health.  Classification walks the exception's MRO, so new subclasses
  automatically inherit their parent's refusal behaviour until given an
  entry of their own.

* :class:`HealthMonitor` is the frontend's state machine::

      healthy ──(DEGRADE_AFTER consecutive faults)──▶ degraded
      degraded ──(success)──▶ healthy
      degraded ──(FAIL_AFTER consecutive faults)──▶ failed
      any ──(fatal fault, e.g. RecoveryError)──▶ failed
      failed ──(mark_recovered(), operator/recovery action)──▶ healthy

  In the *degraded* state the service keeps working but its refusals carry
  a growing retry-after hint so well-behaved clients back off.  In the
  *failed* state it sheds all load with ``Refused(code="unavailable")``
  without touching the engine — protecting a possibly-inconsistent store
  from further writes until ``recover()`` has run.

Everything is deterministic: transitions depend only on the observed
fault/success sequence, and hints grow linearly with the fault streak, so
seeded fault runs produce byte-identical refusal streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import (
    AuthenticationError,
    CapacityError,
    ConfigurationError,
    CryptoError,
    DegradedServiceError,
    IndexError_,
    PageDeletedError,
    PageNotFoundError,
    ProtocolError,
    RecoveryError,
    ReproError,
    StorageError,
    TransientChannelError,
    TransientStorageError,
)
from ..obs.registry import CounterView, registry_or_private

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "FAILED",
    "SEVERITY_CLIENT",
    "SEVERITY_FAULT",
    "SEVERITY_FATAL",
    "Refusal",
    "classify",
    "error_for_refusal",
    "HealthMonitor",
]

HEALTHY = "healthy"
DEGRADED = "degraded"
FAILED = "failed"

# How a refused request affects service health: client-caused refusals are
# the service working as intended; faults feed the degradation streak;
# fatal errors take the service down immediately.
SEVERITY_CLIENT = "client"
SEVERITY_FAULT = "fault"
SEVERITY_FATAL = "fatal"


@dataclass(frozen=True)
class Refusal:
    """Deterministic refusal descriptor for one error class."""

    code: str
    retryable: bool
    severity: str


# Most-derived classes first is not required — lookup walks the *instance's*
# MRO — but keep the table readable by hierarchy anyway.
_REFUSALS = {
    PageDeletedError: Refusal("deleted", False, SEVERITY_CLIENT),
    PageNotFoundError: Refusal("not-found", False, SEVERITY_CLIENT),
    TransientStorageError: Refusal("transient-storage", True, SEVERITY_FAULT),
    StorageError: Refusal("storage", False, SEVERITY_FAULT),
    AuthenticationError: Refusal("auth-failure", False, SEVERITY_FAULT),
    CryptoError: Refusal("crypto", False, SEVERITY_FAULT),
    TransientChannelError: Refusal("transient-channel", True, SEVERITY_FAULT),
    ProtocolError: Refusal("protocol", False, SEVERITY_CLIENT),
    ConfigurationError: Refusal("bad-request", False, SEVERITY_CLIENT),
    CapacityError: Refusal("capacity", False, SEVERITY_CLIENT),
    RecoveryError: Refusal("recovery-failed", False, SEVERITY_FATAL),
    DegradedServiceError: Refusal("unavailable", True, SEVERITY_CLIENT),
    IndexError_: Refusal("index", False, SEVERITY_FAULT),
    ReproError: Refusal("internal", False, SEVERITY_FAULT),
}


def classify(exc: BaseException) -> Refusal:
    """The deterministic refusal descriptor for any library error.

    Every :class:`ReproError` subclass resolves to exactly one entry (its
    own, or the nearest ancestor's); non-library exceptions classify as
    ``internal`` so the frontend never leaks a raw traceback to a client.
    """
    for klass in type(exc).__mro__:
        refusal = _REFUSALS.get(klass)
        if refusal is not None:
            return refusal
    return _REFUSALS[ReproError]


# Inverse of _REFUSALS at code granularity (codes are unique per class).
_CODE_ERRORS = {refusal.code: klass for klass, refusal in _REFUSALS.items()}


def error_for_refusal(
    code: str, message: str, retry_after: float = -1.0
) -> ReproError:
    """Reconstruct the client-side exception for a ``Refused`` reply.

    The inverse of :func:`classify` at refusal-code granularity, so a
    server-side ``PageNotFoundError`` surfaces to the caller as a
    :class:`~repro.errors.PageNotFoundError` rather than a generic client
    error.  Retryable refusals (``retry_after >= 0``) always come back as
    :class:`~repro.errors.DegradedServiceError` carrying the server's
    hint, which is what the client retry loop keys on; unknown or legacy
    (empty) codes fall back to the :class:`~repro.errors.ReproError` base.
    """
    if retry_after >= 0.0:
        return DegradedServiceError(message, retry_after=retry_after)
    klass = _CODE_ERRORS.get(code, ReproError)
    if klass is DegradedServiceError:  # non-retryable hint never happens,
        return DegradedServiceError(message)  # but stay constructor-safe
    return klass(message)


#: Consecutive faults that degrade a healthy service, and that fail it.
DEGRADE_AFTER = 3
FAIL_AFTER = 8
#: Retry-after hint per fault in the current streak (seconds), and its cap.
RETRY_HINT = 0.05
MAX_HINT = 5.0


class HealthMonitor:
    """Consecutive-fault health state machine (see module docstring).

    The advertised retry-after hint is :data:`RETRY_HINT` times the
    current fault streak, capped at :data:`MAX_HINT`.

    ``registry`` (a :class:`~repro.obs.registry.MetricsRegistry`, private
    when None) exposes the live state as gauges: ``health.state`` (0
    healthy, 1 degraded, 2 failed) and ``health.fault_streak``; the
    ``health.*`` counters go to ``counters`` (the frontend passes its
    own) or to the registry.
    """

    _STATE_CODES = {HEALTHY: 0, DEGRADED: 1, FAILED: 2}

    def __init__(self, counters: Optional[CounterView] = None,
                 registry=None):
        registry = registry_or_private(registry)
        self.counters = (counters if counters is not None
                         else registry.counter_view())
        self._state_gauge = registry.gauge("health.state")
        self._streak_gauge = registry.gauge("health.fault_streak")
        self.state = HEALTHY
        self._streak = 0
        self._publish()

    def _publish(self) -> None:
        self._state_gauge.set(self._STATE_CODES[self.state])
        self._streak_gauge.set(self._streak)

    @property
    def fault_streak(self) -> int:
        return self._streak

    @property
    def retry_after(self) -> float:
        """Suggested client backoff given the current fault streak."""
        return min(RETRY_HINT * max(1, self._streak), MAX_HINT)

    def check(self) -> None:
        """Admission control: raise instead of touching a failed engine."""
        if self.state == FAILED:
            raise DegradedServiceError(
                "service is failed pending recovery",
                retry_after=self.retry_after,
            )

    def record_success(self) -> None:
        self._streak = 0
        if self.state == DEGRADED:
            self.state = HEALTHY
            self.counters.increment("health.recovered")
        self._publish()

    def record_fault(self, fatal: bool = False) -> None:
        self._streak += 1
        self.counters.increment("health.faults")
        if fatal or self._streak >= FAIL_AFTER:
            if self.state != FAILED:
                self.counters.increment("health.failed")
            self.state = FAILED
        elif self.state == HEALTHY and self._streak >= DEGRADE_AFTER:
            self.state = DEGRADED
            self.counters.increment("health.degraded")
        self._publish()

    def mark_recovered(self) -> None:
        """Operator/recovery acknowledgement: return to service."""
        self._streak = 0
        if self.state != HEALTHY:
            self.counters.increment("health.recovered")
        self.state = HEALTHY
        self._publish()
