"""Retry with exponential backoff and deterministic jitter.

Backoff sleeps are charged to the shared :class:`~repro.sim.clock
.VirtualClock` and jitter is drawn from an injected
:class:`~repro.crypto.rng.SecureRandom`, so a retried workload is exactly
as reproducible as a fault-free one: same seed, same fault plan, same
byte-identical trace and metrics.

The jitter is *decorrelating* in the usual sense — attempt ``i`` waits
``base * multiplier**i`` scaled down by up to ``jitter`` — but because the
RNG is seeded there is nothing nondeterministic about it; "jitter" here
spreads retries across virtual time, not across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from ..crypto.rng import SecureRandom
from ..errors import ConfigurationError
from ..obs.registry import CounterView
from ..sim.clock import VirtualClock

__all__ = ["RetryPolicy", "retry_call"]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff schedule: attempts, delays and jitter fraction."""

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def delay_for(self, attempt: int, rng: SecureRandom) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered."""
        raw = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


def retry_call(
    operation: Callable[[], T],
    policy: RetryPolicy,
    clock: VirtualClock,
    rng: SecureRandom,
    retry_on: Tuple[Type[BaseException], ...],
    counters: Optional[CounterView] = None,
    counter: str = "retries",
) -> T:
    """Run ``operation`` up to ``policy.max_attempts`` times.

    Exceptions in ``retry_on`` trigger a backoff (charged to ``clock``, or
    to anything with an ``advance(seconds)``) and another attempt; the
    final attempt's exception propagates unchanged.  An exception's
    ``retry_after`` hint (a server's refusal carries one) floors its
    backoff.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except retry_on as exc:
            if attempt + 1 >= policy.max_attempts:
                raise
            delay = max(policy.delay_for(attempt, rng),
                        getattr(exc, "retry_after", 0.0))
            clock.advance(delay)
            if counters is not None:
                counters.increment(counter)
            attempt += 1
