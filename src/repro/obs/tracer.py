"""Per-query phase tracing with a no-op fast path.

A :class:`Tracer` produces nested :class:`Span`\\ s for the canonical query
phases (position-map lookup, k+1 frame read, decrypt, MAC verify, cache op,
eviction, re-encrypt, journal seal, write-back, fsync — see DESIGN.md §9 for
the full taxonomy).  Every span records

* **wall time** (``time.perf_counter``) — where a request's real time
  went (read by ``repro metrics`` and the end-to-end harness's ledger;
  no gate compares it), and
* **virtual time** — the deterministic simulated cost charged to the shared
  :class:`~repro.sim.clock.VirtualClock`, when one is bound via
  :meth:`Tracer.bind_clock`.  Virtual durations are byte-identical across
  machines and are what :meth:`repro.plan.CalibratedCostModel.check`
  compares against the Eq. 8 predictions.

Spans are context managers and close correctly on exceptions (the ``error``
field records the exception type), so fault-injected runs — a
``FaultyDiskStore`` raising mid-write-back, a ``SimulatedCrash`` — never
leave the tracer's stack unbalanced.

Disabled tracers are free-by-construction: :meth:`Tracer.span` returns a
shared singleton whose ``__enter__``/``__exit__`` do nothing, so the only
cost on the hot path is one method call per instrumentation site.
Components default to the module-level :data:`NULL_TRACER`.

Two detail levels keep the hot path lean: ``DETAIL_PHASE`` (the default)
emits only the per-phase spans listed above; ``DETAIL_FINE`` additionally
emits per-frame crypto spans (``crypto.mac_verify``, ``crypto.keystream``)
— useful for drilling into the crypto engine, far too hot for benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError

__all__ = [
    "DETAIL_PHASE",
    "DETAIL_FINE",
    "Span",
    "PhaseTotal",
    "Tracer",
    "NULL_TRACER",
]

DETAIL_PHASE = "phase"
DETAIL_FINE = "fine"
_DETAILS = (DETAIL_PHASE, DETAIL_FINE)


class _NoopSpan:
    """Shared do-nothing span for disabled tracers and filtered detail."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopSpan()


class Span:
    """One timed phase; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = (
        "name", "nbytes", "depth", "index", "parent_index",
        "wall_start", "wall_end", "virtual_start", "virtual_end",
        "error", "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, nbytes: int):
        self._tracer = tracer
        self.name = name
        self.nbytes = nbytes
        self.depth = 0
        self.index = 0
        self.parent_index: Optional[int] = None
        self.wall_start = 0.0
        self.wall_end = 0.0
        self.virtual_start = 0.0
        self.virtual_end = 0.0
        self.error: Optional[str] = None

    @property
    def wall_seconds(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def virtual_seconds(self) -> float:
        return self.virtual_end - self.virtual_start

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.error = exc_type.__name__
        self._tracer._close(self)
        return False

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent_index,
            "depth": self.depth,
            "wall_s": self.wall_seconds,
            "virtual_s": self.virtual_seconds,
            "bytes": self.nbytes,
            "error": self.error,
        }


@dataclass
class PhaseTotal:
    """Aggregate of all spans sharing one name."""

    count: int = 0
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    nbytes: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "wall_s": self.wall_seconds,
            "virtual_s": self.virtual_seconds,
            "bytes": self.nbytes,
            "errors": self.errors,
        }


class Tracer:
    """Produces nested spans; aggregates per-phase totals as spans close.

    Not thread-safe by design (one tracer per engine/thread — the engine
    itself is single-threaded); the :class:`~repro.obs.registry
    .MetricsRegistry` is the thread-safe aggregation point.

    ``max_spans`` bounds the raw span list (totals keep accumulating past
    it), so long runs cannot exhaust memory.
    """

    def __init__(
        self,
        enabled: bool = True,
        detail: str = DETAIL_PHASE,
        max_spans: int = 100_000,
    ):
        if detail not in _DETAILS:
            raise ConfigurationError(
                f"unknown detail {detail!r}; expected one of {_DETAILS}"
            )
        if max_spans < 0:
            raise ConfigurationError("max_spans must be non-negative")
        self.enabled = enabled
        self.detail = detail
        self.max_spans = max_spans
        self.spans: List[Span] = []
        # Callable returning virtual seconds, or None (see bind_clock).
        self._vclock: Optional[Callable[[], float]] = None
        self._stack: List[Span] = []
        self._totals: Dict[str, PhaseTotal] = {}
        self._next_index = 0
        self._dropped = 0

    # -- wiring ---------------------------------------------------------------

    def bind_clock(self, clock) -> None:
        """Attach a virtual-time source: a VirtualClock or a callable."""
        if clock is None:
            self._vclock = None
        elif callable(clock):
            self._vclock = clock
        else:
            self._vclock = lambda: clock.now

    @property
    def fine(self) -> bool:
        """True when per-frame crypto spans should be emitted."""
        return self.enabled and self.detail == DETAIL_FINE

    @property
    def active_depth(self) -> int:
        """Number of currently open spans (0 when idle)."""
        return len(self._stack)

    @property
    def dropped_spans(self) -> int:
        """Raw spans discarded past ``max_spans`` (totals still counted)."""
        return self._dropped

    # -- span production ------------------------------------------------------

    def span(self, name: str, nbytes: int = 0):
        """A context manager timing one phase; no-op when disabled."""
        if not self.enabled:
            return _NOOP
        return Span(self, name, nbytes)

    def fine_span(self, name: str, nbytes: int = 0):
        """Like :meth:`span` but only emitted at ``DETAIL_FINE``."""
        if not self.enabled or self.detail != DETAIL_FINE:
            return _NOOP
        return Span(self, name, nbytes)

    def _open(self, span: Span) -> None:
        span.index = self._next_index
        self._next_index += 1
        span.depth = len(self._stack)
        span.parent_index = self._stack[-1].index if self._stack else None
        self._stack.append(span)
        if self._vclock is not None:
            span.virtual_start = self._vclock()
        span.wall_start = time.perf_counter()

    def _close(self, span: Span) -> None:
        end = time.perf_counter()
        span.wall_end = end
        if self._vclock is not None:
            span.virtual_end = self._vclock()
        # Close any children the exception unwound past, innermost first,
        # so a fault mid-phase can never leave the stack unbalanced.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.error = top.error or "UnwoundParent"
            top.wall_end = end
            if self._vclock is not None:
                top.virtual_end = span.virtual_end
            self._record(top)
        self._record(span)

    def _record(self, span: Span) -> None:
        total = self._totals.get(span.name)
        if total is None:
            total = self._totals[span.name] = PhaseTotal()
        total.count += 1
        total.wall_seconds += span.wall_seconds
        total.virtual_seconds += span.virtual_seconds
        total.nbytes += span.nbytes
        if span.error is not None:
            total.errors += 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self._dropped += 1

    # -- aggregation ----------------------------------------------------------

    def phase_totals(self) -> Dict[str, PhaseTotal]:
        """Per-phase aggregates of every *closed* span, keyed by name."""
        return dict(self._totals)

    def total(self, name: str) -> PhaseTotal:
        """The aggregate for one phase (zeros if the phase never ran)."""
        return self._totals.get(name, PhaseTotal())

    def reset(self) -> None:
        """Drop all closed spans and totals; open spans are unaffected."""
        self.spans = []
        self._totals = {}
        self._dropped = 0


#: Shared disabled tracer — the default for every instrumented component.
NULL_TRACER = Tracer(enabled=False)
