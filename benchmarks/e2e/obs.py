"""Harness-side tracing: measured from outside the program.

The program is only given its public ``tracer=`` / ``metrics=`` arguments;
boundaries it has no span for (journal file I/O, replication emit / barrier /
apply) get a span from a wrapper around the public method, recorded into the
same tracer so self times subtract correctly.  Spans inside the program are
a later change (ROADMAP item 5).
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.obs import span_rows
from repro.obs.tracer import Tracer

MAX_SPANS = 2_000_000
_EMPTY_ROW = {"count": 0, "total_s": 0.0, "self_s": 0.0, "virtual_s": 0.0,
              "bytes": 0}


class ThreadTracer(Tracer):
    """One plain :class:`Tracer` per thread behind a single ``tracer=``.

    ``Tracer`` keeps one span stack and is single-threaded by contract.  A
    replicated backend enters the engine from two threads (the serving
    worker and the replication-apply worker), so this hands each thread its
    own tracer.  That also keeps the serve path and the apply path apart in
    the ledger.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False, max_spans=MAX_SPANS)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._clock = None
        self.by_thread: Dict[str, Tracer] = {}

    def bind_clock(self, clock) -> None:
        self._clock = clock

    def _mine(self) -> Tracer:
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            tracer = Tracer(max_spans=MAX_SPANS)
            tracer.bind_clock(self._clock)
            self._local.tracer = tracer
            with self._lock:
                self.by_thread[threading.current_thread().name] = tracer
        return tracer

    def span(self, name: str, nbytes: int = 0):
        if not self.enabled:
            return super().span(name, nbytes)
        return self._mine().span(name, nbytes)

    def summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per thread, per span name: count, total and self wall seconds, bytes.

        A span's self time is its duration minus its direct children's.
        Cumulative since tracing was switched on; callers diff two
        summaries to get a phase's share.
        """
        out = {}
        for thread, tracer in list(self.by_thread.items()):
            spans = list(tracer.spans)
            name_of = {span.index: span.name for span in spans}
            rows: Dict[str, Dict[str, float]] = {}
            for span in spans:
                row = rows.setdefault(span.name, dict(_EMPTY_ROW))
                row["count"] += 1
                row["virtual_s"] += span.virtual_seconds
                row["total_s"] += span.wall_seconds
                row["self_s"] += span.wall_seconds
                row["bytes"] += span.nbytes
                parent = name_of.get(span.parent_index)
                if parent is not None:
                    rows.setdefault(parent, dict(_EMPTY_ROW))[
                        "self_s"] -= span.wall_seconds
            out[thread] = rows
        return out

    def dropped(self) -> int:
        return sum(t.dropped_spans for t in list(self.by_thread.values()))

    def span_dicts(self) -> List[Dict[str, object]]:
        return [dict(row, thread=thread)
                for thread, tracer in list(self.by_thread.items())
                for row in span_rows(tracer)]


class TimedJournal:
    """Spans around a journal's ``write`` / ``clear`` (the engine's
    ``journal.seal`` span covers sealing + write, and nothing covers the
    clear's unlink + directory fsync)."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.bytes_written = 0

    def write(self, blob: bytes) -> None:
        self.bytes_written += len(blob)
        with self.tracer.span("journal.write", nbytes=len(blob)):
            self.inner.write(blob)

    def read(self):
        return self.inner.read()

    def clear(self) -> None:
        with self.tracer.span("journal.clear"):
            self.inner.clear()


def span_around(obj, method: str, tracer: Tracer, name: str) -> None:
    """Replace ``obj.method`` with one that runs inside a ``name`` span."""
    inner = getattr(obj, method)

    def timed(*args, **kwargs):
        with tracer.span(name):
            return inner(*args, **kwargs)

    setattr(obj, method, timed)
