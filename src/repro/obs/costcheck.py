"""Eq. 8 conformance: measured per-phase cost vs. the analytic prediction.

The paper's headline claim is that every request costs exactly

    Q_t = 4*t_s + 2(k+1)*B*(1/r_d + 1/r_b + 1/r_ed)        (Eq. 8)

:class:`CostModelCheck` verifies that claim against an *executed* engine:
it reads the per-phase totals out of a :class:`~repro.obs.tracer.Tracer`
(virtual-clock durations and byte counts) and reports, for each Eq. 8 term,
the measured/predicted ratio.  On a fault-free run with the Table-2
hardware spec every ratio is 1.0 to floating-point accuracy, because the
engine moves exactly ``2(k+1)`` frames per request; retries, fault
injection, or a hot-path regression that moves extra bytes push the
affected ratio above 1, which is what the conformance check (and the
exact per-phase rows in ``tests/test_perf_gate.py``) detects.

Phase-to-term mapping (span names are the DESIGN.md §9 taxonomy):

========  ==========================================  =======================
term      measured from                               predicted per query
========  ==========================================  =======================
seek      (count(disk.read)+count(disk.write))*t_s    4 * t_s
disk      virtual(disk.read+disk.write) - seeks       2(k+1) * F / r_d
link      bytes(link.ingest+link.egress) / r_b        2(k+1) * F / r_b
crypto    bytes(decrypt+reencrypt) / r_ed             2(k+1) * F / r_ed
total     virtual(request)                            Q_t(k, F)
========  ==========================================  =======================

``F`` is the *frame* size (payload + page header + nonce + MAC), matching
what actually crosses the disk, link and crypto engine — the paper's ``B``
with the implementation's constant overhead, same as
:meth:`repro.core.database.PirDatabase.expected_query_time`.

Note on the crypto term and the CTR fast path (DESIGN.md §11): the
``crypto`` ratio compares *virtual* time — bytes through the cipher over
the spec's ``r_ed`` — so it stays exactly 1.0 whether or not the T-table
AES kernel is enabled; it neither changes the bytes moved nor charges
the virtual clock.  What the fast path *does*
shift is the implied Python-measured ``r_ed`` (wall bytes/second), by
roughly the kernel speedup ``benchmarks/bench_ctr.py`` reports (~40x
with the numpy lane).  That is by design: Eq. 8 conformance models the
paper's hardware, while wall-clock throughput is the simulator's own
cost, measured separately by BENCH (``benchmarks/e2e/run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .tracer import Tracer
from ..errors import ConfigurationError
from ..hardware.specs import HardwareSpec

__all__ = ["TermConformance", "CostModelCheck"]


@dataclass(frozen=True)
class TermConformance:
    """One Eq. 8 term's measured-vs-predicted comparison."""

    term: str
    measured_seconds: float
    predicted_seconds: float
    #: measured/predicted; 0.0 when the prediction is zero (e.g. an
    #: instantaneous spec) and nothing was measured either.
    ratio: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": "costcheck",
            "term": self.term,
            "measured_s": self.measured_seconds,
            "predicted_s": self.predicted_seconds,
            "ratio": self.ratio,
        }


def _ratio(measured: float, predicted: float) -> float:
    if predicted > 0.0:
        return measured / predicted
    return 0.0 if measured == 0.0 else float("inf")


class CostModelCheck:
    """Compare a traced run against the Eq. 8 terms for (k, F, spec)."""

    def __init__(self, spec: HardwareSpec, block_size: int, frame_size: int):
        if block_size < 1 or frame_size <= 0:
            raise ConfigurationError(
                "block_size and frame_size must be positive"
            )
        self.spec = spec
        self.block_size = block_size
        self.frame_size = frame_size

    def predicted_terms(self) -> Dict[str, float]:
        """Eq. 8's additive terms, per query, using the frame size."""
        from ..analysis.costmodel import eq8_terms

        return eq8_terms(self.spec, self.block_size, self.frame_size)

    def evaluate(self, tracer: Tracer, queries: int) -> List[TermConformance]:
        """Per-term conformance of ``queries`` traced requests.

        Requires a tracer that ran with a bound virtual clock (see
        :meth:`~repro.obs.tracer.Tracer.bind_clock`); wall-clock times are
        machine-dependent and are BENCH's business instead.
        """
        if queries <= 0:
            raise ConfigurationError("queries must be positive")
        predicted = self.predicted_terms()
        spec = self.spec
        totals = tracer.phase_totals()

        def phase(name: str):
            return totals.get(name)

        disk_count = disk_virtual = disk_bytes = 0.0
        for name in ("disk.read", "disk.write"):
            total = phase(name)
            if total is not None:
                disk_count += total.count
                disk_virtual += total.virtual_seconds
                disk_bytes += total.nbytes
        link_bytes = 0.0
        for name in ("link.ingest", "link.egress"):
            total = phase(name)
            if total is not None:
                link_bytes += total.nbytes
        crypto_bytes = 0.0
        for name in ("decrypt", "reencrypt"):
            total = phase(name)
            if total is not None:
                crypto_bytes += total.nbytes
        request = phase("request")
        request_virtual = request.virtual_seconds if request else 0.0

        seek_measured = disk_count * spec.disk.seek_time
        rows = [
            ("seek", seek_measured, predicted["seek"] * queries),
            ("disk", max(0.0, disk_virtual - seek_measured),
             predicted["disk"] * queries),
            ("link", link_bytes / spec.link_bandwidth,
             predicted["link"] * queries),
            ("crypto", crypto_bytes / spec.crypto_throughput,
             predicted["crypto"] * queries),
            ("total", request_virtual, predicted["total"] * queries),
        ]
        return [
            TermConformance(term, measured, pred, _ratio(measured, pred))
            for term, measured, pred in rows
        ]

    @classmethod
    def for_database(cls, database) -> "CostModelCheck":
        """Build the check from a live :class:`~repro.core.database.PirDatabase`."""
        return cls(
            database.cop.spec,
            database.params.block_size,
            database.cop.frame_size,
        )
