"""Calibrated per-phase cost model: Eq. 8's shape, measured coefficients.

Eq. 8 predicts the constant per-query time from four hardware constants
(t_s, r_d, r_b, r_ed).  Real deployments rarely match their spec sheet, so
the planner works from a :class:`CalibratedCostModel` instead: the same
*structure* — every phase's per-query cost is affine in the block size,
``cost(k) = alpha + gamma * (k + 1)`` — with coefficients taken from one
of three sources:

* :meth:`CalibratedCostModel.from_spec` — the paper's Table-2 constants,
  attributed the way the engine's tracer charges them (``query_time(k)``
  equals :func:`~repro.analysis.costmodel.eq8_terms`'s total evaluated at
  the on-disk frame size, which is what the planner round-trip property
  tests pin).
* :meth:`CalibratedCostModel.from_probe` — a short self-measured probe:
  two small databases at two pinned block sizes, the per-phase totals of a
  traced query run, and a two-point affine fit per phase.  Because every
  engine phase moves exactly ``(k + 1)`` frames per query, two block sizes
  identify both coefficients.
* :meth:`CalibratedCostModel.from_obs_rows` — the same fit over exported
  obs JSONL runs (``python -m repro metrics`` output), for planning
  against measurements taken elsewhere.

The affine form is load-bearing: it is what makes the planner's latency
inversion a monotone binary search, and what lets a two-point probe
calibrate phases whose fixed part (seeks, per-request bookkeeping) and
byte part (transfer, crypto) differ by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..crypto.suite import FRAME_OVERHEAD
from ..errors import ConfigurationError
from ..hardware.specs import IBM_4764, HardwareSpec
from ..obs.export import rows_by_kind
from ..obs.tracer import Tracer
from ..storage.page import HEADER_SIZE

__all__ = [
    "PHASE_NAMES",
    "OTHER_PHASE",
    "PhaseCoefficients",
    "CalibratedCostModel",
    "frame_size_for",
]

#: The per-query leaf phases the model predicts, matching the tracer
#: taxonomy (DESIGN.md §9).
PHASE_NAMES: Tuple[str, ...] = (
    "disk.read",
    "disk.write",
    "link.ingest",
    "link.egress",
    "decrypt",
    "reencrypt",
)

#: Residual phase: everything inside a ``request`` span that the leaf
#: phases above do not cover (page-map lookup, cache op, MAC bookkeeping,
#: journal seal).  Calibrated like any other phase; zero in spec mode
#: (Eq. 8 has no such term).
OTHER_PHASE = "other"

_PROBE_CLOCKS = ("virtual", "wall")

#: A phase whose predicted and measured seconds both lie within this
#: fraction of the measured request total is float residue (the ``other``
#: row is a difference of sums), not an unpredicted cost: it reads error 0.
_RESIDUE_FLOOR = 1e-12


def frame_size_for(page_size: int) -> int:
    """Bytes one encrypted frame occupies for ``page_size``-byte pages."""
    if page_size <= 0:
        raise ConfigurationError("page_size must be positive")
    return page_size + HEADER_SIZE + FRAME_OVERHEAD


@dataclass(frozen=True)
class PhaseCoefficients:
    """Affine per-query cost of one phase: ``alpha + gamma * (k + 1)``.

    ``alpha`` is seconds per query independent of the block size (seek
    time, fixed bookkeeping); ``gamma`` is seconds per query per moved
    frame (the ``(k + 1)`` pages each phase touches per request).
    """

    alpha: float
    gamma: float

    def cost(self, block_size: int) -> float:
        return self.alpha + self.gamma * (block_size + 1)


def _fit(points: Sequence[Tuple[int, float]]) -> PhaseCoefficients:
    """Affine fit through per-k measurements; proportional for one point.

    A negative fitted intercept (measurement noise on a near-proportional
    phase) is clamped to zero with the slope refit through the mean, so
    predictions never go negative.
    """
    if not points:
        return PhaseCoefficients(0.0, 0.0)
    if len({k for k, _ in points}) == 1:
        k, y = points[0]
        return PhaseCoefficients(0.0, max(0.0, y) / (k + 1))
    lo = min(points)
    hi = max(points)
    gamma = (hi[1] - lo[1]) / (hi[0] - lo[0])
    alpha = lo[1] - gamma * (lo[0] + 1)
    if gamma < 0 or alpha < 0:
        mean_rate = sum(y / (k + 1) for k, y in points) / len(points)
        return PhaseCoefficients(0.0, max(0.0, mean_rate))
    return PhaseCoefficients(alpha, gamma)


class CalibratedCostModel:
    """Per-phase affine cost model over the block size k (see module doc)."""

    def __init__(
        self,
        coefficients: Dict[str, PhaseCoefficients],
        page_size: int,
        source: str = "manual",
    ):
        if page_size <= 0:
            raise ConfigurationError("page_size must be positive")
        unknown = set(coefficients) - set(PHASE_NAMES) - {OTHER_PHASE}
        if unknown:
            raise ConfigurationError(
                f"unknown cost-model phases: {sorted(unknown)}"
            )
        self.coefficients = {
            name: coefficients.get(name, PhaseCoefficients(0.0, 0.0))
            for name in PHASE_NAMES + (OTHER_PHASE,)
        }
        self.page_size = page_size
        self.source = source

    # -- prediction -----------------------------------------------------------

    def predict(self, block_size: int) -> Dict[str, float]:
        """Per-phase seconds per query at block size k, plus ``total``."""
        if block_size < 1:
            raise ConfigurationError("block_size must be positive")
        out = {
            name: coeffs.cost(block_size)
            for name, coeffs in self.coefficients.items()
        }
        out["total"] = sum(out.values())
        return out

    def query_time(self, block_size: int) -> float:
        """Predicted total seconds per query — monotone increasing in k."""
        return self.predict(block_size)["total"]

    def check(
        self,
        tracer: Tracer,
        queries: int,
        block_size: int,
        clock: str = "virtual",
    ) -> List[Dict[str, object]]:
        """Hold ``queries`` traced requests at block size k to the model.

        Returns one row per phase in :data:`PHASE_NAMES`, then ``other``
        and ``total``: ``{"phase", "predicted_s", "measured_s", "error"}``,
        seconds per query, with ``error`` relative to the measured value.
        With :meth:`from_spec` and a fault-free run on the virtual clock
        every error is 0 to float accuracy (Eq. 8 holds); a retry or a
        regression that moves extra frames shows as error on the phases
        it touches and on ``total``, and an unpredicted share inside the
        request span shows on ``other``.
        """
        if clock not in _PROBE_CLOCKS:
            raise ConfigurationError(
                f"check clock must be one of {_PROBE_CLOCKS}, got {clock!r}"
            )
        if queries <= 0:
            raise ConfigurationError("check queries must be positive")
        predicted = self.predict(block_size)
        measured = _per_query_phases(tracer, queries, clock)
        measured["total"] = sum(measured.values())
        floor = _RESIDUE_FLOOR * measured["total"]
        return [
            _error_row(name, predicted[name], measured[name], floor)
            for name in PHASE_NAMES + (OTHER_PHASE, "total")
        ]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_spec(
        cls, spec: HardwareSpec = IBM_4764, page_size: int = 1000
    ) -> "CalibratedCostModel":
        """Eq. 8's spec constants mapped onto the tracer's phase taxonomy.

        The attribution mirrors what the engine actually charges, so
        spec-mode predictions line up with ``verify_plan`` measurements
        phase by phase: two reads and two writes per query carry one seek
        each (``alpha = 2 t_s`` per disk phase); every lane moves
        ``(k + 1)`` *on-disk frames* (:func:`frame_size_for` — page plus
        header plus AEAD overhead), and the coprocessor folds crypto time
        into the ``link.ingest``/``link.egress`` spans
        (:meth:`~repro.hardware.specs.HardwareSpec.ingest_time`), leaving
        the ``decrypt``/``reencrypt`` spans with zero virtual seconds.
        Summing reproduces ``4 t_s + 2 (k + 1) B (1/r_d + 1/r_b + 1/r_ed)``
        — :func:`~repro.analysis.costmodel.eq8_terms` with B taken as the
        frame size rather than the bare payload.
        """
        frame = frame_size_for(page_size)
        seek = spec.disk.seek_time
        link = frame * (1.0 / spec.link_bandwidth
                        + 1.0 / spec.crypto_throughput)
        return cls(
            {
                "disk.read": PhaseCoefficients(
                    2 * seek, frame / spec.disk.read_bandwidth),
                "disk.write": PhaseCoefficients(
                    2 * seek, frame / spec.disk.write_bandwidth),
                "link.ingest": PhaseCoefficients(0.0, link),
                "link.egress": PhaseCoefficients(0.0, link),
                "decrypt": PhaseCoefficients(0.0, 0.0),
                "reencrypt": PhaseCoefficients(0.0, 0.0),
            },
            page_size=page_size,
            source="spec",
        )

    @classmethod
    def from_probe(
        cls,
        page_size: int = 64,
        num_records: int = 96,
        cache_capacity: int = 8,
        queries: int = 32,
        seed: int = 1234,
        block_sizes: Sequence[int] = (4, 12),
        clock: str = "virtual",
        spec: HardwareSpec = IBM_4764,
    ) -> "CalibratedCostModel":
        """Calibrate from a short self-measured probe run.

        Builds one small database per probe block size (identical records,
        pinned seed), traces ``queries`` round-robin retrievals, and fits
        each phase's affine coefficients through the per-query totals.
        ``clock="virtual"`` calibrates against the deterministic simulated
        timing (reproducible across machines — the mode ``plan --verify``
        and the bench lane gate on); ``clock="wall"`` calibrates real
        elapsed time on this host.
        """
        if clock not in _PROBE_CLOCKS:
            raise ConfigurationError(
                f"probe clock must be one of {_PROBE_CLOCKS}, got {clock!r}"
            )
        if queries <= 0:
            raise ConfigurationError("probe queries must be positive")
        sizes = sorted(set(int(k) for k in block_sizes))
        if len(sizes) < 2:
            raise ConfigurationError(
                "probe needs at least two distinct block sizes for the "
                "two-point affine fit"
            )
        from ..baselines import make_records
        from ..core.database import PirDatabase

        records = make_records(num_records, page_size)
        samples: Dict[str, List[Tuple[int, float]]] = {}
        for block_size in sizes:
            tracer = Tracer()
            db = PirDatabase.create(
                records,
                cache_capacity=cache_capacity,
                block_size=block_size,
                page_capacity=page_size,
                seed=seed,
                spec=spec,
                tracer=tracer,
            )
            try:
                if clock == "wall":
                    # Wall mode wants steady-state: spend a few requests
                    # warming caches, then measure from a clean tracer.
                    for i in range(4):
                        db.query(i % db.num_pages)
                    tracer.reset()
                for i in range(queries):
                    db.query(i % db.num_pages)
                for name, seconds in _per_query_phases(
                    tracer, queries, clock
                ).items():
                    samples.setdefault(name, []).append((block_size, seconds))
            finally:
                db.close()
        return cls(
            {name: _fit(points) for name, points in samples.items()},
            page_size=page_size,
            source=f"probe:{clock}",
        )

    @classmethod
    def from_obs_rows(
        cls,
        runs: Iterable[Sequence[Dict[str, object]]],
        page_size: int,
        clock: str = "virtual",
    ) -> "CalibratedCostModel":
        """Calibrate from exported obs JSONL runs instead of probing.

        Each run is one loaded JSONL row list (see
        :func:`~repro.obs.export.read_jsonl`): a ``meta`` row carrying
        ``block_size`` and ``queries``, plus ``phase`` rows.  Two runs at
        distinct block sizes give the full affine fit; a single run falls
        back to proportional coefficients.
        """
        if clock not in _PROBE_CLOCKS:
            raise ConfigurationError(
                f"obs clock must be one of {_PROBE_CLOCKS}, got {clock!r}"
            )
        key = "virtual_s" if clock == "virtual" else "wall_s"
        samples: Dict[str, List[Tuple[int, float]]] = {}
        seen = 0
        for rows in runs:
            seen += 1
            metas = rows_by_kind(rows, "meta")
            if len(metas) != 1:
                raise ConfigurationError(
                    f"obs run {seen} must contain exactly one meta row"
                )
            meta = metas[0]
            try:
                block_size = int(meta["block_size"])
                queries = int(meta["queries"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"obs run {seen} meta row needs numeric block_size and "
                    f"queries ({exc})"
                ) from exc
            if block_size < 1 or queries < 1:
                raise ConfigurationError(
                    f"obs run {seen} has non-positive block_size/queries"
                )
            phases = {
                str(row["name"]): float(row.get(key, 0.0))
                for row in rows_by_kind(rows, "phase")
            }
            request = phases.get("request", 0.0)
            leaves = 0.0
            for name in PHASE_NAMES:
                seconds = phases.get(name, 0.0)
                leaves += seconds
                samples.setdefault(name, []).append(
                    (block_size, seconds / queries)
                )
            samples.setdefault(OTHER_PHASE, []).append(
                (block_size, max(0.0, request - leaves) / queries)
            )
        if not seen:
            raise ConfigurationError("no obs runs supplied")
        return cls(
            {name: _fit(points) for name, points in samples.items()},
            page_size=page_size,
            source=f"obs:{clock}",
        )

    def describe(self) -> str:
        parts = ", ".join(
            f"{name}=({c.alpha:.3e}+{c.gamma:.3e}/frame)"
            for name, c in self.coefficients.items()
        )
        return f"CalibratedCostModel(source={self.source}, {parts})"


def _per_query_phases(
    tracer: Tracer, queries: int, clock: str
) -> Dict[str, float]:
    """Per-query seconds for each leaf phase plus the ``other`` residual."""
    totals = tracer.phase_totals()

    def seconds(name: str) -> float:
        total = totals.get(name)
        if total is None:
            return 0.0
        return (total.virtual_seconds if clock == "virtual"
                else total.wall_seconds)

    out = {name: seconds(name) / queries for name in PHASE_NAMES}
    leaves = sum(out.values()) * queries
    out[OTHER_PHASE] = max(0.0, seconds("request") - leaves) / queries
    return out


def _error_row(
    name: str, predicted: float, measured: float, floor: float
) -> Dict[str, object]:
    """One ``check`` row; both sides at or under ``floor`` read error 0."""
    if predicted <= floor and measured <= floor:
        error = 0.0
    elif measured > 0:
        error = abs(predicted - measured) / measured
    else:
        error = float("inf")
    return {
        "phase": name,
        "predicted_s": predicted,
        "measured_s": measured,
        "error": error,
    }
