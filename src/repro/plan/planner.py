"""Offline capacity planner: invert Eqs. 1-8 from a target triple.

The operator states *what* they need — a p99 latency bound, a sustained
QPS, and a privacy bound (c directly, or ϵ in the Toledo-style relaxed
mode where ``c = e^ϵ`` bounds the adversary's posterior odds ratio,
PAPERS.md) — and :func:`plan` solves for *how*: every knob the stack
exposes, derived in dependency order.

1. **Latency → k** (Eq. 8 inverted).  The calibrated query time is affine
   and increasing in k, so the largest block size whose predicted time
   fits inside ``LATENCY_HEADROOM * p99`` is a binary search.  No k at
   all → ``PlanInfeasibleError("latency")``.
2. **Privacy → m** (Eq. 6 inverted).  For a candidate k,
   :func:`~repro.core.params.cache_for_privacy` gives the smallest m whose
   *padded* layout (``T = n/k`` over
   :func:`~repro.core.params.padded_locations`) meets c.
   Rule of the trade-off: smaller k → cheaper queries but longer scan
   period → larger m → more secure memory (Eq. 7).  The planner takes the
   smallest k in ``[1, k_max]`` whose required state fits the hardware's
   secure memory; none fitting → ``PlanInfeasibleError("secure_memory")``.
3. **Throughput → shards**.  Each shard serves one query per predicted
   query time; ``ceil(qps * Q / UTILIZATION)`` shards sustain the target
   with headroom.  More than ``max_shards`` →
   ``PlanInfeasibleError("throughput")``.
4. **Admission** — rate and burst (shard capacity, burst one p99 deep).

``verify_plan`` closes the loop: it builds a database with the planned
(k, m), measures the per-phase cost of a traced query run, and reports
each phase's prediction error (:meth:`CalibratedCostModel.check`) — the
number the CI bench lane gates at 15%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .model import CalibratedCostModel
from ..analysis.costmodel import AnalyticalCostModel, largest_block_size
from ..core.params import (
    SystemParameters,
    cache_for_privacy,
    padded_locations,
)
from ..errors import ConfigurationError, PlanInfeasibleError
from ..hardware.specs import IBM_4764, HardwareSpec
from ..obs.tracer import Tracer

__all__ = ["PlanTarget", "Plan", "plan", "verify_plan"]

#: Tail room between the *predicted mean* query time and the p99 bound
#: (queueing, reshuffle interleaving): k is sized to this share of p99.
LATENCY_HEADROOM = 0.8
#: The shard duty-cycle ceiling the throughput sizing assumes.
UTILIZATION = 0.7

@dataclass(frozen=True)
class PlanTarget:
    """What the operator wants: latency, throughput, privacy, workload.

    Exactly one of ``privacy_c`` (the paper's c-approximate bound) or
    ``epsilon`` (Toledo-style relaxation, ``c = e^ϵ``) must be given.
    """

    num_pages: int
    page_size: int
    p99_seconds: float
    qps: float
    privacy_c: Optional[float] = None
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_pages <= 0:
            raise ConfigurationError("target num_pages must be positive")
        if self.page_size <= 0:
            raise ConfigurationError("target page_size must be positive")
        if self.p99_seconds <= 0:
            raise ConfigurationError("target p99 bound must be positive")
        if self.qps <= 0:
            raise ConfigurationError("target QPS must be positive")
        if (self.privacy_c is None) == (self.epsilon is None):
            raise ConfigurationError(
                "state the privacy target as exactly one of privacy_c or "
                "epsilon (c = e^epsilon)"
            )

    @property
    def resolved_c(self) -> float:
        """The privacy bound as c, whichever way it was stated."""
        if self.privacy_c is not None:
            return float(self.privacy_c)
        return math.exp(float(self.epsilon))


@dataclass(frozen=True)
class Plan:
    """A full deployable parameter assignment with its predicted costs."""

    target: PlanTarget
    block_size: int
    cache_pages: int
    num_locations: int
    achieved_c: float
    shard_count: int
    admission_rate: float
    admission_burst: float
    predicted_query_seconds: float
    predicted_phase_seconds: Dict[str, float] = field(default_factory=dict)
    secure_storage_bytes: float = 0.0
    calibration_source: str = "spec"

    @property
    def capacity_qps(self) -> float:
        """Aggregate sustainable queries/second across all shards."""
        return self.admission_rate

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable flat view (the ``plan --json`` payload)."""
        return {
            "target": {
                "num_pages": self.target.num_pages,
                "page_size": self.target.page_size,
                "p99_seconds": self.target.p99_seconds,
                "qps": self.target.qps,
                "privacy_c": self.target.privacy_c,
                "epsilon": self.target.epsilon,
                "resolved_c": self.target.resolved_c,
            },
            "block_size": self.block_size,
            "cache_pages": self.cache_pages,
            "num_locations": self.num_locations,
            "achieved_c": self.achieved_c,
            "shard_count": self.shard_count,
            "admission_rate": self.admission_rate,
            "admission_burst": self.admission_burst,
            "predicted_query_seconds": self.predicted_query_seconds,
            "predicted_phase_seconds": dict(self.predicted_phase_seconds),
            "secure_storage_bytes": self.secure_storage_bytes,
            "calibration_source": self.calibration_source,
        }


def _secure_storage(params: SystemParameters, page_size: int) -> float:
    return AnalyticalCostModel.secure_storage_bytes(
        params.num_locations, params.cache_capacity, params.block_size,
        page_size,
    )


def _candidate_block_sizes(k_max: int) -> List[int]:
    """Small-to-large candidate grid: exhaustive below 512, geometric above.

    The planner prefers the smallest feasible k (cheapest queries); the
    geometric tail (ratio 1.05) bounds the search at a few hundred model
    evaluations for any database size while staying within 5% of the true
    smallest feasible k.
    """
    if k_max <= 512:
        return list(range(1, k_max + 1))
    sizes = list(range(1, 513))
    k = 512
    while k < k_max:
        k = max(k + 1, int(k * 1.05))
        sizes.append(min(k, k_max))
    if sizes[-1] != k_max:
        sizes.append(k_max)
    return sizes


def plan(
    target: PlanTarget,
    model: Optional[CalibratedCostModel] = None,
    spec: HardwareSpec = IBM_4764,
    max_shards: int = 64,
) -> Plan:
    """Solve the target triple for a full parameter assignment (module doc).

    ``model`` defaults to the spec-exact Eq. 8 mapping; pass a probe- or
    obs-calibrated model to plan against measured unit costs.  The
    latency budget is :data:`LATENCY_HEADROOM` of the p99 bound and the
    shard count assumes a :data:`UTILIZATION` duty cycle.
    """
    if max_shards < 1:
        raise ConfigurationError("max_shards must be positive")
    if model is None:
        model = CalibratedCostModel.from_spec(spec, target.page_size)

    privacy_c = target.resolved_c
    if privacy_c <= 1.0:
        raise PlanInfeasibleError(
            f"privacy target c={privacy_c:g} is not tunable: c = 1 is "
            "perfect privacy (read the whole database per request — the "
            "trivial-PIR baseline), and c < 1 is not defined",
            constraint="privacy",
        )

    # 1. Latency bound -> largest admissible block size.
    budget = LATENCY_HEADROOM * target.p99_seconds
    if model.query_time(1) > budget:
        raise PlanInfeasibleError(
            f"p99 bound {target.p99_seconds:g}s is below the k=1 floor "
            f"{model.query_time(1):g}s / {LATENCY_HEADROOM:g} headroom — no "
            "block size meets it at this page size",
            constraint="latency",
        )
    k_max = largest_block_size(model.query_time, budget, target.num_pages)

    # 2. Privacy bound -> smallest k whose required cache fits the secure
    # memory (smaller k = cheaper queries but larger m; Eq. 7 decides).
    limit = spec.total_secure_memory
    chosen: Optional[SystemParameters] = None
    best_storage = float("inf")
    for k in _candidate_block_sizes(k_max):
        cache = cache_for_privacy(
            padded_locations(target.num_pages, k), k, privacy_c
        )
        params = SystemParameters.from_block_size(target.num_pages, cache, k)
        storage = _secure_storage(params, target.page_size)
        best_storage = min(best_storage, storage)
        if storage <= limit:
            chosen = params
            break
    if chosen is None:
        raise PlanInfeasibleError(
            f"privacy c={privacy_c:g} within p99 {target.p99_seconds:g}s "
            f"needs at least {best_storage / 1e6:.1f} MB of secure state "
            f"but the hardware has {limit / 1e6:.1f} MB "
            f"({spec.units} unit(s)); add units, relax c, or raise the "
            "latency bound",
            constraint="secure_memory",
        )
    k = chosen.block_size
    predicted = model.predict(k)
    query_seconds = predicted.pop("total")

    # 3. Throughput -> shard fan-out at the duty-cycle ceiling.
    shard_count = max(1, math.ceil(target.qps * query_seconds / UTILIZATION))
    if shard_count > max_shards:
        raise PlanInfeasibleError(
            f"QPS {target.qps:g} at {query_seconds:g}s/query needs "
            f"{shard_count} shards; the deployment allows {max_shards}",
            constraint="throughput",
        )

    # 4. Admission.
    admission_rate = shard_count * UTILIZATION / query_seconds
    admission_burst = max(
        1.0, admission_rate * min(target.p99_seconds, 1.0)
    )

    return Plan(
        target=target,
        block_size=k,
        cache_pages=chosen.cache_capacity,
        num_locations=chosen.num_locations,
        achieved_c=chosen.achieved_c,
        shard_count=shard_count,
        admission_rate=admission_rate,
        admission_burst=admission_burst,
        predicted_query_seconds=query_seconds,
        predicted_phase_seconds=predicted,
        secure_storage_bytes=_secure_storage(chosen, target.page_size),
        calibration_source=model.source,
    )


def verify_plan(
    built_plan: Plan,
    model: CalibratedCostModel,
    queries: int = 32,
    seed: int = 1234,
    clock: str = "virtual",
    spec: HardwareSpec = IBM_4764,
    build_pages: Optional[int] = 1024,
) -> List[Dict[str, object]]:
    """Measure the plan and report per-phase prediction error.

    Builds a database with the plan's block size at the target's page
    size, runs ``queries`` traced retrievals, and returns
    ``model.check(...)``'s rows (:meth:`CalibratedCostModel.check`):
    ``{"phase", "predicted_s", "measured_s", "error"}`` per phase, where
    ``error`` is the relative error against the measured value (0.0 when
    both sides are within float resolution of the request total, i.e.
    ~zero).  The CI bench lane gates every row's error at 15%.

    Per-query phase cost is a function of (k, page size) only — each
    retrieval moves the same k+1 frames regardless of n and m — so when
    the target database is larger than ``build_pages`` the measurement
    runs on a scaled-down build with the same k and page size (and a
    correspondingly smaller cache); pass ``build_pages=None`` to force a
    full-size build.
    """
    from ..baselines import make_records
    from ..core.database import PirDatabase

    target = built_plan.target
    num_pages = target.num_pages
    cache_pages = built_plan.cache_pages
    if build_pages is not None and num_pages > build_pages:
        num_pages = max(build_pages, 2 * built_plan.block_size)
        cache_pages = max(2, min(cache_pages, num_pages // 4))
    tracer = Tracer()
    db = PirDatabase.create(
        make_records(num_pages, target.page_size),
        cache_capacity=cache_pages,
        block_size=built_plan.block_size,
        page_capacity=target.page_size,
        seed=seed,
        spec=spec,
        tracer=tracer,
    )
    try:
        if clock == "wall":
            for i in range(4):
                db.query(i % db.num_pages)
            tracer.reset()
        for i in range(queries):
            db.query(i % db.num_pages)
        return model.check(tracer, queries, built_plan.block_size, clock)
    finally:
        db.close()
