"""Offline capacity planning for the privacy/cost trade-off.

The paper's contribution is a *tunable* trade-off (privacy parameter c
against per-query cost), set once per deployment; this package picks the
setting. :mod:`~repro.plan.model` + :mod:`~repro.plan.planner` form the
**offline capacity planner**. :class:`CalibratedCostModel` carries
per-phase unit costs (from the Eq. 8 spec constants, a short
self-measured probe run, or a supplied obs JSONL export); :func:`plan`
inverts the Eq. 1-8 cost model to turn a target triple (p99 latency
bound, sustained QPS, privacy bound c — or ϵ in the Toledo-style relaxed
mode, ``c = e^ϵ``) into a full deployable parameter assignment: k, m,
shard count and admission rate/burst. Infeasible targets raise
:class:`~repro.errors.PlanInfeasibleError` naming the binding
constraint. Nothing re-tunes a running server: a new setting is a new
plan, deployed (DESIGN.md §16).

CLI: ``python -m repro plan`` (table or ``--json``; ``--verify`` measures
the plan and reports per-term prediction error).
"""

from .model import PHASE_NAMES, CalibratedCostModel, PhaseCoefficients
from .planner import Plan, PlanTarget, plan, verify_plan

__all__ = [
    "CalibratedCostModel",
    "PhaseCoefficients",
    "PHASE_NAMES",
    "Plan",
    "PlanTarget",
    "plan",
    "verify_plan",
]
