"""Capacity planning and runtime autotuning for the privacy/cost trade-off.

The paper's contribution is a *tunable* trade-off (privacy parameter c
against per-query cost); this package closes the loop that tunes it.  Two
halves, one offline and one online:

* :mod:`~repro.plan.model` + :mod:`~repro.plan.planner` — the **offline
  capacity planner**.  :class:`CalibratedCostModel` carries per-phase unit
  costs (from the Eq. 8 spec constants, a short self-measured probe run,
  or a supplied obs JSONL export); :func:`plan` inverts the Eq. 1-8 cost
  model to turn a target triple (p99 latency bound, sustained QPS,
  privacy bound c — or ϵ in the Toledo-style relaxed mode, ``c = e^ϵ``)
  into a full deployable parameter assignment: k, m, shard count,
  fused-batch window, hot-tier frames and admission rate/burst.
  Infeasible targets raise :class:`~repro.errors.PlanInfeasibleError`
  naming the binding constraint.

* :mod:`~repro.plan.controller` — the **online controller**.  A
  background loop samples the :class:`~repro.obs.registry.MetricsRegistry`
  and re-tunes the *cost-side* knobs (admission token bucket, reshuffle
  pacing) under explicit guardrails.  Privacy
  parameters (k, m, cover count) are structurally out of its reach — see
  DESIGN.md §16.

CLI: ``python -m repro plan`` (table or ``--json``; ``--verify`` measures
the plan and reports per-term prediction error).
"""

from .controller import Guardrail, PlanController
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
    "Guardrail",
    "PlanController",
]
