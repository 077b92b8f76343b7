"""Planner benchmark — predictions that survive measurement.

``repro.plan``'s falsifiable claim is **prediction accuracy**: the offline
planner's per-phase cost predictions (spec-calibrated *and*
probe-calibrated) must each land within ``MAX_VERIFY_ERROR`` of a traced
measurement of the planned configuration on the virtual clock.  A planner
that can't predict what its own plan costs is a random-number generator
with a dataclass.

The verify phases run on the virtual clock under a pinned seed, so their
count/bytes/virtual columns are exact and ``tests/test_perf_gate.py``
asserts them in tier-1.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.hardware.specs import IBM_4764
from repro.plan import CalibratedCostModel, PlanTarget
from repro.plan import plan as solve_plan
from repro.plan import verify_plan
from repro.plan.model import frame_size_for

#: Pinned workload shape — change it and the expected rows in
#: tests/test_perf_gate.py together.
DEFAULT_SEED = 4471
VERIFY_QUERIES = 32

_BENCH_RECORDS = 96
_BENCH_PAGE_SIZE = 32
_VERIFY_TARGET = dict(num_pages=_BENCH_RECORDS, page_size=_BENCH_PAGE_SIZE,
                      p99_seconds=0.05, qps=5.0, privacy_c=3.0)
_PROBE_BLOCK_SIZES = (4, 12)

MAX_VERIFY_ERROR = 0.15


# ---------------------------------------------------------------------------
# Deterministic phases (virtual clock): prediction-accuracy gates
# ---------------------------------------------------------------------------


def _verify_rows_to_phase(name: str, built, rows: List[dict],
                          queries: int) -> dict:
    total = next(row for row in rows if row["phase"] == "total")
    frame = frame_size_for(built.target.page_size)
    return {"name": name, "count": queries,
            "bytes": queries * (built.block_size + 1) * frame,
            "virtual_s": total["measured_s"] * queries}


def run_verify_gate(calibrate: str, queries: int,
                    seed: int) -> Tuple[dict, dict, List[str]]:
    """Plan the pinned target, measure it, gate every phase's error.

    Returns (phase_row, worst, problems): ``worst`` holds the phase with
    the largest prediction error for reporting.
    """
    problems: List[str] = []
    if calibrate == "probe":
        model = CalibratedCostModel.from_probe(
            page_size=_BENCH_PAGE_SIZE, num_records=_BENCH_RECORDS,
            queries=queries, seed=seed, block_sizes=_PROBE_BLOCK_SIZES,
        )
    else:
        model = CalibratedCostModel.from_spec(
            IBM_4764, page_size=_BENCH_PAGE_SIZE
        )
    built = solve_plan(PlanTarget(**_VERIFY_TARGET), model=model)
    rows = verify_plan(built, model, queries=queries, seed=seed)
    if built.achieved_c > _VERIFY_TARGET["privacy_c"] * (1 + 1e-9):
        problems.append(
            f"{calibrate}: planned c={built.achieved_c:.4f} misses the "
            f"c={_VERIFY_TARGET['privacy_c']} bound"
        )
    worst = max(rows, key=lambda row: row["error"])
    for row in rows:
        if row["error"] > MAX_VERIFY_ERROR:
            problems.append(
                f"{calibrate}: phase {row['phase']} prediction "
                f"{row['predicted_s']:.3e}s vs measured "
                f"{row['measured_s']:.3e}s — error {row['error']:.1%} > "
                f"{MAX_VERIFY_ERROR:.0%}"
            )
    phase_row = _verify_rows_to_phase(
        f"plan.verify.{calibrate}", built, rows, queries
    )
    return phase_row, worst, problems


# ---------------------------------------------------------------------------
# Pytest check (collected with the benchmark suite)
# ---------------------------------------------------------------------------


def test_plan_verify(report):
    """Per-phase prediction error <= 15% under both calibrations."""
    _spec_row, spec_worst, spec_problems = run_verify_gate(
        "spec", VERIFY_QUERIES, DEFAULT_SEED
    )
    _probe_row, probe_worst, probe_problems = run_verify_gate(
        "probe", VERIFY_QUERIES, DEFAULT_SEED
    )
    assert spec_problems + probe_problems == []

    report.table(
        ["calibration", "worst phase", "predicted s", "measured s", "error"],
        [["spec", spec_worst["phase"], spec_worst["predicted_s"],
          spec_worst["measured_s"], f"{spec_worst['error']:.2%}"],
         ["probe", probe_worst["phase"], probe_worst["predicted_s"],
          probe_worst["measured_s"], f"{probe_worst['error']:.2%}"]],
    )
