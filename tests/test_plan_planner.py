"""repro.plan offline planner: inversion round-trips and infeasibility.

The property sweep feeds a grid of (p99, QPS, c) targets through
:func:`repro.plan.plan` and checks each solved plan back against the
analytical model — Eq. 8 for the latency bound, Eq. 6 for the privacy
bound, Eq. 7 for the secure-memory bound — while infeasible targets must
raise :class:`repro.errors.PlanInfeasibleError` naming the binding
constraint.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.costmodel import AnalyticalCostModel, eq8_terms
from repro.core.params import (
    achieved_privacy,
    cache_for_privacy,
    padded_locations,
)
from repro.errors import ConfigurationError, PlanInfeasibleError
from repro.hardware.specs import IBM_4764, HardwareSpec
from repro.plan import CalibratedCostModel, PlanTarget, plan, verify_plan
from repro.plan.planner import LATENCY_HEADROOM, UTILIZATION
from repro.plan.model import OTHER_PHASE, PHASE_NAMES, frame_size_for


def _target(**overrides):
    base = dict(
        num_pages=10**6,
        page_size=1000,
        p99_seconds=0.05,
        qps=10.0,
        privacy_c=2.0,
    )
    base.update(overrides)
    return PlanTarget(**base)


class TestPlanTarget:
    def test_requires_exactly_one_privacy_bound(self):
        with pytest.raises(ConfigurationError):
            _target(privacy_c=2.0, epsilon=0.5)
        with pytest.raises(ConfigurationError):
            _target(privacy_c=None)

    def test_epsilon_resolves_to_exp(self):
        target = _target(privacy_c=None, epsilon=0.7)
        assert target.resolved_c == pytest.approx(math.exp(0.7))

    @pytest.mark.parametrize("field", ["num_pages", "page_size"])
    def test_rejects_nonpositive_sizes(self, field):
        with pytest.raises(ConfigurationError):
            _target(**{field: 0})

    @pytest.mark.parametrize("field", ["p99_seconds", "qps"])
    def test_rejects_nonpositive_rates(self, field):
        with pytest.raises(ConfigurationError):
            _target(**{field: 0.0})


class TestSpecModel:
    def test_matches_eq8_at_frame_size(self):
        """Spec mode is Eq. 8 evaluated at the on-disk frame size."""
        model = CalibratedCostModel.from_spec(IBM_4764, page_size=1000)
        frame = frame_size_for(1000)
        for k in (1, 8, 24, 100):
            expected = eq8_terms(IBM_4764, k, frame)["total"]
            assert model.query_time(k) == pytest.approx(expected)

    def test_crypto_cost_lands_in_link_phases(self):
        """The tracer folds crypto into link.ingest/egress; so must the model."""
        model = CalibratedCostModel.from_spec(IBM_4764, page_size=64)
        assert model.coefficients["decrypt"].gamma == 0.0
        assert model.coefficients["reencrypt"].gamma == 0.0
        frame = frame_size_for(64)
        assert model.coefficients["link.ingest"].gamma == pytest.approx(
            frame * (1 / IBM_4764.link_bandwidth
                     + 1 / IBM_4764.crypto_throughput)
        )

    def test_query_time_monotone_in_k(self):
        model = CalibratedCostModel.from_spec()
        times = [model.query_time(k) for k in range(1, 200)]
        assert times == sorted(times)

    def test_rejects_unknown_phase(self):
        from repro.plan.model import PhaseCoefficients

        with pytest.raises(ConfigurationError):
            CalibratedCostModel(
                {"disk.levitate": PhaseCoefficients(0.0, 1.0)}, page_size=64
            )


class TestRoundTripSweep:
    """Satellite (d): every solved plan, fed back through the analytical
    model, meets the target it was solved for."""

    P99S = (0.03, 0.05, 0.2)
    QPSS = (1.0, 20.0, 200.0)
    CS = (1.2, 2.0, 5.0)

    def test_sweep_meets_targets_or_names_constraint(self):
        feasible = 0
        frame = frame_size_for(1000)
        for p99 in self.P99S:
            for qps in self.QPSS:
                for c in self.CS:
                    target = _target(
                        p99_seconds=p99, qps=qps, privacy_c=c
                    )
                    try:
                        built = plan(target)
                    except PlanInfeasibleError as exc:
                        assert exc.constraint in (
                            "latency", "privacy", "secure_memory",
                            "throughput",
                        )
                        continue
                    feasible += 1
                    # Latency: Eq. 8 at the planned k fits the headroom.
                    predicted = eq8_terms(
                        IBM_4764, built.block_size, frame
                    )["total"]
                    assert predicted <= 0.8 * p99 * (1 + 1e-9)
                    assert built.predicted_query_seconds == pytest.approx(
                        predicted
                    )
                    # Privacy: the padded layout meets the bound.
                    assert built.achieved_c <= c * (1 + 1e-9)
                    # Secure memory: Eq. 7 state fits the hardware.
                    storage = AnalyticalCostModel.secure_storage_bytes(
                        built.num_locations, built.cache_pages,
                        built.block_size, 1000,
                    )
                    assert storage <= IBM_4764.total_secure_memory
                    assert built.secure_storage_bytes == pytest.approx(
                        storage
                    )
                    # Minimal m: one page less misses c on this layout.
                    m, k = built.cache_pages, built.block_size
                    assert m == 2 or achieved_privacy(
                        built.num_locations, m - 1, k
                    ) > c * (1 + 1e-12)
                    # Smallest k: k - 1 at its own minimal m overflows.
                    if 1 < k <= 512:
                        smaller = padded_locations(target.num_pages, k - 1)
                        assert AnalyticalCostModel.secure_storage_bytes(
                            smaller,
                            cache_for_privacy(smaller, k - 1, c),
                            k - 1, 1000,
                        ) > IBM_4764.total_secure_memory
                    # Throughput: provisioned capacity covers the rate.
                    assert built.capacity_qps >= qps * (1 - 1e-9)
        assert feasible >= 9, "sweep should not be mostly infeasible"

    def test_epsilon_and_c_statements_agree(self):
        # ε = ln 2 is `repro plan --epsilon 0.6931471805599453` vs `--c 2`.
        for eps, c in ((0.5, math.exp(0.5)), (math.log(2), 2.0)):
            via_c = plan(_target(privacy_c=c))
            via_eps = plan(_target(privacy_c=None, epsilon=eps))
            assert via_c.block_size == via_eps.block_size
            assert via_c.cache_pages == via_eps.cache_pages
            assert via_c.achieved_c == pytest.approx(via_eps.achieved_c)

    def test_tighter_privacy_needs_more_cache(self):
        loose = plan(_target(privacy_c=5.0))
        tight = plan(_target(privacy_c=1.5))
        assert tight.secure_storage_bytes > loose.secure_storage_bytes


class TestInfeasible:
    def test_privacy_c_at_or_below_one(self):
        for c in (1.0, 0.5):
            with pytest.raises(PlanInfeasibleError) as info:
                plan(_target(privacy_c=c))
            assert info.value.constraint == "privacy"

    def test_latency_below_seek_floor(self):
        # 4 t_s = 20 ms: no block size can beat the fixed seek cost.
        with pytest.raises(PlanInfeasibleError) as info:
            plan(_target(p99_seconds=0.005))
        assert info.value.constraint == "latency"

    def test_secure_memory_exhausted(self):
        tiny = HardwareSpec(secure_memory=10**6)
        with pytest.raises(PlanInfeasibleError) as info:
            plan(_target(), spec=tiny)
        assert info.value.constraint == "secure_memory"
        assert "MB" in str(info.value)

    def test_throughput_exceeds_shard_ceiling(self):
        with pytest.raises(PlanInfeasibleError) as info:
            plan(_target(qps=1000.0), max_shards=2)
        assert info.value.constraint == "throughput"

    def test_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            plan(_target(privacy_c=1.0))


class TestDerivedBudgets:
    def test_budget_invariants(self):
        built = plan(_target(qps=200.0))
        assert built.admission_burst >= 1.0
        assert built.shard_count >= 1
        # The shards sized at the duty-cycle ceiling admit the target QPS.
        assert built.capacity_qps >= 200.0
        assert "batch_window" not in built.as_dict()
        assert "hot_tier_frames" not in built.as_dict()

    def test_budgets_use_the_fixed_headroom_and_duty_cycle(self):
        built = plan(_target(qps=200.0))
        seconds = built.predicted_query_seconds
        assert seconds <= LATENCY_HEADROOM * built.target.p99_seconds
        assert built.shard_count == math.ceil(200.0 * seconds / UTILIZATION)
        assert built.admission_rate == pytest.approx(
            built.shard_count * UTILIZATION / seconds
        )

    def test_latency_budget_is_the_headroom_share_of_p99(self):
        # Room for k = 1's state, so latency is the only bound in play.
        roomy = HardwareSpec(secure_memory=10**10)
        floor = CalibratedCostModel.from_spec(roomy, 1000).query_time(1)
        built = plan(_target(p99_seconds=floor / LATENCY_HEADROOM * 1.001),
                     spec=roomy)
        assert built.block_size == 1
        with pytest.raises(PlanInfeasibleError) as info:
            plan(_target(p99_seconds=floor / LATENCY_HEADROOM * 0.999),
                 spec=roomy)
        assert info.value.constraint == "latency"

    def test_as_dict_is_json_serializable(self):
        built = plan(_target())
        payload = json.loads(json.dumps(built.as_dict()))
        assert payload["block_size"] == built.block_size
        assert payload["target"]["resolved_c"] == pytest.approx(2.0)
        assert set(payload["predicted_phase_seconds"]) == (
            set(PHASE_NAMES) | {OTHER_PHASE}
        )


class TestObsCalibration:
    ALPHA = {"disk.read": 0.01, "disk.write": 0.01}
    GAMMA = {
        "disk.read": 1e-5,
        "disk.write": 1e-5,
        "link.ingest": 2e-6,
        "link.egress": 2e-6,
    }

    def _run(self, block_size, queries=10):
        rows = [{"kind": "meta", "block_size": block_size,
                 "queries": queries}]
        request = 0.0
        for name in PHASE_NAMES:
            seconds = queries * (
                self.ALPHA.get(name, 0.0)
                + self.GAMMA.get(name, 0.0) * (block_size + 1)
            )
            request += seconds
            rows.append({"kind": "phase", "name": name,
                         "virtual_s": seconds, "wall_s": 0.0})
        rows.append({"kind": "phase", "name": "request",
                     "virtual_s": request * 1.01, "wall_s": 0.0})
        return rows

    def test_two_runs_recover_the_affine_truth(self):
        model = CalibratedCostModel.from_obs_rows(
            [self._run(4), self._run(16)], page_size=64
        )
        for k in (2, 8, 32):
            for name in PHASE_NAMES:
                expected = (self.ALPHA.get(name, 0.0)
                            + self.GAMMA.get(name, 0.0) * (k + 1))
                assert model.predict(k)[name] == pytest.approx(expected)
        assert model.source == "obs:virtual"

    def test_single_run_falls_back_to_proportional(self):
        model = CalibratedCostModel.from_obs_rows(
            [self._run(4)], page_size=64
        )
        coeffs = model.coefficients["disk.read"]
        assert coeffs.alpha == 0.0
        assert coeffs.gamma == pytest.approx(
            (self.ALPHA["disk.read"] + self.GAMMA["disk.read"] * 5) / 5
        )

    def test_missing_meta_row_is_rejected(self):
        rows = self._run(4)[1:]
        with pytest.raises(ConfigurationError):
            CalibratedCostModel.from_obs_rows([rows], page_size=64)

    def test_empty_input_is_rejected(self):
        with pytest.raises(ConfigurationError):
            CalibratedCostModel.from_obs_rows([], page_size=64)


class TestProbeAndVerify:
    def test_probe_is_deterministic_and_verifies(self):
        kwargs = dict(page_size=64, num_records=96, queries=16, seed=7)
        first = CalibratedCostModel.from_probe(**kwargs)
        second = CalibratedCostModel.from_probe(**kwargs)
        assert first.coefficients == second.coefficients
        target = PlanTarget(
            num_pages=256, page_size=64, p99_seconds=0.05, qps=5.0,
            privacy_c=3.0,
        )
        built = plan(target, model=first)
        rows = verify_plan(built, first, queries=16, seed=7)
        assert {row["phase"] for row in rows} == (
            set(PHASE_NAMES) | {OTHER_PHASE, "total"}
        )
        for row in rows:
            assert row["error"] <= 0.15, row

    def test_verify_scales_down_oversized_targets(self):
        """Per-query phase cost depends only on (k, page size), so
        verification of a million-page plan runs on a small build."""
        built = plan(_target())
        model = CalibratedCostModel.from_spec(IBM_4764, page_size=1000)
        rows = verify_plan(built, model, queries=4, build_pages=256)
        for row in rows:
            assert row["error"] <= 0.15, row
