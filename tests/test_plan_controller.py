"""repro.plan online controller: windowed observation, guardrails, freeze.

The controller is driven synchronously here — ``step()`` runs one cycle —
with the registry's histograms and counters populated by hand, so every
decision path is deterministic: back off when the windowed p99 breaches
the target, open up when the latency budget is idle, clamp at the
guardrails, and never, under any input, touch a privacy parameter.
"""

from __future__ import annotations

import time

import pytest

from repro.core.params import SystemParameters
from repro.errors import ConfigurationError
from repro.net.admission import AdmissionController, TokenBucket
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.plan import Guardrail, PlanController

HIST = "engine.query_seconds"


class FakeReshuffler:
    def __init__(self, batch_size=8, idle_interval=0.01, active=True):
        self.batch_size = batch_size
        self.idle_interval = idle_interval
        self.active = active
        self.calls = []

    def set_pacing(self, batch_size=None, idle_interval=None):
        self.calls.append((batch_size, idle_interval))
        if batch_size is not None:
            self.batch_size = batch_size
        if idle_interval is not None:
            self.idle_interval = idle_interval


def make_controller(registry=None, **overrides):
    registry = registry or MetricsRegistry()
    defaults = dict(target_p99=0.1, histogram=HIST, interval=0.01)
    defaults.update(overrides)
    return registry, PlanController(registry, **defaults)


def observe(registry, *values):
    hist = registry.histogram(HIST)
    for value in values:
        hist.observe(value)


class TestValidation:
    def test_rejects_bad_parameters(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            PlanController(registry, target_p99=0.0)
        with pytest.raises(ConfigurationError):
            PlanController(registry, target_p99=0.1, interval=0.0)
        with pytest.raises(ConfigurationError):
            PlanController(registry, target_p99=0.1,
                           low_water=0.9, high_water=0.5)
        with pytest.raises(ConfigurationError):
            Guardrail(floor=2.0, ceiling=1.0)

    def test_pipeline_tunable_is_gone(self):
        with pytest.raises(TypeError):
            PlanController(MetricsRegistry(), target_p99=0.1,
                           pipeline=object())

    def test_guardrail_clamps(self):
        rail = Guardrail(1.0, 10.0)
        assert rail.clamp(0.5) == 1.0
        assert rail.clamp(5.0) == 5.0
        assert rail.clamp(50.0) == 10.0


class TestWindowedP99:
    def test_first_cycle_uses_whole_distribution(self):
        registry, ctrl = make_controller()
        observe(registry, *[0.01] * 98, 5.0, 5.0)
        p99 = ctrl.step()
        assert p99 is not None and p99 > 0.1

    def test_window_is_the_delta_not_the_total(self):
        registry, ctrl = make_controller()
        observe(registry, *[5.0] * 100)  # old slow samples
        ctrl.step()
        observe(registry, *[0.01] * 100)  # the new window is all fast
        p99 = ctrl.step()
        assert p99 is not None and p99 < 0.1

    def test_empty_window_returns_none(self):
        registry, ctrl = make_controller()
        observe(registry, 0.05)
        ctrl.step()
        assert ctrl.step() is None

    def test_cycle_counters_and_gauge(self):
        registry, ctrl = make_controller()
        observe(registry, 0.05)
        ctrl.step()
        ctrl.step()
        assert registry.counter("plan.cycles").value == 2
        assert registry.gauge("plan.window_p99").value > 0

    def test_step_runs_inside_controller_span(self):
        tracer = Tracer()
        registry, ctrl = make_controller(tracer=tracer)
        ctrl.step()
        assert "plan.controller" in tracer.phase_totals()


class TestAdmissionTuning:
    def _admission(self, rate=100.0, capacity=10.0):
        return AdmissionController(
            bucket=TokenBucket(rate=rate, capacity=capacity)
        )

    def test_backs_off_when_p99_breaches_target(self):
        admission = self._admission()
        registry, ctrl = make_controller(admission=admission)
        observe(registry, *[0.5] * 10)
        ctrl.step()
        assert admission.bucket.rate == pytest.approx(70.0)
        assert registry.counter("plan.adjust.admission").value == 1
        assert ctrl.adjustments[-1].tunable == "admission"

    def test_opens_up_when_shedding_with_idle_latency(self):
        admission = self._admission()
        registry, ctrl = make_controller(admission=admission)
        registry.counter("net.shed").inc(5)
        observe(registry, *[0.001] * 10)
        ctrl.step()
        assert admission.bucket.rate == pytest.approx(125.0)
        # Burst stays proportional to the sustained rate.
        assert admission.bucket.capacity == pytest.approx(12.5)

    def test_no_change_without_pressure(self):
        admission = self._admission()
        registry, ctrl = make_controller(admission=admission)
        observe(registry, *[0.05] * 10)  # mid-band: no action
        ctrl.step()
        assert admission.bucket.rate == 100.0
        assert registry.counter("plan.adjust.admission").value == 0
        assert ctrl.adjustments == []

    def test_guardrail_floor_holds(self):
        admission = self._admission(rate=1.5)
        registry, ctrl = make_controller(
            admission=admission,
            admission_guardrail=Guardrail(1.0, 1e6),
        )
        for _ in range(5):
            observe(registry, *[0.5] * 10)
            ctrl.step()
        assert admission.bucket.rate >= 1.0

    def test_bucketless_admission_is_ignored(self):
        admission = AdmissionController(max_sessions=4)
        registry, ctrl = make_controller(admission=admission)
        observe(registry, *[0.5] * 10)
        ctrl.step()  # must not raise
        assert registry.counter("plan.adjust.admission").value == 0


class TestReshuffleTuning:
    def test_speeds_up_when_latency_is_idle(self):
        reshuffler = FakeReshuffler(batch_size=8, idle_interval=0.01)
        registry, ctrl = make_controller(reshuffler=reshuffler)
        observe(registry, *[0.001] * 10)
        ctrl.step()
        assert reshuffler.batch_size == 16
        assert reshuffler.idle_interval == pytest.approx(0.005)
        assert registry.counter("plan.adjust.reshuffle").value == 1

    def test_backs_off_near_the_target(self):
        reshuffler = FakeReshuffler(batch_size=8, idle_interval=0.01)
        registry, ctrl = make_controller(reshuffler=reshuffler)
        observe(registry, *[0.095] * 10)
        ctrl.step()
        assert reshuffler.batch_size == 4
        assert reshuffler.idle_interval == pytest.approx(0.02)

    def test_inactive_reshuffler_is_left_alone(self):
        reshuffler = FakeReshuffler(active=False)
        registry, ctrl = make_controller(reshuffler=reshuffler)
        observe(registry, *[0.001] * 10)
        ctrl.step()
        assert reshuffler.calls == []

    def test_callable_source_tracks_fresh_drivers(self):
        """Epochs create fresh drivers; a callable source follows them."""
        drivers = [FakeReshuffler(batch_size=8)]
        registry, ctrl = make_controller(reshuffler=lambda: drivers[-1])
        observe(registry, *[0.001] * 10)
        ctrl.step()
        assert drivers[-1].batch_size == 16
        drivers.append(FakeReshuffler(batch_size=8))
        observe(registry, *[0.001] * 10)
        ctrl.step()
        assert drivers[-1].batch_size == 16
        assert drivers[0].batch_size == 16  # untouched since replacement

    def test_batch_guardrail_floor(self):
        reshuffler = FakeReshuffler(batch_size=2, idle_interval=0.01)
        registry, ctrl = make_controller(
            reshuffler=reshuffler,
            batch_guardrail=Guardrail(1, 1024),
        )
        for _ in range(4):
            observe(registry, *[0.099] * 10)
            ctrl.step()
        assert reshuffler.batch_size >= 1


class TestPrivacyFreeze:
    def test_no_input_changes_privacy_parameters(self):
        """The controller can re-tune every cost knob while the privacy
        triple (k, m, n) — and hence the achieved c — never moves."""
        params = SystemParameters.from_block_size(4096, 64, 8)
        before = (params.block_size, params.cache_capacity,
                  params.num_locations, params.achieved_c)
        admission = AdmissionController(
            bucket=TokenBucket(rate=100.0, capacity=10.0)
        )
        reshuffler = FakeReshuffler()
        registry, ctrl = make_controller(
            admission=admission, reshuffler=reshuffler
        )
        # Slam every decision branch: breach, idle, sheds.
        for values in ([0.5] * 20, [0.001] * 20, [0.095] * 20):
            registry.counter("net.shed").inc(3)
            observe(registry, *values)
            ctrl.step()
        assert len(ctrl.adjustments) >= 3
        after = (params.block_size, params.cache_capacity,
                 params.num_locations, params.achieved_c)
        assert after == before
        # Every recorded adjustment names a cost-side tunable only.
        assert {a.tunable for a in ctrl.adjustments} <= {
            "admission", "reshuffle"
        }


class TestLifecycle:
    def test_background_loop_runs_and_stops(self):
        registry, ctrl = make_controller(interval=0.005)
        observe(registry, *[0.05] * 10)
        with ctrl.start():
            deadline = time.time() + 2.0
            while (registry.counter("plan.cycles").value < 3
                   and time.time() < deadline):
                time.sleep(0.005)
        cycles = registry.counter("plan.cycles").value
        assert cycles >= 3
        time.sleep(0.03)
        assert registry.counter("plan.cycles").value == cycles

    def test_close_is_idempotent_and_step_survives(self):
        registry, ctrl = make_controller()
        ctrl.start()
        ctrl.close()
        ctrl.close()
        observe(registry, 0.05)
        assert ctrl.step() is not None

    def test_start_after_close_is_rejected(self):
        _, ctrl = make_controller()
        ctrl.close()
        with pytest.raises(ConfigurationError):
            ctrl.start()
