"""Virtual clock and the exact latency series."""

from __future__ import annotations

import pytest

from repro.analysis.stats import LatencySeries
from repro.errors import ConfigurationError
from repro.sim.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(1.75)

    def test_advance_returns_new_time(self):
        assert VirtualClock().advance(2.0) == pytest.approx(2.0)

    def test_advance_to_only_moves_forward(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualClock().advance(-0.1)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(9)
        clock.reset()
        assert clock.now == 0.0


class TestLatencySeries:
    def _series(self, values):
        series = LatencySeries()
        series.extend(values)
        return series

    def test_basic_stats(self):
        series = self._series([1.0, 2.0, 3.0, 4.0])
        assert series.mean() == pytest.approx(2.5)
        assert series.minimum() == 1.0
        assert series.maximum() == 4.0
        assert len(series) == 4

    def test_percentiles(self):
        series = self._series([float(i) for i in range(1, 101)])
        assert series.percentile(50) == 50.0
        assert series.percentile(99) == 99.0
        assert series.percentile(100) == 100.0
        assert series.percentile(0) == 1.0

    def test_stddev_and_cv(self):
        constant = self._series([2.0] * 10)
        assert constant.stddev() == 0.0
        assert constant.coefficient_of_variation() == 0.0
        spiky = self._series([1.0] * 9 + [100.0])
        assert spiky.coefficient_of_variation() > 1.0

    def test_single_sample(self):
        series = self._series([3.0])
        assert series.stddev() == 0.0
        assert series.percentile(50) == 3.0

    def test_summary_keys(self):
        summary = self._series([1.0, 2.0]).summary()
        assert set(summary) == {"count", "mean", "min", "p50", "p99", "max",
                                "stddev", "cv"}

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            LatencySeries().mean()
        with pytest.raises(ConfigurationError):
            self._series([1.0]).percentile(101)
        with pytest.raises(ConfigurationError):
            LatencySeries().record(-1.0)

    def test_samples_copy(self):
        series = self._series([1.0])
        series.samples.append(99.0)
        assert len(series) == 1

