"""SystemParameters and the Eq. 1-6 trade-off math, pinned to paper values."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import (
    SystemParameters,
    achieved_privacy,
    cache_for_privacy,
    eviction_probability,
    landing_probability,
    required_block_size,
    scan_period_for_privacy,
)
from repro.errors import ConfigurationError


class TestScalarRelations:
    def test_paper_figure4a_block_size(self):
        """1 GB DB (n = 10^6), m = 50000, c = 2  ->  k = 29 (27 ms point)."""
        assert required_block_size(10**6, 50_000, 2.0) == 29

    def test_paper_10gb_one_unit(self):
        """10 GB (n = 10^7), m = 20000, c = 2  ->  k = 722 (197 ms point)."""
        assert required_block_size(10**7, 20_000, 2.0) == 722

    def test_paper_1tb(self):
        """1 TB (n = 10^9), m = 500000, c = 2  ->  k = 2886 (727 ms point)."""
        assert required_block_size(10**9, 500_000, 2.0) == 2886

    def test_scan_period_formula(self):
        # T = log(1/c)/log(1-1/m) + 1
        period = scan_period_for_privacy(1000, 2.0)
        assert period == pytest.approx(
            math.log(0.5) / math.log(1 - 1 / 1000) + 1
        )

    def test_c_equal_one_is_full_scan(self):
        assert scan_period_for_privacy(100, 1.0) == 1.0
        assert required_block_size(500, 100, 1.0) == 500

    def test_achieved_privacy_inverts_required_block_size(self):
        n, m, c = 100_000, 5_000, 1.5
        k = required_block_size(n, m, c)
        # k was rounded up, so the achieved privacy is at least as good.
        assert achieved_privacy(n, m, k) <= c
        if k > 1:
            assert achieved_privacy(n, m, k - 1) > c

    def test_larger_cache_improves_privacy_for_fixed_k(self):
        """Eq. 5: for fixed T, c -> 1 as m grows (the paper's observation)."""
        values = [achieved_privacy(10_000, m, 100) for m in (100, 1_000, 10_000)]
        assert values[0] > values[1] > values[2] > 1.0

    def test_larger_k_improves_privacy(self):
        values = [achieved_privacy(10_000, 500, k) for k in (10, 100, 1_000)]
        assert values[0] > values[1] > values[2]

    def test_full_scan_is_perfect(self):
        assert achieved_privacy(1000, 50, 1000) == pytest.approx(1.0)

    def test_eviction_probability_geometric(self):
        m = 10
        assert eviction_probability(m, 1) == pytest.approx(1 / m)
        assert eviction_probability(m, 2) == pytest.approx((1 - 1 / m) / m)
        total = sum(eviction_probability(m, t) for t in range(1, 2000))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_landing_probability_divides_by_k(self):
        assert landing_probability(10, 4, 3) == pytest.approx(
            eviction_probability(10, 3) / 4
        )

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            scan_period_for_privacy(1, 2.0)
        with pytest.raises(ConfigurationError):
            scan_period_for_privacy(10, 0.5)
        with pytest.raises(ConfigurationError):
            required_block_size(0, 10, 2.0)
        with pytest.raises(ConfigurationError):
            achieved_privacy(10, 5, 11)
        with pytest.raises(ConfigurationError):
            eviction_probability(10, 0)
        with pytest.raises(ConfigurationError):
            landing_probability(10, 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=100, max_value=10**7),
        m=st.integers(min_value=2, max_value=10**5),
        c=st.floats(min_value=1.01, max_value=50.0),
    )
    def test_required_block_size_meets_target(self, n, m, c):
        k = required_block_size(n, m, c)
        assert 1 <= k <= n
        if k < n:
            assert achieved_privacy(n, m, k) <= c * (1 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10**7),
        share=st.floats(min_value=0.0, max_value=1.0),
        c=st.floats(min_value=1.01, max_value=50.0),
    )
    def test_cache_for_privacy_is_the_smallest_meeting_m(self, n, share, c):
        k = max(1, min(n, round(share * n)))
        m = cache_for_privacy(n, k, c)
        assert m >= 2
        assert achieved_privacy(n, m, k) <= c * (1 + 1e-12)
        assert m == 2 or achieved_privacy(n, m - 1, k) > c * (1 + 1e-12)

    def test_cache_for_privacy_edges(self):
        assert cache_for_privacy(1000, 1000, 1.5) == 2  # T = 1: full scan
        assert cache_for_privacy(1, 1, 2.0) == 2
        # Figure 4a's point (m = 50 000 gives k = 29) read backwards.
        m = cache_for_privacy(10**6, 29, 2.0)
        assert m <= 50_000
        assert required_block_size(10**6, m, 2.0) == 29
        assert required_block_size(10**6, m - 1, 2.0) == 30
        for bad in ((1000, 10, 1.0), (1000, 10, 0.5), (1000, 0, 2.0),
                    (1000, 1001, 2.0), (0, 1, 2.0)):
            with pytest.raises(ConfigurationError):
                cache_for_privacy(*bad)


class TestSystemParameters:
    def test_solve_basic(self):
        params = SystemParameters.solve(1000, 50, 2.0, page_capacity=64)
        assert params.num_locations % params.block_size == 0
        assert params.num_locations >= 1000
        assert params.achieved_c <= 2.0 + 1e-9
        assert params.meets_target()
        assert params.total_pages == params.num_locations + 50

    def test_solve_with_reserve(self):
        params = SystemParameters.solve(100, 10, 2.0, reserve_fraction=0.5)
        assert params.free_pages >= 50

    def test_from_block_size(self):
        params = SystemParameters.from_block_size(100, 10, 5)
        assert params.block_size == 5
        assert params.num_locations == 100
        assert params.target_c == params.achieved_c

    def test_scan_period_and_blocks(self):
        params = SystemParameters.from_block_size(120, 10, 6)
        assert params.num_blocks == 20
        assert params.scan_period == 20

    def test_solve_rejects_c_of_one(self):
        with pytest.raises(ConfigurationError):
            SystemParameters.solve(100, 10, 1.0)

    def test_solve_rejects_tiny_cache(self):
        with pytest.raises(ConfigurationError):
            SystemParameters.solve(100, 1, 2.0)

    def test_headroom_invariant(self):
        """Every solved configuration allows rejection sampling to succeed."""
        for n in (10, 100, 997):
            for c in (1.5, 2.0, 8.0):
                params = SystemParameters.solve(n, 5, c)
                assert params.num_locations >= params.block_size + 2

    def test_padding_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(
                num_user_pages=10,
                reserve_pages=0,
                cache_capacity=4,
                block_size=3,
                num_locations=10,  # not a multiple of 3
                page_capacity=16,
                target_c=2.0,
            )

    def test_describe_mentions_key_values(self):
        text = SystemParameters.solve(100, 10, 2.0).describe()
        assert "k=" in text and "m=10" in text

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=5000),
        m=st.integers(min_value=2, max_value=200),
        c=st.floats(min_value=1.05, max_value=20.0),
    )
    def test_solve_property(self, n, m, c):
        params = SystemParameters.solve(n, m, c)
        assert params.num_locations % params.block_size == 0
        assert params.num_locations >= n
        assert params.num_locations >= params.block_size + 2
        # Achieved privacy never worse than target (modulo headroom padding).
        if params.num_locations == params.block_size * math.ceil(
            n / params.block_size
        ):
            assert params.achieved_c <= c * (1 + 1e-9)
