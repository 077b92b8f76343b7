"""Statistical tests of the oblivious shuffle."""

from __future__ import annotations

from repro import PirDatabase
from repro.analysis.stats import chi_square_test


def oblivious_position(seed, n=8):
    """Where pages 0 and 1 land in an oblivious build of ``n`` pages."""
    db = PirDatabase.create([b""] * n, cache_capacity=2, block_size=2,
                            page_capacity=0, seed=seed, cipher_backend="null",
                            trace_enabled=False, setup_mode="oblivious")
    assert db.params.num_locations == n
    return [db.cop.state.lookup(page_id).position for page_id in (0, 1)]


class TestShuffleUniformity:
    def test_landing_positions_pass_chi_square(self):
        """Where page 0 lands, across many seeds, must be uniform over the
        n slots (the property Definition 1 inherits from setup)."""
        n, rounds = 8, 640
        counts = [0] * n
        for seed in range(rounds):
            counts[oblivious_position(10**6 + seed, n)[0]] += 1
        result = chi_square_test(counts, [1.0 / n] * n)
        assert not result.rejects_at(0.001), (counts, result.p_value)

    def test_pairwise_independence_coarse(self):
        """Pages 0 and 1 should not land adjacently more often than chance."""
        n, rounds = 8, 400
        adjacent = 0
        for seed in range(rounds):
            first, second = oblivious_position(9000 + seed, n)
            if abs(first - second) == 1:
                adjacent += 1
        # P(adjacent) = 2*(n-1)/(n*(n-1)) = 2/n = 0.25; allow wide noise band.
        share = adjacent / rounds
        assert 0.15 < share < 0.35, share
