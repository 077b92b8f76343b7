"""YCSB-style preset mixes + statistical tests of the oblivious shuffle."""

from __future__ import annotations

import pytest

from repro import PirDatabase
from repro.analysis.stats import chi_square_test
from repro.crypto.rng import SecureRandom
from repro.errors import ConfigurationError
from repro.workload import WORKLOAD_PRESETS, preset_stream, replay_trace

from tests.helpers import make_db


class TestPresets:
    def test_presets_cover_ycsb_letters(self):
        assert set(WORKLOAD_PRESETS) == {"A", "B", "C", "D", "E"}
        for mix in WORKLOAD_PRESETS.values():
            assert abs(sum(mix) - 1.0) < 1e-12

    def test_preset_c_is_read_only(self):
        stream = preset_stream("C", 30, 200, SecureRandom(1))
        assert all(op.kind == "query" for op in stream)

    def test_preset_a_update_heavy(self):
        stream = preset_stream("A", 30, 1000, SecureRandom(2))
        updates = sum(1 for op in stream if op.kind == "update")
        assert 0.4 < updates / len(stream) < 0.6

    def test_preset_runs_against_database(self):
        db = make_db(num_records=30, reserve_fraction=0.3, seed=901)
        stream = preset_stream("E", 30, 80, SecureRandom(3))
        counters = replay_trace(db, stream)
        assert counters.get("query") > 0
        db.consistency_check()

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            preset_stream("Z", 10, 5, SecureRandom(1))


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
