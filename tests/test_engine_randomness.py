"""Statistical tests of the engine's security-critical random choices.

The privacy analysis assumes three draws are uniform: the in-block slot r
(line 17), the cache victim s (line 19), and the random extra page (lines
3-5, uniform over eligible pages).  These tests chi-square each of them on
the executed engine — if an implementation bug biased any draw, the
c-approximate bound would silently degrade, so this is the security test
that matters most.
"""

from __future__ import annotations

import pytest

from repro.analysis.stats import chi_square_test
from repro.crypto.rng import SecureRandom

from tests.helpers import make_db


@pytest.fixture(scope="module")
def driven_db_and_outcomes():
    db = make_db(num_records=40, cache_capacity=8, target_c=2.0,
                 page_capacity=16, reserve_fraction=0.2,
                 cipher_backend="null", trace_enabled=False, seed=4242)
    rng = SecureRandom(99)
    outcomes = []
    extra_ids = []
    pm = db.cop.state
    for _ in range(3000):
        db.query(rng.randrange(40))
        outcome = db.engine.last_outcome
        outcomes.append(outcome)
        # Recover the extra page's identity from its (post-request) state:
        # the page that was at extra_location was either the target (now
        # cached) or got displaced; instead track location-level uniformity.
        extra_ids.append(outcome.extra_location)
    return db, outcomes, extra_ids


class TestBlockSlotUniformity:
    def test_relocation_slot_r_is_uniform(self, driven_db_and_outcomes):
        db, outcomes, _ = driven_db_and_outcomes
        k = db.params.block_size
        counts = [0] * k
        for outcome in outcomes:
            counts[outcome.block_slot] += 1
        result = chi_square_test(counts, [1.0 / k] * k)
        assert not result.rejects_at(0.001), (counts, result)


class TestVictimUniformity:
    def test_cache_victim_s_is_uniform(self, driven_db_and_outcomes):
        db, outcomes, _ = driven_db_and_outcomes
        m = db.params.cache_capacity
        counts = [0] * m
        for outcome in outcomes:
            counts[outcome.victim_slot] += 1
        result = chi_square_test(counts, [1.0 / m] * m)
        assert not result.rejects_at(0.001), (counts, result)


class TestExtraLocationCoverage:
    def test_extra_reads_spread_over_the_disk(self, driven_db_and_outcomes):
        """The extra read's location must not concentrate anywhere: over a
        long run, every disk location should be the extra read occasionally.

        Not exactly uniform per-request (the extra is the *target's current
        location* on misses and a random non-cached page on hits, and the
        in-current-block exclusion carves out a rotating window), so this
        is a coverage + no-hotspot check rather than a strict chi-square.
        """
        db, _, extra_locations = driven_db_and_outcomes
        n = db.params.num_locations
        counts = [0] * n
        for location in extra_locations:
            counts[location] += 1
        covered = sum(1 for c in counts if c > 0)
        assert covered >= 0.95 * n
        mean = len(extra_locations) / n
        assert max(counts) < 5 * mean, max(counts)


class TestDeterminism:
    def test_same_seed_same_observable_trace(self):
        def run(seed):
            db = make_db(num_records=30, seed=seed, cipher_backend="null")
            for i in range(40):
                db.query(i % 30)
            return [
                (e.op, e.location, e.count) for e in db.trace
            ]

        assert run(777) == run(777)
        assert run(777) != run(778)

    def test_rng_stream_isolation_between_components(self):
        """Cache RNG is spawned from the master seed; consuming engine
        randomness must not shift the setup permutation."""
        a = make_db(num_records=30, seed=55)
        b = make_db(num_records=30, seed=55)
        a.touch()  # consumes engine randomness on a only
        # Underlying layouts were identical at creation:
        matching = sum(
            1 for i in range(b.disk.num_locations)
            if a.disk.peek(i) == b.disk.peek(i)
        )
        # a.touch() rewrote one block + one extra; everything else matches.
        rewritten = a.params.block_size + 1
        assert matching >= b.disk.num_locations - rewritten - 1
