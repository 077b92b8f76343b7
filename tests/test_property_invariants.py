"""Property-based invariants of the full system under random operations.

Hypothesis drives the complete :class:`PirDatabase` through arbitrary
operation sequences and asserts the structural invariants that the privacy
analysis rests on:

* every logical page exists in exactly one place (disk xor cache);
* the cache always holds exactly m pages;
* every disk location always holds exactly one authentic frame;
* the observable trace shape never varies;
* a shadow dict agrees with every readable payload.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, PageDeletedError, PageNotFoundError
from repro.storage.trace import shapes_identical

from tests.helpers import make_db

# One operation = (kind, page-selector in [0,1), payload byte).
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["query", "update", "insert", "delete", "touch"]),
        st.floats(min_value=0, max_value=0.999),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=60,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations=_OPERATIONS, seed=st.integers(0, 10**6))
def test_system_invariants_under_random_operations(operations, seed):
    db = make_db(
        num_records=24,
        cache_capacity=4,
        page_capacity=16,
        block_size=4,
        reserve_fraction=0.25,
        seed=seed,
        cipher_backend="null",
    )
    shadow = {
        page_id: page_id.to_bytes(8, "big") * 2 for page_id in range(24)
    }

    for kind, selector, payload_byte in operations:
        live = sorted(shadow)
        payload = bytes([payload_byte]) * 4
        if kind == "touch":
            db.touch()
        elif kind == "insert":
            try:
                new_id = db.insert(payload)
                shadow[new_id] = payload
            except CapacityError:
                pass
        elif not live:
            db.touch()
        else:
            target = live[int(selector * len(live))]
            if kind == "query":
                assert db.query(target) == shadow[target]
            elif kind == "update":
                db.update(target, payload)
                shadow[target] = payload
            else:  # delete
                db.delete(target)
                del shadow[target]

    # Structural invariants.
    db.consistency_check()
    assert db.cop.state.cached_count == db.params.cache_capacity

    # Every shadow entry is still readable and correct.
    for page_id, payload in shadow.items():
        assert db.query(page_id) == payload

    # Deleted user pages refuse queries but still execute requests.
    for page_id in range(24):
        if page_id not in shadow:
            with pytest.raises((PageDeletedError, PageNotFoundError)):
                db.query(page_id)

    # The server-visible trace never varied in shape.
    assert shapes_identical(db.trace, 0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_landing_block_always_current_round_robin_block(seed):
    """Whenever a page leaves the cache, it must land inside the block that
    the evicting request read — the geometric/uniform decomposition that
    Eqs. 1-2 rely on."""
    db = make_db(
        num_records=24,
        cache_capacity=4,
        page_capacity=16,
        block_size=4,
        reserve_fraction=0.25,
        seed=seed,
        cipher_backend="null",
    )
    pm = db.cop.state
    k = db.params.block_size
    for step in range(40):
        cached_before = {
            pid: pm.lookup(pid).position
            for pid in range(db.params.total_pages)
            if pm.is_cached(pid)
        }
        db.query(step % 24)
        outcome = db.engine.last_outcome
        for pid in cached_before:
            if not pm.is_cached(pid):  # this page was evicted just now
                landing = pm.lookup(pid).position
                assert outcome.block_start <= landing < outcome.block_start + k


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), c=st.floats(min_value=1.1, max_value=8.0))
def test_solved_configurations_always_run(seed, c):
    """Any configuration the solver accepts must execute correctly."""
    db = make_db(num_records=20, cache_capacity=4, page_capacity=16,
                 target_c=c, seed=seed, cipher_backend="null")
    for page_id in range(20):
        assert db.query(page_id) == page_id.to_bytes(8, "big") * 2
    db.consistency_check()
