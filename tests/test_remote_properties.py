"""Property-based workouts of the remote deployments (two-party + service).

The local engine's invariants are property-tested in
``test_property_invariants``; these tests push the same random operation
sequences through the *wire* paths — the two-party owner/provider protocol
and the multi-client service front-end — asserting that remote execution is
observationally identical to a shadow model.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import make_records
from repro.errors import (
    CapacityError,
    ConfigurationError,
    PageDeletedError,
    PageNotFoundError,
)
from repro.service import QueryFrontend, ServiceClient
from repro.twoparty import TwoPartySession

from tests.helpers import make_db

_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["query", "update", "insert", "delete"]),
        st.floats(min_value=0, max_value=0.999),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=25,
)


def _apply(shadow, actor, kind, selector, payload_byte):
    """Apply one op to a deployment + shadow dict; returns nothing."""
    live = sorted(shadow)
    payload = bytes([payload_byte]) * 4
    if kind == "insert":
        try:
            new_id = actor.insert(payload)
            shadow[new_id] = payload
        except (CapacityError, ConfigurationError):
            pass
        return
    if not live:
        return
    target = live[int(selector * len(live))]
    if kind == "query":
        assert actor.query(target) == shadow[target]
    elif kind == "update":
        actor.update(target, payload)
        shadow[target] = payload
    else:
        try:
            actor.delete(target)
            del shadow[target]
        except (PageNotFoundError, ConfigurationError):
            pass


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(operations=_OPERATIONS, seed=st.integers(0, 10**6))
def test_two_party_session_matches_shadow(operations, seed):
    records = make_records(20, 16)
    owner = TwoPartySession.create(
        records, cache_capacity=4, block_size=4, page_capacity=16,
        reserve_fraction=0.3, seed=seed,
    ).owner
    shadow = {i: records[i] for i in range(20)}
    for kind, selector, payload_byte in operations:
        _apply(shadow, owner, kind, selector, payload_byte)
    for page_id, payload in shadow.items():
        assert owner.query(page_id) == payload
    for page_id in range(20):
        if page_id not in shadow:
            with pytest.raises((PageDeletedError, PageNotFoundError)):
                owner.query(page_id)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    operations=_OPERATIONS,
    client_picks=st.lists(st.integers(0, 2), min_size=25, max_size=25),
    seed=st.integers(0, 10**6),
)
def test_service_clients_share_consistent_state(operations, client_picks, seed):
    db = make_db(num_records=20, cache_capacity=4, block_size=4,
                 page_capacity=16, reserve_fraction=0.3, seed=seed,
                 cipher_backend="null")
    frontend = QueryFrontend(db)
    clients = [ServiceClient(frontend) for _ in range(3)]
    records = make_records(20, 16)
    shadow = {i: records[i] for i in range(20)}
    for index, (kind, selector, payload_byte) in enumerate(operations):
        actor = clients[client_picks[index % len(client_picks)]]
        try:
            _apply(shadow, actor, kind, selector, payload_byte)
        except ConfigurationError:
            pass  # service surfaces refusals as ConfigurationError
    # Any client sees the merged state.
    observer = clients[0]
    for page_id, payload in shadow.items():
        assert observer.query(page_id) == payload
    db.consistency_check()
