"""Owner suspend/resume in the two-party model."""

from __future__ import annotations

import json

import pytest

from repro.baselines import make_records
from repro.crypto.suite import _RENAMED
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    PageDeletedError,
    ProtocolError,
)
from repro.twoparty import DataOwner, SimulatedChannel, TwoPartySession

RECORDS = make_records(40, 16)


def _session(seed=70):
    return TwoPartySession.create(
        RECORDS, cache_capacity=6, block_size=5, page_capacity=16,
        reserve_fraction=0.2, seed=seed,
    )


def _reconnect_factory(session):
    """A channel factory that reattaches to the session's live provider."""

    def factory(clock, frame_size, num_locations):
        return SimulatedChannel(clock, session.provider.serve,
                                rtt=0.05, bandwidth=2.33e6)

    return factory


class TestResume:
    def test_resume_preserves_all_state(self):
        session = _session()
        session.update(4, b"before-seal")
        session.delete(9)
        for i in range(25):
            if i != 9:
                session.query(i)
        sealed = session.owner.seal_state()
        pointer_at_seal = session.owner.engine.next_block_index
        resumed = DataOwner.resume(sealed, _reconnect_factory(session), seed=1)
        assert resumed.engine.next_block_index == pointer_at_seal
        assert resumed.query(4) == b"before-seal"
        with pytest.raises(PageDeletedError):
            resumed.query(9)
        for i in range(40):
            if i not in (9,):
                expected = b"before-seal" if i == 4 else RECORDS[i]
                assert resumed.query(i) == expected

    def test_resumed_owner_keeps_operating(self):
        session = _session(seed=71)
        session.query(0)
        sealed = session.owner.seal_state()
        resumed = DataOwner.resume(sealed, _reconnect_factory(session), seed=2)
        resumed.update(1, b"post-resume")
        assert resumed.query(1) == b"post-resume"
        new_id = resumed.insert(b"added-after")
        assert resumed.query(new_id) == b"added-after"

    def test_wrong_key_rejected(self):
        session = _session(seed=72)
        sealed = session.owner.seal_state()
        with pytest.raises(AuthenticationError):
            DataOwner.resume(sealed, _reconnect_factory(session),
                             master_key=b"not-the-key", seed=3)

    def test_truncated_state_rejected(self):
        session = _session(seed=73)
        sealed = session.owner.seal_state()
        with pytest.raises((ProtocolError, Exception)):
            DataOwner.resume(sealed[:3], _reconnect_factory(session), seed=4)

    def test_state_sealed_under_the_retired_keystream_is_refused(self):
        """Same hazard as ``load_snapshot``: the MAC would pass and the
        trusted state would open to noise, so the manifest is checked
        before a suite is built (no channel is dialled either)."""
        session = _session(seed=75)
        sealed = session.owner.seal_state()
        length = int.from_bytes(sealed[:4], "big")
        manifest = json.loads(sealed[4 : 4 + length])
        (manifest["cipher_backend"],) = _RENAMED
        rewritten = json.dumps(manifest, sort_keys=True).encode("utf-8")
        dialled = []
        with pytest.raises(ConfigurationError,
                           match="sealed under the retired blake2 keystream"):
            DataOwner.resume(
                len(rewritten).to_bytes(4, "big") + rewritten
                + sealed[4 + length :],
                lambda *args: dialled.append(args), seed=5,
            )
        assert dialled == []

    def test_seal_during_rotation_round_trips(self):
        """The sealed state carries the legacy key and the countdown: the
        owner resumes under the new key, reads old-key frames, and the
        rotation finishes after the rest of one scan period."""
        session = _session(seed=74)
        owner = session.owner
        owner.cop.begin_key_rotation(b"new-key")
        owner.engine.touch()
        left = owner.engine.rotation_requests_remaining
        resumed = DataOwner.resume(owner.seal_state(),
                                   _reconnect_factory(session),
                                   master_key=b"new-key", seed=6)
        assert resumed.cop.rotation_in_progress
        assert resumed.engine.rotation_requests_remaining == left
        for _ in range(left):
            resumed.engine.touch()
        assert not resumed.cop.rotation_in_progress
        assert resumed.engine.rotation_requests_remaining is None
        for i in range(40):
            assert resumed.query(i) == RECORDS[i]
