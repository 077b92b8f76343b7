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
from repro.core.engine import BatchOp
from repro.core.snapshot import suspend
from repro.twoparty import SimulatedChannel, TwoPartySession, resume_owner

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
        session.owner.update(4, b"before-seal")
        session.owner.delete(9)
        for i in range(25):
            if i != 9:
                session.owner.query(i)
        sealed = suspend(session.owner)
        pointer_at_seal = session.owner.engine.next_block_index
        resumed = resume_owner(sealed, _reconnect_factory(session), seed=1)
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
        session.owner.query(0)
        sealed = suspend(session.owner)
        resumed = resume_owner(sealed, _reconnect_factory(session), seed=2)
        resumed.update(1, b"post-resume")
        assert resumed.query(1) == b"post-resume"
        new_id = resumed.insert(b"added-after")
        assert resumed.query(new_id) == b"added-after"

    def test_wrong_key_rejected(self):
        session = _session(seed=72)
        sealed = suspend(session.owner)
        with pytest.raises(AuthenticationError):
            resume_owner(sealed, _reconnect_factory(session),
                         master_key=b"not-the-key", seed=3)

    def test_truncated_state_rejected(self):
        session = _session(seed=73)
        sealed = suspend(session.owner)
        with pytest.raises(ProtocolError, match="truncated"):
            resume_owner(sealed[:3], _reconnect_factory(session), seed=4)

    def test_state_sealed_under_the_retired_keystream_is_refused(self):
        """Same hazard as ``load_snapshot``: the MAC would pass and the
        trusted state would open to noise, so the manifest is checked
        before a suite is built (no channel is dialled either)."""
        session = _session(seed=75)
        sealed = suspend(session.owner)
        length = int.from_bytes(sealed[:4], "big")
        manifest = json.loads(sealed[4 : 4 + length])
        (manifest["cipher_backend"],) = _RENAMED
        rewritten = json.dumps(manifest, sort_keys=True).encode("utf-8")
        dialled = []
        with pytest.raises(ConfigurationError,
                           match="sealed under the retired blake2 keystream"):
            resume_owner(
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
        owner.rotate_master_key(b"new-key")
        owner.touch()
        left = owner.engine.rotation_requests_remaining
        resumed = resume_owner(suspend(owner),
                               _reconnect_factory(session),
                               master_key=b"new-key", seed=6)
        assert resumed.cop.rotation_in_progress
        assert resumed.engine.rotation_requests_remaining == left
        for _ in range(left):
            resumed.touch()
        assert not resumed.cop.rotation_in_progress
        assert resumed.engine.rotation_requests_remaining is None
        for i in range(40):
            assert resumed.query(i) == RECORDS[i]


def _with_manifest(sealed: bytes, manifest: bytes) -> bytes:
    """``sealed`` with its manifest replaced by ``manifest``."""
    length = int.from_bytes(sealed[:4], "big")
    return len(manifest).to_bytes(4, "big") + manifest + sealed[4 + length :]


def _rewritten(sealed: bytes, edit) -> bytes:
    length = int.from_bytes(sealed[:4], "big")
    manifest = json.loads(sealed[4 : 4 + length])
    edit(manifest)
    return _with_manifest(sealed, json.dumps(manifest).encode("utf-8"))


MALFORMED_BLOBS = {
    "not_json": (lambda s: _with_manifest(s, b"{not json"), ConfigurationError),
    "a_list": (lambda s: _with_manifest(s, b"[1, 2]"), ConfigurationError),
    "no_block_size": (
        lambda s: _rewritten(s, lambda m: m.pop("block_size")),
        ConfigurationError,
    ),
    "string_block_size": (
        lambda s: _rewritten(s, lambda m: m.update(block_size="5")),
        ConfigurationError,
    ),
    "cut_inside_the_manifest": (
        lambda s: s[: 4 + int.from_bytes(s[:4], "big") // 2], ProtocolError,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOBS))
def test_a_malformed_owner_manifest_is_refused_typed(case):
    """The blob comes back from host storage: a malformed manifest is a
    ConfigurationError naming the blob, a blob shorter than its length
    prefix a ProtocolError, and no channel is dialled either way."""
    damage, error = MALFORMED_BLOBS[case]
    session = _session(seed=77)
    dialled = []
    with pytest.raises(error, match="sealed owner state"):
        resume_owner(damage(suspend(session.owner)),
                     lambda *args: dialled.append(args), seed=9)
    assert dialled == []


class TestOwnerIsADatabase:
    def test_the_database_surface_through_session_owner(self):
        """The owner is a PirDatabase: a window, key rotation, recovery
        and close are its own calls, not reached through its parts."""
        session = _session(seed=76)
        owner = session.owner
        trips = session.channel.counters.get("round_trips")
        ops = [BatchOp("query", page_id=page_id) for page_id in (1, 2, 3)]
        assert owner.run_batch(ops) == RECORDS[1:4]
        assert session.channel.counters.get("round_trips") == trips + 3

        owner.rotate_master_key(b"rotated-key")
        owner.touch()
        left = owner.engine.rotation_requests_remaining
        resumed = resume_owner(suspend(owner),
                               _reconnect_factory(session),
                               master_key=b"rotated-key", seed=8)
        assert resumed.engine.rotation_requests_remaining == left
        assert resumed.recover().action == "clean"
        assert resumed.query(2) == RECORDS[2]
        for database in (resumed, owner):
            database.close()
            database.close()
