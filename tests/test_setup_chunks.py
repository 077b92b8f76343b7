"""Setup and bootstrap work one chunk at a time, byte for byte.

``PirDatabase.create`` builds the encrypted, permuted database and
``save_snapshot`` / ``load_snapshot`` move it through ``frames.bin`` in
fixed-size chunks.  The digests below pin what they leave behind — the
frames, the page map, the free set, the RNG position, the setup trace and
the virtual clock, the snapshot files and the sealed owner state — and
were taken from the per-page implementation these chunked paths replaced.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from repro import PirDatabase
from repro.baselines import make_records
from repro.core.sharded import ShardedPirDatabase
from repro.core.snapshot import load_snapshot, save_snapshot
from repro.crypto.suite import CipherSuite
from repro.hardware.specs import IBM_4764
from repro.twoparty import TwoPartySession

from tests.helpers import make_db


def _sha(parts) -> str:
    """The first 64 bits of the SHA-256 of ``parts`` back to back."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()[:16]


def setup_digests(db) -> dict:
    """What ``create`` leaves behind, read through the store contract."""
    pm = db.cop.page_map
    columns = [pm.lookup(page_id) for page_id in range(pm.num_pages)]
    return {
        "arena": _sha(db.disk.peek(location)
                      for location in range(db.disk.num_locations)),
        "page_map": _sha([repr([(entry.in_cache, entry.position, entry.deleted)
                                for entry in columns]).encode()]),
        "free": _sha([repr(sorted(pm.free_ids())).encode()]),
        "trace": _sha(repr((e.op, e.location, e.count, e.request_index,
                            e.timestamp)).encode() for e in db.trace),
        "clock": repr(db.clock.now),
        "rng": _sha([db.cop.rng.token(64)]),
    }


SETUPS = {
    # The golden-vector databases (tests/test_batch_fused.py).
    "journaled": lambda: make_db(num_records=40, cache_capacity=6,
                                 reserve_fraction=0.25, seed=4242),
    "rotation": lambda: make_db(num_records=120, cache_capacity=4,
                                reserve_fraction=0.25, block_size=6,
                                seed=77),
    # Several 256-page seal chunks and two 4096-location writes, charged.
    "chunked": lambda: make_db(num_records=5000, cache_capacity=16,
                               reserve_fraction=0.1, seed=4242,
                               spec=IBM_4764),
    "oblivious": lambda: make_db(num_records=40, cache_capacity=6,
                                 reserve_fraction=0.25, seed=4242,
                                 setup_mode="oblivious", spec=IBM_4764),
}


def sharded_digests() -> list:
    """Every shard of the sharded golden-vector database
    (tests/test_core_sharded.py), as built."""
    with ShardedPirDatabase.create(
        make_records(40, 16), 4, cache_capacity_per_shard=4, target_c=2.0,
        page_capacity=16, reserve_fraction=0.25, spec=IBM_4764, seed=4242,
    ) as db:
        return [setup_digests(shard) for shard in db.shards]


def warm_db():
    """The database tests/test_core_snapshot.py snapshots."""
    db = make_db(num_records=40, reserve_fraction=0.2, seed=404)
    for i in range(30):
        db.query(i % 40)
    db.update(5, b"edited-snap")
    db.insert(b"inserted-snap")
    db.delete(9)
    return db


def chunked_warm_db():
    """Two 4096-frame chunks of ``frames.bin``, after a few operations."""
    db = SETUPS["chunked"]()
    for i in range(20):
        db.query(i * 97)
    db.update(3, b"chunked-edit")
    db.delete(4)
    return db


WARM = {"warm": warm_db, "chunked": chunked_warm_db}


def trusted_state(db, directory) -> bytes:
    """The trusted-state blob of a snapshot, opened from ``sealed.bin``."""
    sealing = CipherSuite(
        b"snapshot-sealing:" + db.cop.suite.backend.encode(), backend="shake",
    )
    with open(directory / "sealed.bin", "rb") as handle:
        return db.cop.suite.decrypt_page(sealing.decrypt_page(handle.read()))


def snapshot_digests(db, directory) -> dict:
    save_snapshot(db, str(directory))
    return {
        "frames": _sha([(directory / "frames.bin").read_bytes()]),
        "trusted": _sha([trusted_state(db, directory)]),
    }


def owner_state_digest() -> str:
    """``DataOwner.seal_state`` after a few operations
    (tests/test_twoparty_resume.py's session)."""
    session = TwoPartySession.create(
        make_records(40, 16), cache_capacity=6, block_size=5,
        page_capacity=16, reserve_fraction=0.2, seed=70,
    )
    session.update(4, b"before-seal")
    session.delete(9)
    for i in range(25):
        if i != 9:
            session.query(i)
    return _sha([session.owner.seal_state()])


# Captured from the per-page implementation (see the module docstring).
EXPECTED_SETUP = {
    "chunked": dict(arena="d4e7d26d80b090c6", page_map="41850dcbadd5e9fd",
                    free="7551eead510a8e1e", trace="a33289c6cc3b6645",
                    clock="0.013135", rng="28cc9ff6b0ebbb1f"),
    "journaled": dict(arena="7cf5a7a03bdf769c", page_map="6de9222c0a5ce2d7",
                      free="211e392abb195c96", trace="3af51b2a6f4e81e9",
                      clock="0.0", rng="37c7006b14805203"),
    "oblivious": dict(arena="478a1a66fd3efe3b", page_map="0ba7718f7f92d5d9",
                      free="211e392abb195c96", trace="a90ec37d6327a202",
                      clock="8.78603055999997", rng="37c7006b14805203"),
    "rotation": dict(arena="7cfd6a0061d72fd7", page_map="894bd86866eb9479",
                     free="793e5df7ddf1c032", trace="0804b1dca856812d",
                     clock="0.0", rng="cd36502476051ab8"),
}
EXPECTED_SHARDS = [
    dict(arena="b12e59340389bf4f", page_map="6ec3755a70dc49b7",
         free="c5523aa1d3a76e73", trace="0f6765923d1f4e07",
         clock="0.0050085500000000005", rng="6dce3af48ecc1c2d"),
    dict(arena="5ff593d911d58cd6", page_map="078b8991598f4388",
         free="c5523aa1d3a76e73", trace="0f6765923d1f4e07",
         clock="0.0050085500000000005", rng="38765e4ce2421148"),
    dict(arena="543e77b5da33d0fc", page_map="13bec5dc59e1c637",
         free="c5523aa1d3a76e73", trace="0f6765923d1f4e07",
         clock="0.0050085500000000005", rng="f70813b303d50361"),
    dict(arena="62f535942ea8dbea", page_map="4043ef30c8da4f85",
         free="c5523aa1d3a76e73", trace="0f6765923d1f4e07",
         clock="0.0050085500000000005", rng="e8c0990ee3def82c"),
]
EXPECTED_SNAPSHOT = {
    "chunked": dict(frames="bf46d24afab239cf",
                    trusted="f1bf167d17bfb3f2"),
    "warm": dict(frames="09b55c87a3d9fe42",
                 trusted="370e8c6cf846886f"),
}
EXPECTED_OWNER_STATE = "3b0ec1843172e5a2"


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_create_is_byte_identical(name):
    assert setup_digests(SETUPS[name]()) == EXPECTED_SETUP[name]


def test_sharded_create_is_byte_identical():
    assert sharded_digests() == EXPECTED_SHARDS


@pytest.mark.parametrize("name", sorted(WARM))
def test_snapshot_files_are_byte_identical(name, tmp_path):
    assert snapshot_digests(WARM[name](), tmp_path) == EXPECTED_SNAPSHOT[name]


def test_sealed_owner_state_is_byte_identical():
    assert owner_state_digest() == EXPECTED_OWNER_STATE


def test_restore_holds_one_arena_and_a_chunk(tmp_path):
    """``load_snapshot`` reads ``frames.bin`` through one reused
    4096-frame buffer: its allocation peak stays below the restored
    store's arena + two chunks + 1 MB, where reading the whole file first
    holds two arenas.  (2^14 pages, so that a chunk is a quarter of the
    arena; at 2^12 pages one chunk would be the whole arena.)"""
    source = PirDatabase.create(
        make_records(2**14, 16), cache_capacity=64, page_capacity=256,
        seed=3,
    )
    save_snapshot(source, str(tmp_path))
    frame_size = source.cop.frame_size
    arena = source.params.num_locations * frame_size
    del source
    tracemalloc.start()
    try:
        restored = load_snapshot(str(tmp_path), seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert restored.params.num_locations * frame_size == arena
    assert peak < arena + 2 * 4096 * frame_size + 2**20, peak
