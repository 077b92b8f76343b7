"""Snapshot and restore a running private database.

A production deployment must survive restarts: the encrypted pages live on
the untrusted disk anyway, but the trusted state — position map, cached
plaintext pages, round-robin pointer — exists only inside the tamper
boundary.  The coprocessor therefore exports it as a single *sealed blob*
(encrypted and authenticated under a key derived from the master key), the
same way real secure hardware seals state to host storage.

Snapshot layout on the host filesystem::

    <directory>/
      manifest.json      # public parameters (nothing secret: n, k, m, B, ...)
      frames.bin         # the untrusted page array, verbatim
      sealed.bin         # encrypted trusted state (pageMap, cache, pointer,
                         #   and — format 2 — any in-flight key rotation
                         #   and the last reshuffle epoch number)
      reshuffle.sealed   # present iff an online reshuffle epoch was active:
                         #   its frontier + secret epoch key (resume_reshuffle)
      <name>.sealed      # auxiliary sidecars (e.g. replication checkpoints)

Restoring requires the same master key; a wrong key fails authentication
rather than yielding garbage.  The restored instance draws fresh randomness
(relocation randomness is memoryless, so privacy is unaffected by not
persisting the RNG position).
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from typing import Optional, Tuple

import numpy as np

from .database import PirDatabase, _wire
from .journal import RecordCursor
from .params import SystemParameters
from ..crypto.suite import BACKENDS, CipherSuite
from ..errors import ConfigurationError, StorageError
from ..storage.page import Page

__all__ = [
    "save_snapshot",
    "load_snapshot",
    "bootstrap_replica",
    "resume_reshuffle",
    "save_sealed_sidecar",
    "load_sealed_sidecar",
]

_MANIFEST = "manifest.json"
_FRAMES = "frames.bin"
_SEALED = "sealed.bin"
# Keystream of the outer sealing layer of sealed.bin, whatever the page
# suite uses.
_SEALING_BACKEND = "shake"
_RESHUFFLE_SIDECAR = "reshuffle"
# Frames per read / write of frames.bin: what a snapshot or a restore
# holds beside the store itself.
_CHUNK_FRAMES = 4096
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
# One page-map entry of the trusted state: flag bits, then the position.
_PAGE_MAP_ENTRY = np.dtype([("flags", "u1"), ("position", ">u8")])
_IN_CACHE, _DELETED = 1, 2


# ---------------------------------------------------------------------------
# Trusted-state codec (runs inside the boundary; output is then sealed)
# ---------------------------------------------------------------------------


def _encode_trusted_state(db: PirDatabase) -> bytes:
    pm = db.cop.page_map
    parts = [_U64.pack(db.engine.next_block_index),
             _U64.pack(db.engine.request_count)]
    # Page map: per id -> (flags, position), one packed record array.
    in_cache, position, deleted = pm.columns()
    entries = np.empty(pm.num_pages, _PAGE_MAP_ENTRY)
    entries["flags"] = in_cache * _IN_CACHE | deleted * _DELETED
    entries["position"] = position
    parts.append(_U64.pack(pm.num_pages))
    parts.append(entries.tobytes())
    # Cache: slot order matters (positions in the map point at slots).
    parts.append(_U64.pack(db.cop.cache.capacity))
    for slot in range(db.cop.cache.capacity):
        page = db.cop.cache.get(slot)
        flags = _DELETED if page.deleted else 0
        parts.append(_U64.pack(page.page_id))
        parts.append(bytes([flags]))
        parts.append(_U32.pack(len(page.payload)))
        parts.append(page.payload)
    # Format-2 tail: key-rotation state, so a snapshot taken mid-rotation
    # (e.g. during a reshuffle epoch that piggybacks one) restores with the
    # legacy key still live.  rotation_left is the engine's request
    # countdown (-1 = no countdown: either no rotation, or one driven by a
    # reshuffle epoch whose sweep finishes it instead).
    legacy = db.cop.legacy_master_key
    rotation_left = db.engine.rotation_requests_remaining
    if legacy is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(_U32.pack(len(legacy)))
        parts.append(legacy)
    parts.append(_I64.pack(-1 if rotation_left is None else rotation_left))
    # Last reshuffle epoch begun, active or not (an oblivious build has
    # finished epoch 1): a restored instance continues the database-global
    # numbering, so it never respawns an earlier epoch's nonce label or key.
    parts.append(_U64.pack(getattr(db, "_reshuffle_epoch_base", 0)))
    return b"".join(parts)


def _decode_trusted_state(blob: bytes, db: PirDatabase) -> None:
    cursor = RecordCursor(blob)
    db.engine._next_block = cursor.take(_U64) % db.params.num_blocks
    db.engine._request_count = cursor.take(_U64)

    num_pages = cursor.take(_U64)
    if num_pages != db.params.total_pages:
        raise StorageError("snapshot page count does not match parameters")
    entries = np.frombuffer(
        cursor.take_bytes(num_pages * _PAGE_MAP_ENTRY.itemsize),
        _PAGE_MAP_ENTRY,
    )
    flags = entries["flags"]
    db.cop.page_map.load_columns(
        flags & _IN_CACHE, entries["position"], flags & _DELETED
    )

    capacity = cursor.take(_U64)
    if capacity != db.cop.cache.capacity:
        raise StorageError("snapshot cache capacity does not match parameters")
    pages = []
    for _slot in range(capacity):
        page_id = cursor.take(_U64)
        flags = cursor.take_byte()
        payload = cursor.take_bytes(cursor.take(_U32))
        pages.append(Page(page_id, payload, deleted=bool(flags & _DELETED)))
    db.cop.cache.fill(pages)
    if cursor.offset == len(blob):
        return  # format 1: no rotation tail
    if cursor.take_byte():
        db.cop.adopt_legacy_key(cursor.take_bytes(cursor.take(_U32)))
    rotation_left = cursor.take(_I64)
    if rotation_left >= 0:
        db.engine._rotation_requests_left = rotation_left
    if cursor.offset < len(blob):  # absent before epoch numbering was saved
        db._reshuffle_epoch_base = cursor.take(_U64)
    cursor.expect_end("trusted-state blob")


def encode_manifest(db) -> dict:
    """The public parameters a restore needs (nothing secret: n, k, m, B,
    c and the cipher backend), for ``manifest.json`` and for the head of
    ``DataOwner.seal_state``."""
    return {
        **dataclasses.asdict(db.params),
        "cipher_backend": db.cop.suite.backend,
    }


def decode_manifest(manifest: dict,
                    source: str) -> Tuple[SystemParameters, str]:
    """``(params, cipher_backend)`` out of :func:`encode_manifest`'s dict.

    Sealed state whose manifest names a backend not in BACKENDS is refused
    here — checked against BACKENDS itself (never through CipherSuite's
    rename map) and before any suite exists: frame MAC keys did not change
    when the blake2 keystream was retired, so its frames would pass
    authentication and decrypt to noise.
    """
    backend = manifest["cipher_backend"]
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"{source} names cipher backend {backend!r}; this version "
            f"provides {BACKENDS}.  State sealed under the retired blake2 "
            "keystream cannot be read: open it with the version that wrote "
            "it and re-create the database here"
        )
    params = SystemParameters(**{
        field.name: manifest[field.name]
        for field in dataclasses.fields(SystemParameters)
    })
    return params, backend


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def save_snapshot(db: PirDatabase, directory: str) -> None:
    """Persist the database (untrusted frames + sealed trusted state).

    A snapshot may be taken *during* a key rotation (the format-2 sealed
    state carries the legacy key and the rotation countdown) and during an
    online reshuffle epoch (the epoch's frontier and secret key are sealed
    into a ``reshuffle`` sidecar; reattach with :func:`resume_reshuffle`).
    The last epoch number is sealed either way, so the restored instance's
    next ``begin_reshuffle()`` continues the numbering.  A *retained* write-back (a transiently failed apply — the engine's or
    a background worker's) is healed under the op lock before anything is
    dumped, so the frames and the sealed page map always agree.  It still
    refuses while either intent journal — the engine's or the
    reshuffler's — holds a record the heal could not resolve (a crash
    restart): a snapshot taken mid-recovery would be *older* than the
    journal, and restoring it next to that journal is exactly the state
    ``recover()`` must reject.  Run ``db.recover()`` /
    ``db.reshuffle.recover()`` first.

    The frames are dumped 4096 at a time through the store's uncharged
    ``peek_range``; a location never written refuses the dump.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format": 2, "frame_size": db.cop.frame_size, **encode_manifest(db),
    }
    with open(os.path.join(directory, _MANIFEST), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)

    # Hold the op lock across the journal checks, the frame dump and the
    # trusted-state encode: a background reshuffle batch landing between
    # any two of them would leave the frames describing a newer
    # permutation than the sealed page map.
    with db.engine.op_lock:
        # Roll forward any retained in-memory write-back first (the
        # engine's, plus every registered background healer — the online
        # reshuffler's among them): a transiently failed apply leaves
        # frames on disk that the page map does not describe yet, and a
        # journal-less configuration has no pending-record check to catch
        # it.
        db.engine._heal_pending()
        if db.engine.journal_pending:
            raise ConfigurationError(
                "cannot snapshot with a pending intent-journal record; "
                "call recover() first"
            )
        if db.reshuffle is not None and db.reshuffle.journal_pending:
            raise ConfigurationError(
                "cannot snapshot with a pending reshuffle-journal record; "
                "call reshuffle.recover() first"
            )
        num_locations = db.disk.num_locations
        with open(os.path.join(directory, _FRAMES), "wb") as f:
            for start in range(0, num_locations, _CHUNK_FRAMES):
                f.write(db.disk.peek_range(
                    start, min(_CHUNK_FRAMES, num_locations - start)
                ))

        sealing = CipherSuite(
            b"snapshot-sealing:" + db.cop.suite.backend.encode(),
            backend=_SEALING_BACKEND,
            rng=db.cop.rng,
        )
        # Seal under a key derived from the *database's* master key so only
        # the rightful owner can restore: reuse the page suite for the
        # inner layer.
        inner = db.cop.suite.encrypt_page(_encode_trusted_state(db))
        sealed = sealing.encrypt_page(inner)
        with open(os.path.join(directory, _SEALED), "wb") as f:
            f.write(sealed)

        reshuffle_path = os.path.join(
            directory, _RESHUFFLE_SIDECAR + ".sealed"
        )
        if db.reshuffle is not None and db.reshuffle.active:
            # Mid-epoch: seal the frontier + epoch key so a restored
            # instance (or a bootstrapping warm replica) resumes the pass
            # instead of starting a cold shuffle.
            save_sealed_sidecar(
                db, directory, _RESHUFFLE_SIDECAR, db.reshuffle.state_blob()
            )
        elif os.path.exists(reshuffle_path):
            os.remove(reshuffle_path)  # stale sidecar from an older save


def load_snapshot(directory: str, **wiring) -> PirDatabase:
    """Reconstruct a database saved by :func:`save_snapshot`.

    ``wiring`` is every keyword of the one builder
    (:func:`repro.core.database._wire`) except ``cipher_backend``, which
    the manifest fixes — the same keywords, with the same meaning, as
    :meth:`PirDatabase.create`.  The ``master_key`` must match the one the
    database was created with — the *new* key if the snapshot was taken
    mid-rotation (the sealed state re-adopts the legacy key
    automatically); an incorrect key raises
    :class:`~repro.errors.AuthenticationError`.  None of the wiring is
    part of a snapshot: ``journal``/``read_retry`` re-arm crash
    consistency and read retries on the restored instance (a clean
    snapshot implies an empty journal slot), ``disk_factory`` chooses the
    store the frames are replayed onto, and a ``tracer`` is reset after
    the replay so its phases cover requests only.

    ``frames.bin`` is replayed one 4096-frame chunk at a time through one
    reused buffer, as ``write_range`` calls in location order (which is
    what seeds the freshness tree, the hot tier or a file store), so a
    restore holds the new store plus one chunk, never a second copy of the
    whole file.  A file whose length is not the manifest's is refused
    before anything is written.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise ConfigurationError(f"no snapshot manifest in {directory!r}")
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("format") not in (1, 2):
        raise ConfigurationError("unsupported snapshot format")
    params, backend = decode_manifest(manifest, f"snapshot in {directory!r}")
    cop, disk, engine = _wire(params, cipher_backend=backend, **wiring)
    if cop.frame_size != manifest["frame_size"]:
        raise ConfigurationError("snapshot frame size does not match suite")

    # The freshness layer (when enabled) is already in place, so the
    # replayed writes seed its fresh Merkle tree.
    _replay_frames(os.path.join(directory, _FRAMES), disk)

    with open(os.path.join(directory, _SEALED), "rb") as f:
        sealed = f.read()
    sealing = CipherSuite(
        b"snapshot-sealing:" + backend.encode(),
        backend=_SEALING_BACKEND,
        rng=cop.rng,
    )
    inner = sealing.decrypt_page(sealed)
    trusted = cop.suite.decrypt_page(inner)

    db = PirDatabase(params, cop, disk, engine)
    _decode_trusted_state(trusted, db)
    engine.tracer.reset()
    return db


def _replay_frames(path: str, disk) -> None:
    """Write ``frames.bin`` onto ``disk`` one chunk at a time, through one
    reused chunk buffer: ``write_range`` calls of up to
    :data:`_CHUNK_FRAMES` frames, in location order."""
    num_locations, frame_size = disk.num_locations, disk.frame_size
    expected_bytes = num_locations * frame_size
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != expected_bytes:
            raise StorageError(
                f"frames file is {size} bytes, expected {expected_bytes}"
            )
        chunk = np.empty(
            (min(_CHUNK_FRAMES, num_locations), frame_size), np.uint8
        )
        for start in range(0, num_locations, _CHUNK_FRAMES):
            frames = chunk[: min(_CHUNK_FRAMES, num_locations - start)]
            if f.readinto(frames) != frames.nbytes:
                raise StorageError("frames file shrank while it was read")
            disk.write_range(start, frames)


def resume_reshuffle(
    db: PirDatabase,
    directory: str,
    batch_size: int = 16,
    journal=None,
    idle_interval: float = 0.001,
    background: bool = False,
):
    """Reattach a mid-epoch reshuffle driver from a snapshot's sidecar.

    Returns the driver (also installed as ``db.reshuffle``) positioned at
    the saved frontier, or None when the snapshot carried no active epoch.
    With ``background=True`` the worker starts immediately, so the epoch
    continues mixing in idle slots the moment the replica begins serving —
    this is the warm-replica bootstrap: the joiner inherits the primary's
    partial pass instead of paying a cold O(n log² n) shuffle.  Call
    ``driver.recover()`` afterwards when a reshuffle journal might hold a
    torn batch (crash restarts).
    """
    blob = load_sealed_sidecar(db, directory, _RESHUFFLE_SIDECAR)
    if blob is None:
        return None
    from ..shuffle.online import OnlineReshuffler

    if db.reshuffle is not None:
        db.reshuffle.close()
    driver = OnlineReshuffler(
        db, batch_size=batch_size, journal=journal,
        idle_interval=idle_interval, metrics=db.metrics, tracer=db.tracer,
    )
    driver.restore_state(blob)
    db.reshuffle = driver
    if background and driver.active:
        driver.start()
    return driver


def save_sealed_sidecar(db: PirDatabase, directory: str, name: str,
                        data: bytes) -> None:
    """Seal an auxiliary trusted blob next to a snapshot.

    The replication tier checkpoints its applied-sequence vector this way
    (``<name>.sealed`` beside ``sealed.bin``), so a backend rebuilt from
    the snapshot knows where each peer's backlog replay must resume — the
    "``load_snapshot`` + journal roll-forward + replication backlog"
    catch-up sequence.  Sealed under the coprocessor's master-key suite:
    the host stores it but cannot read or undetectably alter it.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name + ".sealed"), "wb") as handle:
        handle.write(db.cop.seal_blob(bytes(data)))


def load_sealed_sidecar(db: PirDatabase, directory: str,
                        name: str) -> Optional[bytes]:
    """Unseal a sidecar written by :func:`save_sealed_sidecar`.

    Returns None when the sidecar does not exist (e.g. a snapshot from
    before replication was enabled); raises
    :class:`~repro.errors.AuthenticationError` on tampering or a wrong
    master key.
    """
    path = os.path.join(directory, name + ".sealed")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return db.cop.unseal_blob(handle.read())


def bootstrap_replica(
    db: PirDatabase, directory: str, **load_kw,
) -> PirDatabase:
    """Clone ``db`` into an independent read replica via a snapshot.

    The cluster failover path (DESIGN.md §13): snapshot the primary into
    ``directory``, restore a fresh instance from it, and serve clients
    from the copy when the primary dies.  From the moment of the split
    each instance is its own serving lineage — relocation randomness is
    memoryless, so the replica answering a session's queries is
    indistinguishable (to the host and to the client) from the primary
    having answered them, and no RNG state needs to transfer.

    ``load_kw`` forwards to :func:`load_snapshot` (``seed``, ``journal``,
    ``read_retry``, ...).  The snapshot directory stays on disk — a later
    member can re-bootstrap from it, though a *fresher* snapshot should
    be preferred once the replica has served mutations.

    When the primary is mid-way through an online reshuffle epoch, the
    replica adopts the epoch at its saved frontier (a foreground driver is
    attached via :func:`resume_reshuffle`; ``start()`` or re-attach with
    ``background=True`` to continue it on a worker) — joining mid-epoch
    costs a snapshot restore, never a cold shuffle.
    """
    save_snapshot(db, directory)
    replica = load_snapshot(directory, **load_kw)
    resume_reshuffle(replica, directory)
    return replica
