"""Snapshot and restore a running private database.

A production deployment must survive restarts: the encrypted pages live on
the untrusted disk anyway, but the trusted state — position map, cached
plaintext pages, round-robin pointer, online reshuffle epoch, replication
stream marks — exists only inside the tamper boundary.  The coprocessor therefore exports it as a
single *sealed blob* (encrypted and authenticated under a key derived from
the master key), the same way real secure hardware seals state to host
storage.

Snapshot layout on the host filesystem::

    <directory>/
      manifest.json      # public parameters (nothing secret: n, k, m, B, ...)
      frames.bin         # the untrusted page array, verbatim
      sealed.bin         # encrypted trusted state, one versioned layout
                         #   (TrustedState.encode): version, (n, m, k),
                         #   block pointer, request count, rotation
                         #   countdown, last epoch begun with its frontier,
                         #   active bit and resume count, legacy key, epoch
                         #   key, stream marks (origin -> last sequence),
                         #   position and flag columns, cache slots

``sealed.bin`` holds everything a member needs to resume, and it is the
only trusted file a snapshot writes: mid-epoch, a restored instance
continues the epoch through ``PirDatabase.resume_reshuffle()``, and a
replicating member's stream marks say where each replication stream
resumes (the applied mark of every peer's stream, the emitted mark of its
own).

Restoring requires the same master key; a wrong key fails authentication
rather than yielding garbage.  The restored instance draws fresh randomness
(relocation randomness is memoryless, so privacy is unaffected by not
persisting the RNG position).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import BinaryIO, Tuple

import numpy as np

from .database import PirDatabase, _wire
from .params import SystemParameters
from ..crypto.suite import BACKENDS, CipherSuite
from ..errors import ConfigurationError, StorageError

__all__ = [
    "save_snapshot",
    "load_snapshot",
    "bootstrap_replica",
]

_FORMAT = 5
_MANIFEST = "manifest.json"
_FRAMES = "frames.bin"
_SEALED = "sealed.bin"
# Keystream of the outer sealing layer of sealed.bin, whatever the page
# suite uses.
_SEALING_BACKEND = "shake"
# Frames per read / write of frames.bin: what a snapshot or a restore
# holds beside the store itself.
_CHUNK_FRAMES = 4096


def encode_manifest(db) -> dict:
    """The public parameters a restore needs (nothing secret: n, k, m, B,
    c and the cipher backend), for ``manifest.json`` and for the head of
    :func:`~repro.twoparty.owner.seal_owner_state`'s blob."""
    return {
        **dataclasses.asdict(db.params),
        "cipher_backend": db.cop.suite.backend,
    }


def decode_manifest(
    stream: BinaryIO, source: str, header: Tuple[str, ...] = (),
) -> Tuple[SystemParameters, str, Tuple[int, ...]]:
    """``(params, cipher_backend, header values)`` out of the JSON text of
    an :func:`encode_manifest` dict read from ``stream``; ``header`` names
    the further integer entries the caller reads (a snapshot's ``format``
    and ``frame_size``).

    The manifest comes from host storage, so it is outside input: text
    that is not a JSON object, a missing entry or an entry of the wrong
    type raises :class:`~repro.errors.ConfigurationError` naming
    ``source``.  Sealed state whose manifest names a backend not in
    BACKENDS is refused too — checked against BACKENDS itself (never
    through CipherSuite's rename map) and before any suite exists: frame
    MAC keys did not change when the blake2 keystream was retired, so its
    frames would pass authentication and decrypt to noise.
    """
    try:
        manifest = json.load(stream)
    except ValueError as exc:  # also UnicodeDecodeError
        raise ConfigurationError(f"{source} has a manifest that is not JSON") \
            from exc
    if not isinstance(manifest, dict):
        raise ConfigurationError(f"{source} has a manifest that is not a "
                                 "JSON object")
    kinds = {name: (int,) for name in header}
    kinds.update(
        (field.name, (int, float) if field.type == "float" else (int,))
        for field in dataclasses.fields(SystemParameters)
    )
    kinds["cipher_backend"] = (str,)
    for name, kind in kinds.items():
        value = manifest.get(name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigurationError(
                f"{source} has a malformed manifest: {name!r} is "
                f"{'missing' if value is None else repr(value)}"
            )
    backend = manifest["cipher_backend"]
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"{source} names cipher backend {backend!r}; this version "
            f"provides {BACKENDS}.  State sealed under the retired blake2 "
            "keystream cannot be read: open it with the version that wrote "
            "it and re-create the database here"
        )
    try:
        params = SystemParameters(**{
            field.name: manifest[field.name]
            for field in dataclasses.fields(SystemParameters)
        })
    except ZeroDivisionError as exc:  # a block size of 0
        raise ConfigurationError(
            f"{source} has a malformed manifest: 'block_size' is 0"
        ) from exc
    return params, backend, tuple(manifest[name] for name in header)


def settle_write_back(db) -> None:
    """Make the trusted state describe the store before it is sealed.

    Call under ``db.engine.op_lock``.  Rolls forward a *retained*
    write-back (a transiently failed apply — a request's or a reshuffle
    batch's), which leaves frames on the store that the page map does not
    describe yet, and refuses while the journal slot holds a record of
    either kind the heal could not resolve (a crash restart): state sealed
    mid-recovery would be *older* than the journal, and restoring it next
    to that journal is exactly the state ``recover()`` must reject.
    """
    db.engine._heal_pending()
    if db.engine.journal_pending:
        raise ConfigurationError(
            "cannot snapshot with a pending intent-journal record; "
            "call recover() first"
        )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def save_snapshot(db: PirDatabase, directory: str) -> None:
    """Persist the database (untrusted frames + sealed trusted state).

    A snapshot may be taken *during* a key rotation (the sealed state
    carries the legacy key and the rotation countdown) and during an
    online reshuffle epoch (the sealed state carries the epoch's number,
    frontier and secret key; reattach with ``resume_reshuffle()``).  The
    last epoch number is sealed either way, so the restored instance's
    next ``begin_reshuffle()`` continues the numbering.  A *retained*
    write-back (a transiently failed apply — a request's or a reshuffle
    batch's) is healed under the op lock before anything is dumped, so the
    frames and the sealed page map always agree.  It still refuses while
    the journal slot holds a record of either kind the heal could not
    resolve (a crash restart): a snapshot taken mid-recovery would be
    *older* than the journal, and restoring it next to that journal is
    exactly the state ``recover()`` must reject.  Run ``db.recover()``
    first.

    The frames are dumped 4096 at a time through the store's uncharged
    ``peek_range``; a location never written refuses the dump.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format": _FORMAT, "frame_size": db.cop.frame_size,
        **encode_manifest(db),
    }
    with open(os.path.join(directory, _MANIFEST), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)

    # Hold the op lock across the journal checks, the frame dump and the
    # trusted-state encode: a request or reshuffle batch from another
    # caller landing between any two of them would leave the frames
    # describing a newer layout than the sealed page map.
    with db.engine.op_lock:
        settle_write_back(db)
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
        inner = db.cop.suite.encrypt_page(
            db.cop.state.encode(db.cop.cache, db.cop.legacy_master_key)
        )
        sealed = sealing.encrypt_page(inner)
        with open(os.path.join(directory, _SEALED), "wb") as f:
            f.write(sealed)


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
    with open(manifest_path, "rb") as f:
        params, backend, (version, frame_size) = decode_manifest(
            f, f"snapshot in {directory!r}", ("format", "frame_size")
        )
    if version in range(1, _FORMAT):
        raise ConfigurationError(
            f"snapshot in {directory!r} is format {version}; this version "
            f"reads format {_FORMAT} only.  Re-create the database, or open "
            "the snapshot with the version that wrote it"
        )
    if version != _FORMAT:
        raise ConfigurationError("unsupported snapshot format")
    cop, disk, engine = _wire(params, cipher_backend=backend, **wiring)
    if cop.frame_size != frame_size:
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
    cop.state.decode(cop.suite.decrypt_page(inner), cop.cache, cop)
    engine.tracer.reset()
    return PirDatabase(params, cop, disk, engine)


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
    replica adopts the epoch at its sealed frontier (a driver is attached
    via ``replica.resume_reshuffle()``; step it as
    ``replica.reshuffle.step()``) — joining mid-epoch costs a snapshot
    restore, never a cold shuffle.  The replica also inherits the
    primary's stream marks, its own emitted mark included, so its
    replication handshake resumes after everything the snapshot holds —
    also past a :meth:`~repro.cluster.replication.ReplicationLog.compact`.
    """
    save_snapshot(db, directory)
    replica = load_snapshot(directory, **load_kw)
    replica.resume_reshuffle()
    return replica
