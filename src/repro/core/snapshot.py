"""Snapshot and restore a running private database.

A production deployment must survive restarts: the encrypted pages live on
the untrusted disk anyway, but the trusted state — position map, cached
plaintext pages, round-robin pointer, online reshuffle epoch, replication
stream marks — exists only inside the tamper boundary.  The coprocessor
therefore exports it as a single *sealed blob*, the same way real secure
hardware seals state to host storage.  There is one such blob, written by
:func:`suspend` and read by :func:`resume`: a snapshot's ``sealed.bin`` is
it, and so is a suspended two-party owner's state
(:mod:`repro.twoparty.owner`)::

    u32 length (big-endian)
    public parameters as sorted-key JSON (nothing secret: n, k, m, B, c
        and the cipher backend)
    the trusted state sealed by the page suite (encrypted and
        authenticated under a key derived from the master key), one
        versioned layout (TrustedState.encode): version, (n, m, k), block
        pointer, request count, rotation countdown, last epoch begun with
        its frontier, active bit and resume count, legacy key, epoch key,
        stream marks (origin -> last sequence), position and flag
        columns, cache slots

Snapshot layout on the host filesystem::

    <directory>/
      frames.bin         # the untrusted page array, verbatim
      sealed.bin         # the suspend blob above

``sealed.bin`` holds everything a member needs to resume, and it is the
only trusted file a snapshot writes: mid-epoch, a restored instance
continues the epoch through ``PirDatabase.resume_reshuffle()``, and a
replicating member's stream marks say where each replication stream
resumes (the applied mark of every peer's stream, the emitted mark of its
own).  A change of the sealed layout is caught by its version byte.
Nothing sealed names the frames yet; a restore checks the block the next
request reads against the sealed page map, which refuses another
database's ``frames.bin`` of the same shape and key.

Restoring requires the same master key; a wrong key fails authentication
rather than yielding garbage.  The restored instance draws fresh randomness
(relocation randomness is memoryless, so privacy is unaffected by not
persisting the RNG position).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from typing import Tuple

import numpy as np

from .database import PirDatabase, _wire
from .params import SystemParameters
from ..crypto.suite import BACKENDS
from ..errors import (
    ConfigurationError,
    PageNotFoundError,
    ProtocolError,
    StorageError,
)

__all__ = [
    "save_snapshot",
    "load_snapshot",
    "bootstrap_replica",
    "suspend",
    "resume",
]

_FRAMES = "frames.bin"
_SEALED = "sealed.bin"
# The public half of the retired snapshot layout, whose sealed.bin wrapped
# the trusted state in a second layer under a constant key.
_RETIRED = "manifest.json"
# Frames per read / write of frames.bin: what a snapshot or a restore
# holds beside the store itself.
_CHUNK_FRAMES = 4096


def _decode_manifest(text: bytes, source: str) -> Tuple[SystemParameters, str]:
    """``(params, cipher_backend)`` out of the JSON head of a sealed blob.

    The blob comes from host storage, so its head is outside input: text
    that is not a JSON object, a missing entry or an entry of the wrong
    type raises :class:`~repro.errors.ConfigurationError` naming
    ``source``.  A head that names a backend not in BACKENDS is refused
    too — checked against BACKENDS itself (never through CipherSuite's
    rename map) and before any suite exists: frame MAC keys did not change
    when the blake2 keystream was retired, so its frames would pass
    authentication and decrypt to noise.
    """
    try:
        manifest = json.loads(text)
    except ValueError as exc:  # also UnicodeDecodeError
        raise ConfigurationError(f"{source} has a manifest that is not JSON") \
            from exc
    if not isinstance(manifest, dict):
        raise ConfigurationError(f"{source} has a manifest that is not a "
                                 "JSON object")
    kinds = {
        field.name: (int, float) if field.type == "float" else (int,)
        for field in dataclasses.fields(SystemParameters)
    }
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
    return params, backend


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def suspend(db: PirDatabase) -> bytes:
    """Export the database's trusted state as the one sealed blob.

    Mid-rotation too: the blob carries the legacy key and the request
    countdown, so the database resumes under the new key and the rotation
    finishes on schedule; mid-epoch, it carries the epoch.

    Under the op lock, the trusted state is first made to describe the
    store: a *retained* write-back (a transiently failed apply — a
    request's or a reshuffle batch's), which leaves frames on the store
    that the page map does not describe yet, is rolled forward, and a
    journal slot holding a record of either kind the heal could not
    resolve (a crash restart) refuses the seal: state sealed mid-recovery
    would be *older* than the journal, and restoring it next to that
    journal is exactly the state ``recover()`` must reject.  Run
    ``db.recover()`` first.
    """
    manifest = json.dumps(
        {**dataclasses.asdict(db.params),
         "cipher_backend": db.cop.suite.backend},
        sort_keys=True,
    ).encode("utf-8")
    with db.engine.op_lock:
        db.engine._heal_pending()
        if db.engine.journal_pending:
            raise ConfigurationError(
                "cannot snapshot with a pending intent-journal record; "
                "call recover() first"
            )
        sealed = db.cop.suite.encrypt_page(
            db.cop.state.encode(db.cop.cache, db.cop.legacy_master_key)
        )
    return len(manifest).to_bytes(4, "big") + manifest + sealed


def resume(blob: bytes, source: str, **wiring) -> PirDatabase:
    """Build a database over a :func:`suspend` blob's trusted state.

    ``wiring`` is every keyword of the one builder
    (:func:`repro.core.database._wire`) except ``cipher_backend``, which
    the blob fixes; its store starts empty, and the caller fills it (a
    snapshot replays ``frames.bin``, a two-party owner's provider still
    holds the frames).  The ``master_key`` must be the one the state was
    sealed under — the *new* key mid-rotation, whose sealed state
    re-adopts the legacy key — or the open raises
    :class:`~repro.errors.AuthenticationError`.  A blob shorter than its
    length prefix raises :class:`~repro.errors.ProtocolError` and a
    malformed head :class:`~repro.errors.ConfigurationError`, both naming
    ``source`` and both before anything is wired.
    """
    length = int.from_bytes(blob[:4], "big")
    if len(blob) < 4 or len(blob) < 4 + length:
        raise ProtocolError(f"{source} is truncated")
    params, backend = _decode_manifest(blob[4 : 4 + length], source)
    cop, disk, engine = _wire(params, cipher_backend=backend, **wiring)
    cop.state.decode(cop.suite.decrypt_page(blob[4 + length :]), cop.cache,
                     cop)
    return PirDatabase(params, cop, disk, engine)


def save_snapshot(db: PirDatabase, directory: str) -> None:
    """Persist the database: ``frames.bin`` and, as ``sealed.bin``, the
    :func:`suspend` blob.

    A snapshot may be taken *during* a key rotation (the sealed state
    carries the legacy key and the rotation countdown) and during an
    online reshuffle epoch (the sealed state carries the epoch's number,
    frontier and secret key; reattach with ``resume_reshuffle()``).  The
    last epoch number is sealed either way, so the restored instance's
    next ``begin_reshuffle()`` continues the numbering.  The seal runs
    first, under the op lock that the frame dump also holds: it heals a
    retained write-back, so the frames and the sealed page map always
    agree, and it refuses while the journal slot holds a record the heal
    could not resolve (run ``db.recover()`` first).

    The frames are dumped 4096 at a time through the store's uncharged
    ``peek_range``; a location never written refuses the dump.  A retired
    layout's public file left in ``directory`` is removed, so the new
    snapshot loads.
    """
    os.makedirs(directory, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(directory, _RETIRED))
    # Hold the op lock (re-entrant, so suspend takes it again) across the
    # seal, which heals a retained write-back first, and the frame dump: a
    # request or reshuffle batch from another caller landing between them
    # would leave the frames describing a newer layout than the sealed
    # page map.
    with db.engine.op_lock:
        blob = suspend(db)
        num_locations = db.disk.num_locations
        with open(os.path.join(directory, _FRAMES), "wb") as f:
            for start in range(0, num_locations, _CHUNK_FRAMES):
                f.write(db.disk.peek_range(
                    start, min(_CHUNK_FRAMES, num_locations - start)
                ))
    with open(os.path.join(directory, _SEALED), "wb") as f:
        f.write(blob)


def load_snapshot(directory: str, **wiring) -> PirDatabase:
    """Reconstruct a database saved by :func:`save_snapshot`.

    ``sealed.bin`` is opened by :func:`resume`, with ``wiring`` — the same
    keywords, with the same meaning, as :meth:`PirDatabase.create`, except
    ``cipher_backend``, which the blob fixes.  The ``master_key`` must
    match the one the database was created with — the *new* key if the
    snapshot was taken mid-rotation; an incorrect key raises
    :class:`~repro.errors.AuthenticationError`.  None of the wiring is
    part of a snapshot: ``journal``/``read_retry`` re-arm crash
    consistency and read retries on the restored instance (a clean
    snapshot implies an empty journal slot), ``disk_factory`` chooses the
    store the frames are replayed onto, and a ``tracer`` is reset after
    the replay so its phases cover requests only.  A directory in the
    retired layout (a public manifest file beside a doubly sealed state)
    is refused with a :class:`~repro.errors.ConfigurationError` before any
    suite exists.

    ``frames.bin`` is replayed one 4096-frame chunk at a time through one
    reused buffer, as ``write_range`` calls in location order (which is
    what seeds the freshness tree, the hot tier or a file store), so a
    restore holds the new store plus one chunk, never a second copy of the
    whole file.  A file whose length is not the sealed parameters' is
    refused before anything is written, and one whose next block does not
    hold the pages the sealed page map puts there is refused after the
    replay (:class:`~repro.errors.StorageError` both).  A ``sealed.bin``
    shorter than its length prefix raises
    :class:`~repro.errors.ProtocolError`, as a truncated owner blob does.
    """
    if os.path.exists(os.path.join(directory, _RETIRED)):
        raise ConfigurationError(
            f"snapshot in {directory!r} has the retired layout (a public "
            "manifest beside a doubly sealed state); this version reads "
            "only the one sealed blob.  Re-create the database, or open "
            "the snapshot with the version that wrote it"
        )
    sealed_path = os.path.join(directory, _SEALED)
    if not os.path.exists(sealed_path):
        raise ConfigurationError(f"no snapshot in {directory!r}")
    with open(sealed_path, "rb") as f:
        db = resume(f.read(), f"snapshot in {directory!r}", **wiring)
    # The freshness layer (when enabled) is already in place, so the
    # replayed writes seed its fresh Merkle tree.
    _replay_frames(os.path.join(directory, _FRAMES), db.disk)
    _check_next_block(db)
    db.engine.tracer.reset()
    return db


def _check_next_block(db: PirDatabase) -> None:
    """Refuse frames that are not where the sealed page map puts them,
    checked on the block the next request reads (k frames, uncharged).

    Nothing in ``sealed.bin`` names the frames it was saved with, so
    another database's ``frames.bin`` of the same shape and key would
    otherwise load and fail its requests one by one.  A check of one
    block catches such a swapped pair; it does not catch frames chosen to
    pass it, which only a sealed digest of the store can.
    """
    state, k = db.cop.state, db.params.block_size
    start = state.next_block * k
    stored = db.cop.unseal_frames(db.disk.peek_range(start, k)).ids
    for location, page_id in enumerate(stored, start):
        try:
            entry = state.lookup(page_id)
        except PageNotFoundError:
            entry = None
        if entry is None or entry.in_cache or entry.position != location:
            raise StorageError(
                f"frames.bin does not match sealed.bin: location {location} "
                f"holds page {page_id}, which the sealed page map does not "
                "put there"
            )


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
