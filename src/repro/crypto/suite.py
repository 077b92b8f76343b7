"""Authenticated page encryption for the secure coprocessor.

A :class:`CipherSuite` turns plaintext page payloads into self-contained
encrypted *frames* and back:

``frame = nonce (12B) || ciphertext || tag (16B)``

with encrypt-then-MAC (HMAC-SHA256 truncated to 128 bits over nonce plus
ciphertext).  A fresh random nonce is drawn for every encryption, which is
what makes the re-encryption in Figure 3 line 21 produce ciphertexts the
server cannot link across writes.

Four keystream backends are provided:

``aes``
    Real AES-128-CTR from :mod:`repro.crypto.aes` — the paper's cipher.
    Used by default for correctness-sensitive paths and validated against
    NIST vectors.  Runs the T-table fast kernel by default (byte-identical
    to the FIPS-197 reference; ``REPRO_AES_ACCEL=0`` forces reference).
``shake``
    One SHAKE-256 squeeze per frame: ``shake_256(enc_key || nonce)`` read
    out to the payload length (via ``hashlib``: one C call per frame).
    Same security contract for the purposes of this system (a PRF-based
    stream cipher); the recommended backend for large simulations.
``null``
    Identity transform, still MAC'd.  For experiments that only study the
    *access pattern* (privacy measurements), where byte confidentiality is
    irrelevant and speed is everything.
``pure``
    Keystream and tags built entirely from this repository's own SHA-256
    (:mod:`repro.crypto.purestack`) — zero stdlib crypto.  Auditability
    over speed.

The backend choice never changes frame sizes or the algorithm's behaviour;
it is a simulation-fidelity knob, documented in DESIGN.md.

One kernel
----------

A request moves ``2(k+1)`` frames through the suite, so each direction is
one pass over the whole window held as a contiguous ``numpy.uint8`` matrix
of ``frames x frame_size`` (DESIGN.md §10).  The kernel is matrix in,
matrix out: :meth:`CipherSuite.encrypt_pages` / :meth:`decrypt_pages`
handed a matrix run over the rows they were given and return a matrix —
the engine's window never exists as per-frame ``bytes``.  Everything else
(a single frame, a list of payloads, a ragged batch) is the adapter: the
same kernel over zero-padded rows, cut back into ``bytes``:

* nonces are one RNG draw sliced in frame order (the RNG is a buffered
  stream, so a batch consumes it exactly like the equivalent sequence of
  single-frame calls and both produce **byte-identical frames**),
* MAC tags are computed over ``memoryview`` rows of the matrix from
  precomputed HMAC pad states (the SHA-256 of the inner/outer key pads is
  hashed once per suite, then ``copy()``-ed per frame) and compared with
  ``hmac.compare_digest``; decryption checks every tag before touching a
  byte and reports the full set of failing frame indices,
* the window's keystream is one matrix: per-backend key schedules (AES
  round keys, the key-absorbed SHAKE-256 base state) are computed once per
  suite, a shake row is one ``digest(width)`` call, the aes rows come from
  one fused :func:`~repro.crypto.modes.ctr_keystream_batch` entry,
* the XOR is one ``numpy.bitwise_xor`` — written straight into the
  ciphertext columns of the output frame matrix on encrypt, and the
  plaintext matrix itself on decrypt.

The work per row lives in two row kernels, ``_seal_rows`` and
``_open_rows``, and a uniform batch runs them through the process's crypto
lane (:mod:`repro.crypto.lane`): from :data:`~repro.crypto.lane.MIN_ROWS`
rows on, a worker process runs them over the back half of the rows while
the caller runs them over the front half.  Nonces are drawn for all rows
before the split and each side checks the MAC of every row it owns, so
the frames, the failing indices and the rule that no plaintext leaves
unless every row verified are those of one pass over all rows — which is
what runs whenever the lane cannot take the batch (small or ragged batch,
worker not ready or gone, one CPU).  A lane that another thread's batch
holds is waited for, not bypassed.

Intent records
--------------

A write-ahead intent record (:mod:`repro.core.journal`) carries a small
secret header and the window's frames, which the kernel sealed a moment
earlier and the host sees on the bus anyway.  :meth:`CipherSuite.seal_intent`
therefore encrypts only the header and carries the frames as they are —
associated data:

``record = magic (4B) || nonce (12B) || E(header) || frames || tag (16B)``

The tag is HMAC-SHA256 under its *own* derived key, so a record never
authenticates as a frame (or as anything else sealed with
:meth:`~CipherSuite.encrypt_page`) and no frame authenticates as a record.
Its input is the magic, the nonce and the encrypted header, then each
frame's own 16-byte tag in frame order — 3 870 bytes for a window of one
at BENCH's durable point, where the whole record is ~112 KB.  A frame's
tag already binds its nonce and ciphertext under the frame key, so binding
the tags binds the frames: :meth:`~CipherSuite.open_intent` checks the
record's tag, and the reader opens every frame (the engine's recovery
does, through ``unseal_frames``) before it acts on the record.  A flipped
frame byte then fails that frame's tag, and a different frame — an older,
validly sealed one of the same location — carries a different tag, which
fails the record's.
"""

from __future__ import annotations

import hashlib
from hmac import compare_digest
from typing import List, Optional, Sequence

import numpy as np

from .aes import AES
from .kdf import derive_key
from .mac import TAG_SIZE
from .modes import NONCE_SIZE, ctr_keystream_batch
from .purestack import pure_hmac_sha256, pure_keystream_xor
from .rng import SecureRandom
from ..errors import AuthenticationError, CryptoError
from ..obs.tracer import NULL_TRACER, Tracer

__all__ = ["CipherSuite", "FRAME_OVERHEAD", "INTENT_OVERHEAD", "BACKENDS"]

FRAME_OVERHEAD = NONCE_SIZE + TAG_SIZE
_MAGIC_SIZE = 4
#: Bytes an intent record adds to its header and frames.
INTENT_OVERHEAD = _MAGIC_SIZE + NONCE_SIZE + TAG_SIZE
BACKENDS = ("aes", "shake", "null", "pure")
# The frozen BENCH harness (benchmarks/e2e/workloads.py) still passes the
# retired BLAKE2b-counter backend's name; ROADMAP item 1a re-pins it and
# deletes this map.
_RENAMED = {"blake2": "shake"}

_HMAC_BLOCK = 64  # SHA-256 block size (HMAC pad width)


def _matrix(rows: Sequence, width: int) -> np.ndarray:
    """``rows`` as a ``(len(rows), width)`` uint8 matrix over one joined buffer.

    Rows are bytes-like and at most ``width`` long; shorter ones are
    zero-padded, so a uniform batch is just the case with no padding.
    """
    joined = b"".join([bytes(row).ljust(width, b"\x00") for row in rows])
    return np.frombuffer(joined, np.uint8).reshape(len(rows), width)


def _tagger(key: bytes, pure: bool):
    """``data -> HMAC-SHA256(key, data)[:TAG_SIZE]`` for bytes-like ``data``.

    The pure backend authenticates with the repository's own SHA-256 so
    the whole chain is hashlib-free; the others use hashlib with the
    key-pad states hashed once here and copied per tag.  Both produce the
    same bytes as mac.hmac_sha256.
    """
    if pure:
        return lambda data: pure_hmac_sha256(key, bytes(data))[:TAG_SIZE]
    padded = key.ljust(_HMAC_BLOCK, b"\x00")
    inner_pad = hashlib.sha256(bytes(b ^ 0x36 for b in padded))
    outer_pad = hashlib.sha256(bytes(b ^ 0x5C for b in padded))

    def tag(data) -> bytes:
        inner = inner_pad.copy()
        inner.update(data)
        outer = outer_pad.copy()
        outer.update(inner.digest())
        return outer.digest()[:TAG_SIZE]

    return tag


def _nonce_rows(blob: bytes) -> List[bytes]:
    """One batch's nonces, back to back in ``blob``, as a list in frame order."""
    return [
        blob[start : start + NONCE_SIZE]
        for start in range(0, len(blob), NONCE_SIZE)
    ]


class CipherSuite:
    """Keyed authenticated encryption for fixed- or variable-size pages.

    >>> suite = CipherSuite(b"master key", backend="shake", rng=SecureRandom(1))
    >>> frame = suite.encrypt_page(b"hello")
    >>> suite.decrypt_page(frame)
    b'hello'

    Not thread-safe: the nonce RNG is stateful, so give each thread its
    own suite (the engine owns one per coprocessor, which is entered by a
    single thread at a time — see DESIGN.md §10).
    """

    def __init__(
        self,
        master_key: bytes,
        backend: str = "aes",
        rng: Optional[SecureRandom] = None,
        tracer: Optional[Tracer] = None,
    ):
        backend = _RENAMED.get(backend, backend)
        if backend not in BACKENDS:
            raise CryptoError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self._rng = rng if rng is not None else SecureRandom()
        # The crypto.* spans only exist at DETAIL_FINE (fine_span is a
        # shared no-op otherwise).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._set_frame_keys(
            backend,
            derive_key(master_key, "page-encryption", 16),
            derive_key(master_key, "page-authentication", 32),
        )
        # Frames and intent records are tagged under separate derived
        # keys, so neither ever authenticates as the other.
        self._intent_tag = _tagger(
            derive_key(master_key, "intent-authentication", 32),
            backend == "pure",
        )

    @classmethod
    def _for_frame_keys(
        cls, backend: str, enc_key: bytes, mac_key: bytes
    ) -> "CipherSuite":
        """A suite holding only the two frame keys: the row kernels and
        nothing that draws a nonce or seals an intent record.  It is the
        crypto lane worker's (:mod:`repro.crypto.lane`), which is handed
        derived keys, never the master key."""
        suite = cls.__new__(cls)
        suite.tracer = NULL_TRACER
        suite._set_frame_keys(backend, enc_key, mac_key)
        return suite

    def _set_frame_keys(self, backend: str, enc_key: bytes, mac_key: bytes) -> None:
        self.backend = backend
        self._enc_key = enc_key
        # What the lane worker needs to run this suite's row kernels.
        self._lane_keys = (backend, enc_key, mac_key)
        # for_key caches keyed instances process-wide, so the legacy-key
        # suite kept alive during a rotation (and any suite re-derived for
        # the same master key) reuses an existing key schedule instead of
        # re-expanding it.
        self._aes: Optional[AES] = AES.for_key(enc_key) if backend == "aes" else None
        # The key is absorbed once; each row copies this state, absorbs its
        # nonce and squeezes (byte-identical to a one-shot
        # shake_256(enc_key + nonce)).
        self._shake_base = hashlib.shake_256(enc_key) if backend == "shake" else None
        self._tag = _tagger(mac_key, backend == "pure")

    # -- keystream ------------------------------------------------------------

    def _keystream_matrix(self, nonces: Sequence[bytes], width: int) -> np.ndarray:
        """The batch's keystream, one ``width``-byte row per nonce."""
        count = len(nonces)
        if self.backend == "null":
            return np.zeros((count, width), np.uint8)  # identity under XOR
        if self.backend == "aes":
            assert self._aes is not None
            # One fused kernel entry: the counter blocks of every row cross
            # the vectorised lane's threshold together.
            return _matrix(
                ctr_keystream_batch(self._aes, nonces, [width] * count), width
            )
        if self.backend == "pure":
            # purestack only exposes the XOR form; stream against zeros.
            zeros = bytes(width)
            return _matrix(
                [pure_keystream_xor(self._enc_key, nonce, zeros) for nonce in nonces],
                width,
            )
        # shake: row = SHAKE-256(enc_key || nonce) squeezed to ``width`` —
        # one C call per frame.  Key and nonce are fixed-length, so the
        # prefix is unambiguous; an XOF's output is a prefix of any longer
        # read, so a padded ragged row equals its single-frame call.
        assert self._shake_base is not None
        fork = self._shake_base.copy
        rows: List[bytes] = []
        for nonce in nonces:
            row = fork()
            row.update(nonce)
            rows.append(row.digest(width))
        return np.frombuffer(b"".join(rows), np.uint8).reshape(count, width)

    # -- frames ---------------------------------------------------------------
    #
    # One kernel per direction, matrix in / matrix out.  The single-frame
    # and list entry points are its adapter: zero-padded rows in, rows cut
    # back to ``bytes`` out (their bytes are pinned by
    # tests/test_crypto_kernel.py).

    def encrypt_page(self, plaintext: bytes, nonce: Optional[bytes] = None) -> bytes:
        """Encrypt a page payload into a frame with a fresh random nonce.

        An explicit ``nonce`` may be supplied for testing; production callers
        must leave it None so every write gets a unique nonce.
        """
        with self.tracer.fine_span("crypto.encrypt", nbytes=len(plaintext)):
            return self._encrypt_batch(
                _matrix((plaintext,), len(plaintext)),
                None if nonce is None else (nonce,),
            ).tobytes()

    def decrypt_page(self, frame: bytes) -> bytes:
        """Verify and decrypt a frame; raises :class:`AuthenticationError` on tamper."""
        return self._decrypt_batch(_matrix((frame,), len(frame))).tobytes()

    def encrypt_pages(self, plaintexts, nonces: Optional[Sequence[bytes]] = None):
        """Encrypt a batch of payloads into frames.

        ``plaintexts`` is a ``count x size`` ``numpy.uint8`` matrix — the
        frames come back as one ``count x frame_size`` matrix — or any
        sequence of bytes-like payloads, uniform or ragged, which comes
        back as a list of ``bytes`` frames.

        Nonces are drawn from the RNG in frame order, so
        ``encrypt_pages(batch)`` produces the same frames as the
        equivalent sequence of :meth:`encrypt_page` calls on the same RNG
        state — the batch only saves Python overhead, never changes bytes.
        """
        if isinstance(plaintexts, np.ndarray):
            with self.tracer.fine_span(
                "crypto.encrypt_batch", nbytes=plaintexts.size
            ):
                return self._encrypt_batch(plaintexts, nonces)
        lengths = [len(plaintext) for plaintext in plaintexts]
        with self.tracer.fine_span("crypto.encrypt_batch", nbytes=sum(lengths)):
            matrix = self._encrypt_batch(
                _matrix(plaintexts, max(lengths, default=0)), nonces, lengths
            )
            return [
                row[: length + FRAME_OVERHEAD].tobytes()
                for row, length in zip(matrix, lengths)
            ]

    def decrypt_pages(self, frames, views: bool = False):
        """Verify and decrypt a batch of frames.

        ``frames`` is a ``count x frame_size`` ``numpy.uint8`` matrix — the
        plaintexts come back as one freshly allocated matrix — or any
        sequence of bytes-like frames, uniform or ragged, which comes back
        as a list of ``bytes`` (``views=True``: of zero-copy
        ``memoryview`` slices of the kernel's result, valid after
        ``frames`` is dropped).

        Every MAC is checked before any byte is decrypted;
        :class:`AuthenticationError` carries the indices of *all* failing
        frames (``failed``) so one tampered frame cannot mask another.
        """
        if isinstance(frames, np.ndarray):
            with self.tracer.fine_span("crypto.decrypt_batch", nbytes=frames.size):
                return self._decrypt_batch(frames)
        sizes = [len(frame) for frame in frames]
        with self.tracer.fine_span("crypto.decrypt_batch", nbytes=sum(sizes)):
            plain = self._decrypt_batch(
                _matrix(frames, max(sizes, default=FRAME_OVERHEAD)), sizes
            )
            rows = [
                memoryview(row)[: size - FRAME_OVERHEAD]
                for row, size in zip(plain, sizes)
            ]
            return rows if views else [bytes(row) for row in rows]

    def _encrypt_batch(
        self,
        plain: np.ndarray,
        nonces: Optional[Sequence[bytes]],
        lengths: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Seal the rows of ``plain`` into a ``count x (size + overhead)`` matrix.

        With ``lengths`` (the adapter's ragged batch) row i carries only its
        first ``lengths[i]`` bytes: its tag sits right behind them and the
        rest of the row is padding the adapter cuts off.  A uniform batch
        is shared with the crypto lane (:mod:`repro.crypto.lane`); every
        nonce is drawn here first, so the split never changes a byte.
        """
        count, body = plain.shape
        if nonces is None:
            drawn = self._rng.token(NONCE_SIZE * count)
        elif len(nonces) != count:
            raise CryptoError("need exactly one nonce per plaintext")
        elif any(len(nonce) != NONCE_SIZE for nonce in nonces):
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        else:
            drawn = b"".join(nonces)
        # Row i holds frame i: the nonce columns are filled here, the row
        # kernel XORs straight into the ciphertext columns and writes each
        # tag right behind its row's ciphertext.
        matrix = np.empty((count, body + FRAME_OVERHEAD), np.uint8)
        if not count:
            return matrix
        matrix[:, :NONCE_SIZE] = np.frombuffer(drawn, np.uint8).reshape(
            count, NONCE_SIZE
        )
        if lengths is None:
            from .lane import SEAL, process_lane  # (see _decrypt_batch)

            process_lane().share(SEAL, self, plain, matrix)
        else:
            self._seal_rows(plain, matrix, lengths)
        return matrix

    def _seal_rows(
        self,
        plain: np.ndarray,
        frames: np.ndarray,
        lengths: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """The encrypt row kernel: fill ``frames`` (nonce columns already
        set) with the ciphertext and tag of each row of ``plain``.  Returns
        the rows that failed, which is none: the lane's row kernels share
        one signature."""
        count, body = plain.shape
        width = body + FRAME_OVERHEAD
        np.bitwise_xor(
            plain,
            self._keystream_matrix(
                _nonce_rows(frames[:, :NONCE_SIZE].tobytes()), body
            ),
            out=frames[:, NONCE_SIZE : NONCE_SIZE + body],
        )
        flat = memoryview(frames.reshape(-1))
        tag = self._tag
        for index in range(count):
            start = index * width
            end = start + NONCE_SIZE + (body if lengths is None else lengths[index])
            flat[end : end + TAG_SIZE] = tag(flat[start:end])
        return []

    def _decrypt_batch(
        self, frames: np.ndarray, sizes: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Open the rows of ``frames`` into a ``count x (width - overhead)`` matrix.

        With ``sizes`` (the adapter's ragged batch) row i is a frame of
        ``sizes[i]`` bytes followed by padding; only the first
        ``sizes[i] - overhead`` bytes of its plaintext row mean anything.
        A uniform batch is shared with the crypto lane; each side checks
        the MAC of every row it owns, and the plaintext leaves only when
        every row of the batch verified.
        """
        count, width = frames.shape
        shortest = width if sizes is None else min(sizes, default=width)
        if shortest < FRAME_OVERHEAD:
            raise CryptoError(
                f"frame too short: {shortest} bytes < overhead {FRAME_OVERHEAD}"
            )
        plain = np.empty((count, width - FRAME_OVERHEAD), np.uint8)
        if not count:
            return plain
        if sizes is None:
            # Imported on first use, not with the package: ``python -m
            # repro.crypto.lane`` must find that module not yet imported.
            from .lane import OPEN, process_lane

            failed = process_lane().share(OPEN, self, frames, plain)
        else:
            failed = self._open_rows(frames, plain, sizes)
        if failed:
            raise AuthenticationError(
                f"frame(s) {failed} of batch of {count} failed MAC "
                "verification",
                failed=failed,
            )
        return plain

    def _open_rows(
        self,
        frames: np.ndarray,
        plain: np.ndarray,
        sizes: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """The decrypt row kernel: check the MAC of every row of ``frames``
        and return the failing row indices; only when there are none,
        decrypt the rows into ``plain``."""
        count, width = frames.shape
        body = width - FRAME_OVERHEAD
        flat = memoryview(frames.reshape(-1))
        total = frames.size if sizes is None else sum(sizes)
        with self.tracer.fine_span("crypto.mac_verify", nbytes=total):
            tag = self._tag
            failed: List[int] = []
            for index in range(count):
                start = index * width
                end = start + (width if sizes is None else sizes[index]) - TAG_SIZE
                if not compare_digest(
                    tag(flat[start:end]), flat[end : end + TAG_SIZE]
                ):
                    failed.append(index)
        if failed:
            return failed
        with self.tracer.fine_span(
            "crypto.keystream", nbytes=total - count * FRAME_OVERHEAD
        ):
            np.bitwise_xor(
                frames[:, NONCE_SIZE : NONCE_SIZE + body],
                self._keystream_matrix(
                    _nonce_rows(frames[:, :NONCE_SIZE].tobytes()), body
                ),
                out=plain,
            )
        return failed

    # -- intent records -------------------------------------------------------

    def seal_intent(self, magic: bytes, header: bytes, frames: np.ndarray) -> bytearray:
        """``magic || nonce || E(header) || frames || tag`` in one buffer.

        ``frames`` (a C-contiguous ``numpy.uint8`` matrix of already sealed
        frames) is copied in as it is; only ``header`` is encrypted, under
        one fresh nonce, and the tag covers the magic, the nonce, the
        encrypted header and each frame's own tag (:meth:`_record_tag`).
        """
        head = _MAGIC_SIZE + NONCE_SIZE
        body = head + len(header)
        record = bytearray(body + frames.size + TAG_SIZE)
        with self.tracer.fine_span("crypto.seal_intent", nbytes=len(record)):
            nonce = self._rng.token(NONCE_SIZE)
            view = memoryview(record)
            view[:_MAGIC_SIZE] = magic
            view[_MAGIC_SIZE:head] = nonce
            np.bitwise_xor(
                np.frombuffer(header, np.uint8),
                self._keystream_matrix((nonce,), len(header))[0],
                out=np.frombuffer(view[head:body], np.uint8),
            )
            view[body:-TAG_SIZE] = memoryview(frames.reshape(-1))
            view[-TAG_SIZE:] = self._record_tag(view[:body], frames)
        return record

    def open_intent(self, magic: bytes, record, header_size: int,
                    frame_size: int):
        """Authenticate ``record`` and return ``(header, frames)``.

        The tag is checked before anything else is looked at; only the
        ``header_size`` header bytes are decrypted.  The frame section comes
        back as a read-only ``count x frame_size`` matrix view of
        ``record``, its frames not yet opened: the tag binds each frame's
        own tag, so the caller opens them before it trusts their bytes.
        """
        view = memoryview(record)
        head = _MAGIC_SIZE + NONCE_SIZE
        body = head + header_size
        section = len(view) - body - TAG_SIZE
        if section < 0 or section % frame_size or view[:_MAGIC_SIZE] != magic:
            raise AuthenticationError("not an intent record of this kind")
        frames = np.frombuffer(view[body:-TAG_SIZE], np.uint8).reshape(
            -1, frame_size
        )
        if not compare_digest(
            self._record_tag(view[:body], frames), view[-TAG_SIZE:]
        ):
            raise AuthenticationError("intent record failed MAC verification")
        header = np.bitwise_xor(
            np.frombuffer(view[head:body], np.uint8),
            self._keystream_matrix(
                (bytes(view[_MAGIC_SIZE:head]),), header_size
            )[0],
        ).tobytes()
        return header, frames

    def _record_tag(self, head, frames: np.ndarray) -> bytes:
        """An intent record's tag: HMAC under the intent key over ``head``
        (magic, nonce, encrypted header) and the last ``TAG_SIZE`` bytes of
        each row of ``frames`` — the frame's own tag, which already binds
        its nonce and ciphertext under the frame key."""
        return self._intent_tag(
            b"".join((head, frames[:, -TAG_SIZE:].tobytes()))
        )

    def frame_size(self, payload_size: int) -> int:
        """Size in bytes of an encrypted frame for a payload of ``payload_size``."""
        if payload_size < 0:
            raise CryptoError("payload size must be non-negative")
        return payload_size + FRAME_OVERHEAD
