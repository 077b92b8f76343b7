"""The CipherSuite batch kernel: golden vectors, reference differential, tamper.

``encrypt_page`` / ``decrypt_page`` are the matrix kernel with a batch of
one, so three contracts are pinned here:

* golden vectors recorded on the commit *before* the kernel landed (the
  per-frame big-int path): explicit-nonce frames for every backend and
  payload size, RNG-drawn frames, a sealed journal record and a sealed
  session request/reply — stores and journals on disk must still open
  (the ``shake`` entries and the session frames were recorded when that
  keystream replaced blake2 — a store from before is refused by name, see
  tests/test_core_snapshot.py — and the journal blob when the intent
  record became header + frames under one MAC);
* a hypothesis differential against a ten-line reference composition
  (``nonce || data ^ keystream || HMAC-SHA256(nonce || ct)[:16]``) over
  backend x uniform/ragged lengths x ``views``, and matrix in == list in
  (the kernel is matrix in / matrix out; lists go through its adapter);
* tamper handling: every MAC is checked before any byte is decrypted and
  every failing index is named — for a list and for a matrix, and during
  a key rotation only the failing rows are retried under the legacy key.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import make_records
from repro.core.journal import MemoryJournal
from repro.crypto.aes import AES
from repro.crypto.mac import TAG_SIZE, hmac_sha256
from repro.crypto.modes import NONCE_SIZE, ctr_keystream
from repro.crypto.purestack import pure_keystream_xor
from repro.crypto.kdf import derive_key
from repro.crypto.rng import SecureRandom
from repro.crypto.suite import _RENAMED, BACKENDS, FRAME_OVERHEAD, CipherSuite
from repro.errors import AuthenticationError, CryptoError
from repro.service import protocol
from repro.service.frontend import QueryFrontend

from tests.helpers import make_db

MASTER = b"golden master key"
SIZES = (0, 5, 64, 1037)


def _payload(size: int) -> bytes:
    return bytes((7 * i + size) % 256 for i in range(size))


def _nonce(index: int) -> bytes:
    return bytes(range(index, index + NONCE_SIZE))


def _as_matrix(rows, width: int) -> np.ndarray:
    """Uniform ``rows`` as the ``len(rows) x width`` uint8 matrix over them."""
    return np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), width)


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(4, "big") + blob)
    return h.hexdigest()


# -- golden vectors ----------------------------------------------------------


def golden_explicit_nonce_frames() -> dict:
    """SHA-256 of ``encrypt_page(payload, nonce)`` per backend and size."""
    return {
        f"{backend}-{size}": _digest(
            CipherSuite(MASTER, backend=backend, rng=SecureRandom(7))
            .encrypt_page(_payload(size), _nonce(index))
        )
        for backend in BACKENDS
        for index, size in enumerate(SIZES)
    }


def golden_rng_nonce_frames() -> dict:
    """Per backend: four RNG-nonce frames and the next RNG draw after them."""
    out = {}
    for backend in BACKENDS:
        rng = SecureRandom(11)
        suite = CipherSuite(MASTER, backend=backend, rng=rng)
        frames = [suite.encrypt_page(_payload(size)) for size in SIZES]
        out[backend] = _digest(*frames, rng.token(8))
    return out


class _RecordingJournal(MemoryJournal):
    def __init__(self):
        super().__init__()
        self.blobs = []

    def write(self, blob: bytes) -> None:
        self.blobs.append(bytes(blob))
        super().write(blob)


def golden_journal_blob() -> str:
    """The sealed intent record of one journaled update."""
    journal = _RecordingJournal()
    db = make_db(seed=99, journal=journal)
    db.update(3, b"journaled")
    (blob,) = journal.blobs
    return _digest(blob)


def golden_session_frames() -> str:
    """A sealed session request and the sealed reply the frontend returns."""
    db = make_db(seed=98)
    frontend = QueryFrontend(db)
    # Session ids are random draws; the vector pins id 1, whose suite is a
    # function of the id and the database's seed alone.
    session_id = 1
    frontend.adopt_session(session_id)
    suite = frontend.session_suite(session_id)
    request = suite.encrypt_page(
        protocol.encode_client_message(protocol.Query(5))
    )
    reply = frontend.serve(session_id, request)
    assert protocol.decode_client_message(suite.decrypt_page(reply)).payload \
        == make_records(40, 16)[5]
    return _digest(request, reply)


GOLDEN_EXPLICIT = {
    "aes-0": "2a14ebc832e4341cb96b7e93a2e02a264cb252ca9cb5019fbf0cfb671b08510e",
    "aes-5": "4d8dc68370426d799d70353235c08d69ee672b37628036abad4ab3e26e3be808",
    "aes-64": "42c8e231d31eba1b07623f8dd11d94f217b340c4b82f7d8339fb27d8a65ea4ec",
    "aes-1037": "c30f098c19d4b9f0fa0495849331c859325fa999f41b0980e562c0c087edeb09",
    "shake-0": "2a14ebc832e4341cb96b7e93a2e02a264cb252ca9cb5019fbf0cfb671b08510e",
    "shake-5": "a87dc74b575e84be365f11030b7a22f927315730d49ecf00c27a307637b6129b",
    "shake-64": "b142b4cca3e043ce3a376ef9fdec44f27d6351798b1b075e5f82cfc84212e329",
    "shake-1037": "aea902b11093ef15710e93f049f94b6ca3c5d62e7b978be5c8c78d670a650ba6",
    "null-0": "2a14ebc832e4341cb96b7e93a2e02a264cb252ca9cb5019fbf0cfb671b08510e",
    "null-5": "1dde18a835aec093d22150a3d4b6319a8bd2115c5e06f8ef8d09de50a6f6b10d",
    "null-64": "c925d9403df38d38bf1ad7adf24b829516ff99c05f9d86e39db692ab7e7d5dda",
    "null-1037": "0a31b4d452b0f49aeb8e297763a9f7c84e2f5668f570fd66512339c58b611380",
    "pure-0": "2a14ebc832e4341cb96b7e93a2e02a264cb252ca9cb5019fbf0cfb671b08510e",
    "pure-5": "34d5fa4bc8e72f068a19bdf60682e24c904f08c4f8850eec6a19079c1c1c7a94",
    "pure-64": "d8c89c29bfed494670363ee790a82f9226ca840516df14b536ea1bc4caeed775",
    "pure-1037": "b6945da35ef8dac3fa61cc61bd2fc31cdbc0242a5dbe6e15982a1f180da0f32f",
}
GOLDEN_RNG = {
    "aes": "65303e0acad0dc4c5d5f7e95d16cfc6f4dde5fd77621e962dbfdc9b684abb21f",
    "shake": "b68493fec97e0228a22636ca266aa7606b94dcecb405cf2ce8cb145f1d11cab0",
    "null": "a4ecff7319f3c1f65a13aafb9a3e0522419f783eb19c724b3fb4d9c041fc4dac",
    "pure": "fa4791716a4f0bc89703c442f18c8dd6238c5ea4444c6592558e6fe4b9d77530",
}
GOLDEN_JOURNAL_BLOB = (
    "ab9eb75afff4eea7500eeb7c03bcdb75d1f1090ab55ee1489a806c8b79305708"
)
GOLDEN_SESSION_FRAMES = (
    "bfcf98229a6c76bd1467c6f243f35dadf3e4a31f85009cf63221a341b3216631"
)


class TestGoldenVectors:
    """Frames are byte-identical to the per-frame path the kernel replaced."""

    def test_explicit_nonce_frames(self):
        assert golden_explicit_nonce_frames() == GOLDEN_EXPLICIT

    def test_rng_nonce_frames_and_next_draw(self):
        assert golden_rng_nonce_frames() == GOLDEN_RNG

    def test_sealed_journal_blob(self):
        assert golden_journal_blob() == GOLDEN_JOURNAL_BLOB

    def test_sealed_session_frames(self):
        assert golden_session_frames() == GOLDEN_SESSION_FRAMES

    def test_batch_entry_points_produce_the_same_frames(self):
        for backend in BACKENDS:
            suite = CipherSuite(MASTER, backend=backend, rng=SecureRandom(7))
            frames = suite.encrypt_pages(
                [_payload(size) for size in SIZES],
                [_nonce(index) for index in range(len(SIZES))],
            )
            assert {
                f"{backend}-{size}": _digest(frame)
                for size, frame in zip(SIZES, frames)
            } == {
                key: value for key, value in GOLDEN_EXPLICIT.items()
                if key.startswith(backend + "-")
            }
            assert suite.decrypt_pages(frames) == [_payload(s) for s in SIZES]
            assert [suite.decrypt_page(f) for f in frames] == \
                [_payload(s) for s in SIZES]

    def test_retired_backend_name_is_the_shake_backend(self):
        (retired,) = _RENAMED  # one entry: the name the BENCH harness pins
        assert retired not in BACKENDS and len(BACKENDS) == 4
        old = CipherSuite(MASTER, backend=retired, rng=SecureRandom(7))
        new = CipherSuite(MASTER, backend="shake", rng=SecureRandom(7))
        assert old.backend == new.backend == "shake"
        payloads = [_payload(size) for size in SIZES]
        frames = old.encrypt_pages(payloads)
        assert frames == new.encrypt_pages(payloads)
        assert new.decrypt_pages(frames) == payloads


# -- differential against a reference composition -----------------------------


def reference_frame(backend: str, nonce: bytes, data: bytes) -> bytes:
    """``nonce || data ^ keystream || HMAC-SHA256(nonce || ct)[:16]``, one frame."""
    enc_key = derive_key(MASTER, "page-encryption", 16)
    mac_key = derive_key(MASTER, "page-authentication", 32)
    if backend == "aes":
        keystream = ctr_keystream(AES(enc_key), nonce, len(data))
    elif backend == "pure":
        keystream = pure_keystream_xor(enc_key, nonce, bytes(len(data)))
    elif backend == "shake":
        keystream = hashlib.shake_256(enc_key + nonce).digest(len(data))
    else:
        keystream = bytes(len(data))
    ct = bytes(a ^ b for a, b in zip(data, keystream))
    return nonce + ct + hmac_sha256(mac_key, nonce + ct)[:TAG_SIZE]


# Around the 16 / 32 / 64-byte block edges of the aes and pure streams and
# the 136-byte SHAKE-256 rate.
LENGTHS = st.sampled_from((0, 1, 5, 63, 64, 65, 130, 135, 136, 137))


@st.composite
def batches(draw):
    """(backend, payloads, nonces, views): uniform or ragged."""
    count = draw(st.integers(0, 6))
    if draw(st.booleans()):
        lengths = [draw(LENGTHS)] * count
    else:
        lengths = [draw(LENGTHS) for _ in range(count)]
    return (
        draw(st.sampled_from(BACKENDS)),
        [draw(st.binary(min_size=n, max_size=n)) for n in lengths],
        draw(st.lists(st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
                      min_size=count, max_size=count, unique=True)),
        draw(st.booleans()),
    )


class TestReferenceDifferential:
    @settings(max_examples=120, deadline=None)
    @given(batches())
    def test_kernel_matches_reference(self, batch):
        backend, payloads, nonces, views = batch
        suite = CipherSuite(MASTER, backend=backend, rng=SecureRandom(3))
        expected = [reference_frame(backend, nonce, data)
                    for nonce, data in zip(nonces, payloads)]
        assert suite.encrypt_pages(payloads, nonces) == expected
        assert [suite.encrypt_page(data, nonce)
                for nonce, data in zip(nonces, payloads)] == expected

        plain = suite.decrypt_pages(expected, views=views)
        assert all(isinstance(row, memoryview if views else bytes)
                   for row in plain)
        assert [bytes(row) for row in plain] == payloads
        assert [suite.decrypt_page(frame) for frame in expected] == payloads

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", [0, 5, 64, 137])
    def test_matrix_in_equals_list_in(self, backend, width):
        """The kernel handed a matrix returns the matrix of the adapter's
        frames — same bytes, same RNG draws — for every backend and width."""
        payloads = [_payload(width + index)[:width] for index in range(4)]
        nonces = [_nonce(index) for index in range(4)]
        expected = [reference_frame(backend, nonce, data)
                    for nonce, data in zip(nonces, payloads)]
        suite = CipherSuite(MASTER, backend=backend, rng=SecureRandom(3))
        plain = _as_matrix(payloads, width)
        sealed = suite.encrypt_pages(plain, nonces)
        assert isinstance(sealed, np.ndarray) and sealed.dtype == np.uint8
        assert sealed.shape == (4, width + FRAME_OVERHEAD)
        assert [bytes(row) for row in sealed] == expected \
            == suite.encrypt_pages(payloads, nonces)
        opened = suite.decrypt_pages(sealed)
        assert isinstance(opened, np.ndarray) and opened.shape == plain.shape
        assert opened.tobytes() == plain.tobytes()
        assert opened is not sealed and not np.shares_memory(opened, sealed)
        assert suite.decrypt_pages(expected) == payloads
        # A read-only matrix (np.frombuffer over bytes) opens too.
        assert suite.decrypt_pages(
            _as_matrix(expected, width + FRAME_OVERHEAD)
        ).tobytes() == plain.tobytes()
        # RNG-drawn nonces: one draw, sliced in frame order, either way.
        rng, twin = SecureRandom(17), SecureRandom(17)
        by_matrix = CipherSuite(MASTER, backend=backend, rng=rng)
        by_list = CipherSuite(MASTER, backend=backend, rng=twin)
        assert [bytes(row) for row in by_matrix.encrypt_pages(plain)] \
            == by_list.encrypt_pages(payloads)
        assert rng.token(8) == twin.token(8)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_of_only_empty_payloads(self, backend):
        """Width 0: the keystream matrix is ``count x 0`` (``digest(0)``)."""
        suite = CipherSuite(MASTER, backend=backend, rng=SecureRandom(3))
        nonces = [_nonce(index) for index in range(3)]
        assert suite._keystream_matrix(nonces, 0).shape == (3, 0)
        frames = suite.encrypt_pages([b""] * 3, nonces)
        assert frames == [reference_frame(backend, nonce, b"")
                          for nonce in nonces]
        assert suite.decrypt_pages(frames) == [b""] * 3
        assert [bytes(row) for row in suite.decrypt_pages(frames, views=True)] \
            == [b""] * 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rng_nonces_are_drawn_in_frame_order(self, backend):
        payloads = [_payload(size) for size in (130, 0, 64, 5)]
        twin = SecureRandom(17)
        expected = [reference_frame(backend, twin.token(NONCE_SIZE), data)
                    for data in payloads]
        rng = SecureRandom(17)
        suite = CipherSuite(MASTER, backend=backend, rng=rng)
        assert suite.encrypt_pages(payloads) == expected
        assert rng.token(8) == twin.token(8)


# -- tamper ------------------------------------------------------------------


def _flip(frame: bytes, offset: int) -> bytes:
    out = bytearray(frame)
    out[offset] ^= 0x01
    return bytes(out)


class TestTamper:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("offset", [0, NONCE_SIZE + 3, -1],
                             ids=["nonce", "body", "tag"])
    def test_any_tampered_region_names_its_frame(self, backend, offset):
        suite = CipherSuite(MASTER, backend=backend, rng=SecureRandom(5))
        frames = suite.encrypt_pages([_payload(40), _payload(9), _payload(40)])
        frames[1] = _flip(frames[1], offset)
        with pytest.raises(AuthenticationError, match=r"\[1\] of batch of 3"):
            suite.decrypt_pages(frames)
        with pytest.raises(AuthenticationError):
            suite.decrypt_page(frames[1])
        assert suite.decrypt_page(frames[2]) == _payload(40)

    def test_two_bad_frames_both_named_and_nothing_decrypted(self, monkeypatch):
        suite = CipherSuite(MASTER, backend="shake", rng=SecureRandom(5))
        frames = suite.encrypt_pages([_payload(64)] * 4)
        keystream_calls = []
        monkeypatch.setattr(
            suite, "_keystream_matrix",
            lambda nonces, width: keystream_calls.append(len(nonces)),
        )
        frames[0] = _flip(frames[0], 20)
        frames[3] = _flip(frames[3], -5)
        with pytest.raises(AuthenticationError, match=r"\[0, 3\] of batch of 4"):
            suite.decrypt_pages(frames, views=True)
        # The keystream stage never ran.
        assert keystream_calls == []

    def test_tampered_matrix_names_every_row_and_nothing_is_decrypted(
            self, monkeypatch):
        suite = CipherSuite(MASTER, backend="shake", rng=SecureRandom(5))
        sealed = suite.encrypt_pages(_as_matrix([_payload(64)] * 5, 64).copy())
        keystream_calls = []
        monkeypatch.setattr(
            suite, "_keystream_matrix",
            lambda nonces, width: keystream_calls.append(len(nonces)),
        )
        sealed[0, 20] ^= 0x01          # body
        sealed[2, 3] ^= 0x01           # nonce
        sealed[4, -5] ^= 0x01          # tag
        with pytest.raises(AuthenticationError,
                           match=r"\[0, 2, 4\] of batch of 5") as caught:
            suite.decrypt_pages(sealed)
        assert caught.value.failed == (0, 2, 4)
        # The keystream stage never ran.
        assert keystream_calls == []

    def test_short_frame_and_truncated_tag_are_rejected(self):
        suite = CipherSuite(MASTER, backend="shake", rng=SecureRandom(5))
        frame = suite.encrypt_page(b"")
        assert len(frame) == FRAME_OVERHEAD
        with pytest.raises(CryptoError, match="frame too short"):
            suite.decrypt_page(frame[:-1])
        with pytest.raises(CryptoError, match="frame too short"):
            suite.decrypt_pages([frame, frame[:-1]])
        longer = suite.encrypt_page(b"abc")
        with pytest.raises(AuthenticationError):
            suite.decrypt_page(longer[:-1])  # tag now straddles the body
        with pytest.raises(CryptoError, match="frame too short"):
            suite.decrypt_pages(np.zeros((2, FRAME_OVERHEAD - 1), np.uint8))


# -- buffer ownership --------------------------------------------------------


class TestBufferOwnership:
    def test_views_outlive_the_input_frames(self):
        suite = CipherSuite(MASTER, backend="shake", rng=SecureRandom(5))
        payloads = [_payload(size) for size in (130, 64, 130)]
        frames = suite.encrypt_pages(payloads)
        views = suite.decrypt_pages(frames, views=True)
        del frames
        gc.collect()
        suite.decrypt_pages(suite.encrypt_pages(payloads), views=True)
        assert [bytes(view) for view in views] == payloads

    def test_cached_pages_own_their_bytes(self):
        db = make_db(seed=5)
        for page_id in range(40):
            db.query(page_id)
        assert all(isinstance(page.payload, bytes) for page in db.cop.cache)

    def test_rotation_window_falls_back_per_frame(self):
        db = make_db(seed=6)
        cop = db.cop
        pages = [cop.unseal(db.disk.peek(loc)) for loc in range(4)]
        old = [db.disk.peek(loc) for loc in range(4)]
        cop.begin_key_rotation(b"next master key")
        new = list(cop.seal_pages(pages))
        # A window mixing legacy- and new-key frames fails the new key's
        # batch MAC check as a whole, so it is opened frame by frame.
        with pytest.raises(AuthenticationError):
            cop.suite.decrypt_pages(old + new)
        opened = cop.unseal_frames(old + new)
        assert list(opened) == pages + pages
        cop.finish_key_rotation()
        with pytest.raises(AuthenticationError, match=r"\[0, 1, 2, 3\]"):
            cop.unseal_frames(old + new)

    def test_rotation_retries_only_the_failing_rows_under_the_legacy_key(
            self, monkeypatch):
        db = make_db(seed=6)
        cop = db.cop
        window = db.disk.read_range(0, 6)
        pages = list(cop.unseal_frames(window))
        cop.begin_key_rotation(b"next master key")
        # Rows 1 and 4 are already re-sealed under the new key.
        window[[1, 4]] = cop.seal_pages([pages[1], pages[4]])
        retried = []
        legacy_decrypt = cop._legacy_suite.decrypt_pages
        monkeypatch.setattr(
            cop._legacy_suite, "decrypt_pages",
            lambda frames: retried.append(frames.copy())
            or legacy_decrypt(frames),
        )
        assert list(cop.unseal_frames(window)) == pages
        (rows,) = retried
        assert rows.tobytes() == window[[0, 2, 3, 5]].tobytes()
        # A row neither key opens is named by its index in the window.
        window[3, 20] ^= 0x01
        with pytest.raises(AuthenticationError,
                           match=r"frame\(s\) \[3\] of batch of 6") as caught:
            cop.unseal_frames(window)
        assert caught.value.failed == (3,)


if __name__ == "__main__":  # prints the vectors; run on the parent commit
    import pprint

    pprint.pprint(golden_explicit_nonce_frames())
    pprint.pprint(golden_rng_nonce_frames())
    print(repr(golden_journal_blob()))
    print(repr(golden_session_frames()))
