"""SecureRandom determinism/uniformity and CipherSuite framing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import SecureRandom
from repro.crypto.suite import BACKENDS, FRAME_OVERHEAD, CipherSuite
from repro.errors import AuthenticationError, CryptoError


class TestSecureRandom:
    def test_seed_determinism(self):
        a, b = SecureRandom(42), SecureRandom(42)
        assert [a.randrange(1000) for _ in range(20)] == [
            b.randrange(1000) for _ in range(20)
        ]

    def test_different_seeds_diverge(self):
        a, b = SecureRandom(1), SecureRandom(2)
        assert [a.randrange(10**9) for _ in range(4)] != [
            b.randrange(10**9) for _ in range(4)
        ]

    def test_randrange_bounds(self):
        rng = SecureRandom(3)
        for upper in (1, 2, 3, 7, 256, 257, 10**12):
            for _ in range(50):
                assert 0 <= rng.randrange(upper) < upper

    def test_randrange_uniform_coverage(self):
        rng = SecureRandom(4)
        counts = [0] * 8
        for _ in range(8000):
            counts[rng.randrange(8)] += 1
        # Expected 1000 each; loose 4-sigma band.
        assert all(850 < c < 1150 for c in counts), counts

    def test_randint_inclusive(self):
        rng = SecureRandom(5)
        values = {rng.randint(3, 5) for _ in range(200)}
        assert values == {3, 4, 5}

    def test_random_unit_interval(self):
        rng = SecureRandom(6)
        samples = [rng.random() for _ in range(500)]
        assert all(0 <= x < 1 for x in samples)
        assert 0.4 < sum(samples) / len(samples) < 0.6

    def test_shuffle_is_permutation(self):
        rng = SecureRandom(7)
        items = list(range(100))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_sample_distinct(self):
        rng = SecureRandom(8)
        picked = rng.sample(range(50), 20)
        assert len(set(picked)) == 20
        assert all(0 <= x < 50 for x in picked)

    def test_token_length_and_determinism(self):
        assert len(SecureRandom(9).token(100)) == 100
        assert SecureRandom(9).token(33) == SecureRandom(9).token(33)

    def test_spawn_independent_but_deterministic(self):
        parent1, parent2 = SecureRandom(10), SecureRandom(10)
        child1, child2 = parent1.spawn("x"), parent2.spawn("x")
        assert child1.token(16) == child2.token(16)
        assert parent1.spawn("x").token(16) != parent1.spawn("y").token(16)

    def test_spawn_does_not_disturb_parent(self):
        a, b = SecureRandom(11), SecureRandom(11)
        a.spawn("anything")
        assert a.token(16) == b.token(16)

    def test_choice(self):
        rng = SecureRandom(12)
        assert rng.choice([42]) == 42
        assert rng.choice("abc") in "abc"

    def test_errors(self):
        rng = SecureRandom(13)
        with pytest.raises(CryptoError):
            rng.randrange(0)
        with pytest.raises(CryptoError):
            rng.randint(5, 4)
        with pytest.raises(CryptoError):
            rng.sample([1, 2], 3)
        with pytest.raises(CryptoError):
            rng.choice([])
        with pytest.raises(CryptoError):
            rng.token(-1)
        with pytest.raises(CryptoError):
            SecureRandom(-1)

    @settings(max_examples=50, deadline=None)
    @given(upper=st.integers(min_value=1, max_value=2**64))
    def test_randrange_property(self, upper):
        assert 0 <= SecureRandom(99).randrange(upper) < upper


class TestCipherSuite:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roundtrip(self, backend):
        suite = CipherSuite(b"master", backend=backend, rng=SecureRandom(1))
        for payload in (b"", b"x", b"hello world" * 20):
            assert suite.decrypt_page(suite.encrypt_page(payload)) == payload

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_frame_size(self, backend):
        suite = CipherSuite(b"master", backend=backend, rng=SecureRandom(2))
        frame = suite.encrypt_page(bytes(100))
        assert len(frame) == 100 + FRAME_OVERHEAD == suite.frame_size(100)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tamper_detection(self, backend):
        suite = CipherSuite(b"master", backend=backend, rng=SecureRandom(3))
        frame = bytearray(suite.encrypt_page(b"secret page content"))
        frame[len(frame) // 2] ^= 0x40
        with pytest.raises(AuthenticationError):
            suite.decrypt_page(bytes(frame))

    def test_truncated_frame(self):
        suite = CipherSuite(b"master", rng=SecureRandom(4))
        with pytest.raises(CryptoError):
            suite.decrypt_page(bytes(FRAME_OVERHEAD - 1))

    def test_fresh_nonce_per_encryption(self):
        suite = CipherSuite(b"master", backend="shake", rng=SecureRandom(5))
        frames = {suite.encrypt_page(b"same plaintext") for _ in range(50)}
        assert len(frames) == 50  # unlinkable re-encryptions

    def test_cross_key_rejection(self):
        one = CipherSuite(b"key-one", backend="shake", rng=SecureRandom(6))
        two = CipherSuite(b"key-two", backend="shake", rng=SecureRandom(7))
        with pytest.raises(AuthenticationError):
            two.decrypt_page(one.encrypt_page(b"hello"))

    def test_aes_and_shake_ciphertexts_do_not_interoperate(self):
        """Different backends produce incompatible ciphertexts (same MAC key,
        so decryption succeeds only if the keystream matches)."""
        aes = CipherSuite(b"master", backend="aes", rng=SecureRandom(8))
        shake = CipherSuite(b"master", backend="shake", rng=SecureRandom(8))
        frame = aes.encrypt_page(b"payload-123")
        # Same MAC key means the frame authenticates, but plaintext differs.
        assert shake.decrypt_page(frame) != b"payload-123"

    def test_explicit_nonce_is_testable(self):
        suite = CipherSuite(b"master", backend="shake", rng=SecureRandom(9))
        nonce = bytes(12)
        assert suite.encrypt_page(b"abc", nonce) == suite.encrypt_page(b"abc", nonce)

    def test_unknown_backend(self):
        with pytest.raises(CryptoError):
            CipherSuite(b"m", backend="rot13")

    def test_bad_explicit_nonce(self):
        suite = CipherSuite(b"m", rng=SecureRandom(10))
        with pytest.raises(CryptoError):
            suite.encrypt_page(b"x", nonce=bytes(5))

    def test_frame_size_rejects_negative(self):
        with pytest.raises(CryptoError):
            CipherSuite(b"m").frame_size(-1)

    @settings(max_examples=25, deadline=None)
    @given(payload=st.binary(max_size=300))
    def test_roundtrip_property(self, payload):
        suite = CipherSuite(b"prop", backend="shake", rng=SecureRandom(11))
        assert suite.decrypt_page(suite.encrypt_page(payload)) == payload


class TestBatchPipeline:
    """encrypt_pages/decrypt_pages: one suite entry per batch, same bytes."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_encrypt_matches_serial(self, backend):
        plaintexts = [bytes([i]) * (20 + i) for i in range(5)]
        serial = CipherSuite(b"master", backend=backend, rng=SecureRandom(40))
        batch = CipherSuite(b"master", backend=backend, rng=SecureRandom(40))
        expected = [serial.encrypt_page(p) for p in plaintexts]
        assert batch.encrypt_pages(plaintexts) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_roundtrip(self, backend):
        suite = CipherSuite(b"master", backend=backend, rng=SecureRandom(41))
        plaintexts = [f"page-{i}".encode() * (i + 1) for i in range(7)]
        frames = suite.encrypt_pages(plaintexts)
        assert suite.decrypt_pages(frames) == plaintexts
        # Batch-sealed frames also open through the per-frame path.
        assert [suite.decrypt_page(f) for f in frames] == plaintexts

    def test_batch_mac_failure_reports_all_bad_indices(self):
        suite = CipherSuite(b"master", backend="shake", rng=SecureRandom(42))
        frames = suite.encrypt_pages([b"a" * 24, b"b" * 24, b"c" * 24])
        frames[0] = frames[0][:-1] + bytes([frames[0][-1] ^ 1])
        frames[2] = frames[2][:-1] + bytes([frames[2][-1] ^ 1])
        with pytest.raises(AuthenticationError, match=r"0, 2"):
            suite.decrypt_pages(frames)

    def test_batch_rejects_short_frame(self):
        suite = CipherSuite(b"master", backend="shake", rng=SecureRandom(43))
        good = suite.encrypt_page(b"x" * 16)
        with pytest.raises(CryptoError):
            suite.decrypt_pages([good, b"\x00" * (FRAME_OVERHEAD - 1)])

    def test_empty_batch(self):
        suite = CipherSuite(b"master", backend="shake", rng=SecureRandom(44))
        assert suite.encrypt_pages([]) == []
        assert suite.decrypt_pages([]) == []

    def test_explicit_nonces(self):
        suite = CipherSuite(b"master", backend="shake", rng=SecureRandom(45))
        nonces = [bytes([i]) * 12 for i in range(3)]
        frames = suite.encrypt_pages([b"a", b"bb", b"ccc"], nonces)
        for frame, nonce in zip(frames, nonces):
            assert frame[:12] == nonce
        with pytest.raises(CryptoError):
            suite.encrypt_pages([b"a", b"b"], nonces)  # length mismatch
