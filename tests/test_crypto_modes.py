"""CTR mode: NIST SP 800-38A F.5 vectors and stream properties.

Also the FIPS 202 SHAKE-256 vectors the ``shake`` suite backend rests on.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import NONCE_SIZE, ctr_transform
from repro.errors import CryptoError

# SP 800-38A F.5.1 uses a full 16-byte initial counter block; our API splits
# it into a 12-byte nonce and a 4-byte counter, so the vector's counter block
# f0f1...fb | fcfdfeff maps to nonce=f0..fb, initial_counter=0xfcfdfeff.
_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafb")
_COUNTER = 0xFCFDFEFF
_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
_CIPHER = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)


class TestNistVectors:
    def test_sp800_38a_f51_encrypt(self):
        cipher = AES(_KEY)
        assert ctr_transform(cipher, _NONCE, _PLAIN, _COUNTER) == _CIPHER

    def test_sp800_38a_f51_decrypt(self):
        cipher = AES(_KEY)
        assert ctr_transform(cipher, _NONCE, _CIPHER, _COUNTER) == _PLAIN

    def test_sp800_38a_f55_aes256_ctr(self):
        key = bytes.fromhex(
            "603deb1015ca71be2b73aef0857d7781"
            "1f352c073b6108d72d9810a30914dff4"
        )
        cipher = AES(key)
        ciphertext = ctr_transform(cipher, _NONCE, _PLAIN, _COUNTER)
        assert ciphertext == bytes.fromhex(
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988d"
            "dfc9c58db67aada613c2dd08457941a6"
        )

    def test_sp800_38a_f53_aes192_ctr(self):
        key = bytes.fromhex(
            "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b"
        )
        cipher = AES(key)
        ciphertext = ctr_transform(cipher, _NONCE, _PLAIN, _COUNTER)
        assert ciphertext == bytes.fromhex(
            "1abc932417521ca24f2b0459fe7e6e0b"
            "090339ec0aa6faefd5ccc2c6f4ce8e94"
            "1e36b26bd1ebc670d1bd1d665620abf7"
            "4f78a7f6d29809585a97daec58c6b050"
        )

    @pytest.mark.parametrize("message, output", [
        # FIPS 202 example values: the empty message and 1600 bits of 0xA3.
        (b"", "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
              "d75dc4ddd8c0f200cb05019d67b592f6fc821c49479ab48640292eacb3b7c4be"),
        (b"\xa3" * 200,
         "cd8a920ed141aa0407a22d59288652e9d9f1a7ee0c1e7c1ca699424da84a904d"
         "2d700caae7396ece96604440577da4f3aa22aeb8857f961c4cd8e06f0ae6610b"),
    ], ids=["empty", "1600-bit"])
    def test_fips202_shake256(self, message, output):
        """One-shot, and the way CipherSuite calls it: a pre-absorbed prefix
        ``copy()``-ed, the last 12 bytes absorbed, a longer squeeze."""
        expected = bytes.fromhex(output)
        assert hashlib.shake_256(message).digest(64) == expected
        split = max(len(message) - NONCE_SIZE, 0)
        base = hashlib.shake_256(message[:split])
        for width in (0, 1, 64, 1037):
            row = base.copy()
            row.update(message[split:])
            assert row.digest(width)[:64] == expected[:width]

    def test_partial_block_prefix(self):
        """CTR on a prefix equals the prefix of CTR on the whole message."""
        cipher = AES(_KEY)
        for cut in (1, 15, 16, 17, 63):
            out = ctr_transform(cipher, _NONCE, _PLAIN[:cut], _COUNTER)
            assert out == _CIPHER[:cut]


class TestStreamProperties:
    def test_involution(self):
        cipher = AES(bytes(16))
        nonce = bytes(NONCE_SIZE)
        data = b"The quick brown fox jumps over the lazy dog"
        assert ctr_transform(cipher, nonce, ctr_transform(cipher, nonce, data)) == data

    def test_empty_message(self):
        cipher = AES(bytes(16))
        assert ctr_transform(cipher, bytes(NONCE_SIZE), b"") == b""

    def test_distinct_nonces_give_distinct_streams(self):
        cipher = AES(bytes(16))
        zeros = bytes(64)
        one = ctr_transform(cipher, bytes(NONCE_SIZE), zeros)
        other = ctr_transform(cipher, b"\x01" + bytes(NONCE_SIZE - 1), zeros)
        assert one != other

    def test_counter_seek_matches_offset(self):
        """Starting at counter c equals skipping c blocks of the stream."""
        cipher = AES(bytes(16))
        nonce = bytes(NONCE_SIZE)
        zeros = bytes(96)
        whole = ctr_transform(cipher, nonce, zeros)
        tail = ctr_transform(cipher, nonce, bytes(32), initial_counter=4)
        assert tail == whole[64:96]

    @settings(max_examples=30, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_roundtrip_property(self, data):
        cipher = AES(b"0123456789abcdef")
        nonce = b"nonce-12byte"
        assert len(nonce) == NONCE_SIZE
        assert ctr_transform(cipher, nonce, ctr_transform(cipher, nonce, data)) == data


class TestErrors:
    def test_bad_nonce_size(self):
        with pytest.raises(CryptoError):
            ctr_transform(AES(bytes(16)), bytes(11), b"x")

    def test_negative_counter(self):
        with pytest.raises(CryptoError):
            ctr_transform(AES(bytes(16)), bytes(NONCE_SIZE), b"x", initial_counter=-1)

    def test_counter_overflow(self):
        with pytest.raises(CryptoError):
            ctr_transform(
                AES(bytes(16)), bytes(NONCE_SIZE), bytes(32),
                initial_counter=2**32 - 1,
            )
