"""Message authentication for encrypted pages.

The server is modelled as honest-but-curious (Section 3.2), but a production
deployment must still detect accidental corruption and keep the option of
hardening against active tampering, so every page frame carries an
encrypt-then-MAC tag.  HMAC-SHA256 (RFC 2104) is implemented here from the
``hashlib`` primitive rather than ``hmac`` to keep the construction explicit
and testable against RFC 4231 vectors; only the constant-time tag comparison
is the standard library's (``hmac.compare_digest``).
"""

from __future__ import annotations

import hashlib
from hmac import compare_digest

from ..errors import CryptoError

__all__ = ["hmac_sha256", "verify_hmac", "TAG_SIZE"]

TAG_SIZE = 16  # bytes; tags are truncated to 128 bits in page frames

_BLOCK = 64  # SHA-256 block size in bytes
_IPAD = bytes(0x36 for _ in range(_BLOCK))
_OPAD = bytes(0x5C for _ in range(_BLOCK))


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return the full 32-byte HMAC-SHA256 tag of ``message`` under ``key``."""
    if not key:
        raise CryptoError("HMAC key must be non-empty")
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    inner_key = bytes(k ^ p for k, p in zip(key, _IPAD))
    outer_key = bytes(k ^ p for k, p in zip(key, _OPAD))
    inner = hashlib.sha256(inner_key + message).digest()
    return hashlib.sha256(outer_key + inner).digest()


def verify_hmac(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time comparison of ``tag`` against the (possibly truncated) MAC."""
    if not tag:
        return False
    # A tag longer than the full MAC compares unequal (lengths differ).
    return compare_digest(hmac_sha256(key, message)[: len(tag)], tag)
