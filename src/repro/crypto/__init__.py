"""Cryptographic substrate: AES, CTR mode, HMAC, HKDF, PRG, page framing.

The paper's prototype relies on Crypto++ inside an IBM 4764 coprocessor; this
package is the equivalent built from scratch (see DESIGN.md §3).  Most callers
only need :class:`~repro.crypto.suite.CipherSuite` and
:class:`~repro.crypto.rng.SecureRandom`.
"""

from .aes import AES, BLOCK_SIZE, default_accel, set_default_accel
from .kdf import derive_key, hkdf_expand, hkdf_extract
from .mac import TAG_SIZE, hmac_sha256, verify_hmac
from .modes import NONCE_SIZE, ctr_keystream, ctr_keystream_batch, ctr_transform
from .rng import SecureRandom
from .sha256 import Sha256, sha256
from .suite import BACKENDS, FRAME_OVERHEAD, CipherSuite

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "default_accel",
    "set_default_accel",
    "derive_key",
    "hkdf_expand",
    "hkdf_extract",
    "TAG_SIZE",
    "hmac_sha256",
    "verify_hmac",
    "NONCE_SIZE",
    "ctr_keystream",
    "ctr_keystream_batch",
    "ctr_transform",
    "SecureRandom",
    "Sha256",
    "sha256",
    "BACKENDS",
    "FRAME_OVERHEAD",
    "CipherSuite",
]
