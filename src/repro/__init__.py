"""repro — c-approximate secure-hardware PIR.

A full reimplementation of Bakiras & Nikolopoulos, *Adjusting the Trade-Off
between Privacy Guarantees and Computational Cost in Secure Hardware PIR*
(SDM @ VLDB 2011): constant-time private page retrieval whose privacy level
``c`` is tunable against computational cost via the block size ``k`` (Eq. 6).

Quickstart::

    from repro import PirDatabase

    db = PirDatabase.create(records, cache_capacity=64, target_c=2.0)
    payload = db.query(42)          # private retrieval
    db.update(42, b"new bytes")     # trace-identical to a query
    new_id = db.insert(b"fresh")    # consumes a reserved free slot
    db.delete(7)

Sub-packages: :mod:`repro.core` (the scheme), :mod:`repro.analysis`
(privacy + cost models reproducing the paper's figures),
:mod:`repro.baselines` (trivial PIR, Wang et al., square-root ORAM),
:mod:`repro.twoparty` (the outsourcing deployment of §5/Figure 7),
:mod:`repro.index` (private B+-tree / spatial queries), plus the substrates
:mod:`repro.crypto`, :mod:`repro.storage`, :mod:`repro.hardware`,
:mod:`repro.shuffle`, :mod:`repro.workload`, :mod:`repro.sim`.
"""

from importlib import import_module

from .errors import (
    AuthenticationError,
    CapacityError,
    ConfigurationError,
    CryptoError,
    DegradedServiceError,
    PageDeletedError,
    PageNotFoundError,
    ProtocolError,
    RecoveryError,
    ReproError,
    StorageError,
    TransientChannelError,
    TransientStorageError,
)

# Where the other top-level names live.  They are imported on first use
# (PEP 562), so importing one subpackage — the crypto lane worker imports
# only ``repro.crypto`` — does not build the whole library.
_LAZY = {
    "PirDatabase": ".core.database",
    "RetrievalEngine": ".core.engine",
    "SystemParameters": ".core.params",
    "achieved_privacy": ".core.params",
    "required_block_size": ".core.params",
    "IBM_4764": ".hardware.specs",
    "HardwareSpec": ".hardware.specs",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "PirDatabase",
    "RetrievalEngine",
    "SystemParameters",
    "achieved_privacy",
    "required_block_size",
    "AuthenticationError",
    "CapacityError",
    "ConfigurationError",
    "CryptoError",
    "DegradedServiceError",
    "PageDeletedError",
    "PageNotFoundError",
    "ProtocolError",
    "RecoveryError",
    "ReproError",
    "StorageError",
    "TransientChannelError",
    "TransientStorageError",
    "IBM_4764",
    "HardwareSpec",
    "__version__",
]
