"""Secure-hardware substrate: platform specs, cache, trusted state, coprocessor."""

from .cache import LRU_POLICY, RANDOM_POLICY, PageCache
from .coprocessor import SecureCoprocessor, SecureStorageReport
from .specs import GIGABYTE, IBM_4764, MEGABYTE, HardwareSpec
from .trusted import PageLocation, TrustedState

__all__ = [
    "LRU_POLICY",
    "RANDOM_POLICY",
    "PageCache",
    "SecureCoprocessor",
    "SecureStorageReport",
    "PageLocation",
    "TrustedState",
    "GIGABYTE",
    "IBM_4764",
    "MEGABYTE",
    "HardwareSpec",
]
