"""Untrusted storage substrate: pages, disk, timing model and access trace."""

from .disk import DiskStore, StoreWrapper
from .filedisk import FileDiskStore
from .merkle import AuthenticatedDisk, MerkleTree
from .page import DUMMY_ID, FLAG_DELETED, HEADER_SIZE, Page
from .tiered import MEMORY_TIER_TIMING, TieredDiskStore
from .timing import DiskTimingModel
from .trace import READ, WRITE, AccessEvent, AccessTrace, shapes_identical

__all__ = [
    "DiskStore",
    "StoreWrapper",
    "FileDiskStore",
    "TieredDiskStore",
    "MEMORY_TIER_TIMING",
    "AuthenticatedDisk",
    "MerkleTree",
    "DUMMY_ID",
    "FLAG_DELETED",
    "HEADER_SIZE",
    "Page",
    "DiskTimingModel",
    "READ",
    "WRITE",
    "AccessEvent",
    "AccessTrace",
    "shapes_identical",
]
