"""Shared helpers for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from repro import PirDatabase
from repro.baselines import make_records
from repro.core.journal import MemoryJournal


def make_db(
    num_records: int = 40,
    cache_capacity: int = 8,
    target_c: float = 2.0,
    page_capacity: int = 16,
    seed: int = 1,
    **options,
) -> PirDatabase:
    """Build a small database over deterministic records."""
    return PirDatabase.create(
        make_records(num_records, min(16, page_capacity)),
        cache_capacity=cache_capacity,
        target_c=target_c,
        page_capacity=page_capacity,
        seed=seed,
        **options,
    )


def rows(frames) -> list:
    """A frame matrix (what a range read returns) as a list of ``bytes`` rows."""
    return [bytes(row) for row in frames]


class RecordingJournal(MemoryJournal):
    """Keeps every sealed record written to it, in ``blobs``."""

    def __init__(self):
        super().__init__()
        self.blobs = []

    def write(self, blob):
        self.blobs.append(bytes(blob))
        super().write(blob)
