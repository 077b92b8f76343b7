"""Shared helpers for the test suite (importable, unlike conftest)."""

from __future__ import annotations

import contextlib
import time

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


def split_sealed(blob: bytes) -> tuple:
    """``(head, sealed trusted state)`` of a suspend blob (a snapshot's
    ``sealed.bin``): the parameters' JSON behind its length prefix, then
    the suite's frame."""
    length = int.from_bytes(blob[:4], "big")
    return blob[4 : 4 + length], blob[4 + length :]


def join_sealed(head: bytes, sealed: bytes) -> bytes:
    """The suspend blob of ``head`` and ``sealed``: :func:`split_sealed`
    undone."""
    return len(head).to_bytes(4, "big") + head + sealed


class RecordingJournal(MemoryJournal):
    """Keeps every sealed record written to it, in ``blobs``."""

    def __init__(self):
        super().__init__()
        self.blobs = []

    def write(self, blob):
        self.blobs.append(bytes(blob))
        super().write(blob)


def wait_until(predicate, timeout=10.0, interval=0.02):
    """Poll ``predicate`` every ``interval`` seconds until it holds or
    ``timeout`` passes; returns its last value.  The suite's one poll."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class FrontDoor:
    """A live envelope endpoint: ``endpoint`` is the ``PirServer`` or
    ``ClusterRouter`` clients dial, ``sessions()`` how many it holds."""

    def __init__(self, endpoint, handle, sessions):
        self.endpoint = endpoint
        self.host, self.port = handle.host, handle.port
        self.sessions = sessions


FRONT_DOORS = ("server", "router")


@contextlib.contextmanager
def front_door(kind, tmp_path, metrics=None):
    """One ``PirServer`` (``"server"``) or a ``ClusterRouter`` over two
    backends (``"router"``), over the ``make_records(40, 16)`` database."""
    from repro.cluster import ClusterRouter, RouterThread, build_cluster
    from repro.net import PirServer, ServerThread
    from repro.service.frontend import QueryFrontend

    if kind == "server":
        db = make_db(metrics=metrics)
        frontend = QueryFrontend(db, metrics=metrics)
        server = PirServer(frontend, metrics=metrics)
        try:
            with ServerThread(server) as handle:
                yield FrontDoor(server, handle,
                                lambda: frontend.session_count)
        finally:
            db.close()
        return
    backends = build_cluster(make_records(40, 16), 2, str(tmp_path),
                             metrics=metrics, page_capacity=16, target_c=2.0)
    try:
        for backend in backends:
            backend.start()
        router = ClusterRouter(
            [backend.spec for backend in backends], probe_interval=0.05,
            probe_timeout=1.0, connect_timeout=1.0, backend_timeout=5.0,
            metrics=metrics,
        )
        with RouterThread(router) as handle:
            # Load slots held: one per routed session once the dust settles.
            yield FrontDoor(router, handle, lambda: sum(
                state.pinned for state in router.membership.members))
    finally:
        for backend in backends:
            backend.kill()
        for backend in backends:
            backend.db.close()
