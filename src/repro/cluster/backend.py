"""Cluster backends: replica bootstrap, restart, and test harness.

A cluster backend is an ordinary :class:`~repro.net.server.PirServer`
configured for membership in a routed tier:

* ``adopt_sessions=True`` — a failed-over RESUME for a session it has
  never seen installs the session suite (derivable from the id) instead
  of refusing;
* its :class:`~repro.service.frontend.QueryFrontend` shares reply-cache
  visibility with its peers, so a retransmission the *old* backend
  already applied and acknowledged is answered from cache, not
  re-executed — the exactly-once half of failover;
* its database is either the primary or a read replica bootstrapped via
  :func:`~repro.core.snapshot.bootstrap_replica` (one snapshot, N
  restores, independent serving lineages).

:class:`BackendHandle` adds the two lifecycle verbs the chaos drills
need — ``kill()`` (abrupt, mid-anything) and ``restart()`` (fresh server
process-equivalent on the same port and engine) — and
:func:`build_cluster` stands up a primary plus replicas in-process for
tests and benchmarks.  :func:`connect_replication` wires started members
into a sealed replication mesh; each member's streams to its peers are
tasks on its own server's event loop, so they live and die with it.  A
production deployment runs one ``python -m repro cluster serve-backend``
per machine instead.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from .membership import BackendSpec
from .replication import ReplicationApplier, ReplicationLog
from ..core.database import PER_MEMBER_WIRING, SHARED_WIRING, PirDatabase
from ..core.snapshot import bootstrap_replica, load_snapshot
from ..errors import ConfigurationError
from ..net.server import PirServer, ServerThread
from ..obs.registry import registry_or_private
from ..service.frontend import QueryFrontend, SealedReplyCache

__all__ = ["BackendHandle", "build_cluster", "connect_replication"]


class BackendHandle:
    """One in-process cluster backend: engine + frontend + server thread.

    The engine and frontend survive :meth:`kill`; :meth:`restart` wraps
    them in a fresh :class:`PirServer` bound to the *same* port, which is
    how the chaos tests model a crashed process coming back on its
    advertised address.
    """

    def __init__(self, db: PirDatabase, frontend: QueryFrontend,
                 metrics=None):
        self.db = db
        self.frontend = frontend
        self.metrics = metrics
        self.server = PirServer(frontend, adopt_sessions=True,
                                metrics=metrics)
        self.thread: Optional[ServerThread] = None
        # Sealed write replication (see connect_replication): the log and
        # applier belong to the *engine* side and survive kill/restart,
        # exactly like the frontend; the streams belong to the server's
        # loop and die and restart with it.
        self.repl_log: Optional[ReplicationLog] = None
        self.repl_applier: Optional[ReplicationApplier] = None
        self._repl_peers: list = []

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def spec(self) -> BackendSpec:
        return BackendSpec(self.server.host, self.server.port)

    def start(self) -> "BackendHandle":
        if self.thread is not None:
            raise ConfigurationError("backend already started")
        self.thread = ServerThread(self.server).start()
        return self

    # -- replication lifecycle -------------------------------------------------

    def attach_replication(self, log: ReplicationLog,
                           applier: ReplicationApplier,
                           peer_addresses: Sequence[str]) -> None:
        """Wire this member into the sealed replication mesh.

        The database starts emitting one sealed record per request into
        ``log``, and the server starts answering peers' REPL connections
        through ``applier`` and stamping each reply with the sequence it
        waited on.  Call :meth:`start_replication` (or
        :func:`connect_replication`, which does both) to begin streaming
        to ``peer_addresses``.
        """
        self.repl_log = log
        self.repl_applier = applier
        self._repl_peers = list(peer_addresses)
        self.db.replication = log
        self.server.attach_replication(log, applier)

    def start_replication(self) -> None:
        """(Re)start one stream per peer on the running server's loop."""
        if self.thread is not None and self.repl_log is not None:
            self.thread.call(self.server.stream_to(self._repl_peers))

    def stop_replication(self) -> None:
        """Stop streaming; peers are then not waited on (a partition)."""
        if self.thread is not None:
            self.thread.call(self.server.stream_to(()))

    def kill(self) -> None:
        """Crash the serving process-equivalent; engine state survives."""
        if self.thread is not None:
            self.thread.kill()
            self.thread = None

    def drain(self) -> None:
        """Graceful stop (the rolling-restart path).

        The streams run until every in-flight serve is done, so the
        backlog still flushes to peers behind pending barriers.
        """
        if self.thread is not None:
            self.thread.drain()
            self.thread = None

    def restart(self) -> "BackendHandle":
        """Come back on the same port after a kill or drain.

        A fresh :class:`PirServer` (a drained or killed one has closed
        its listener for good); the frontend — sessions, reply cache — carries
        over, exactly as a restarted process reloads its persistent
        state.
        """
        if self.thread is not None:
            raise ConfigurationError("backend still running; kill it first")
        self.server = PirServer(
            self.frontend, host=self.server.host, port=self.server.port,
            adopt_sessions=True, metrics=self.metrics,
        )
        if self.repl_log is not None and self.repl_applier is not None:
            # Same log + applier: the restarted member resumes emitting
            # where it left off and remembers how far it applied each
            # peer, so the catch-up handshakes replay only what it missed.
            self.server.attach_replication(self.repl_log, self.repl_applier)
        self.thread = ServerThread(self.server).start()
        if self.repl_log is not None:
            self.start_replication()
        return self

    def stop(self) -> None:
        self.kill()

    def __enter__(self) -> "BackendHandle":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.kill()


def build_cluster(
    records: Sequence[bytes],
    replicas: int,
    snapshot_dir: str,
    cache_capacity: int = 8,
    seed: int = 1,
    metrics=None,
    **create_kw,
) -> List[BackendHandle]:
    """Stand up a primary plus ``replicas - 1`` read replicas, unstarted.

    One database is created from ``records``; the rest are bootstrapped
    from its snapshot (written under ``snapshot_dir``), so all members
    answer queries identically.  Every frontend shares one
    :class:`SealedReplyCache` — in-process stand-in for the shared cache
    a real deployment would host — giving the cluster exactly-once
    semantics across failover (DESIGN.md §13).

    ``create_kw`` goes to :meth:`PirDatabase.create`.  A snapshot holds
    no wiring, so every wiring keyword that is a value
    (:data:`~repro.core.database.SHARED_WIRING`: spec, trace switch, hot
    tier, freshness layer, ...) is handed to every replica too — a
    failover target is the instance the operator configured, not a bare
    one.  ``metrics`` is shared, labelled per member: member ``i``'s
    database, frontend and server count into ``metrics.labelled(member=i)``
    (a private registry when None), so one snapshot gives the cluster
    total and every member's own series.  The keywords that name one
    instance's own object (:data:`~repro.core.database.PER_MEMBER_WIRING`)
    are refused: assemble such members from ``PirDatabase.create`` +
    ``bootstrap_replica``.

    Callers start the handles (``handle.start()``), build a
    :class:`~repro.cluster.router.ClusterRouter` over
    ``[h.spec for h in handles]``, and own the snapshot directory's
    lifetime.
    """
    if replicas < 1:
        raise ConfigurationError("a cluster needs at least one backend")
    unshareable = [key for key in PER_MEMBER_WIRING if key in create_kw]
    if unshareable:
        raise ConfigurationError(
            f"build_cluster cannot give {', '.join(unshareable)} to "
            f"{replicas} members: each names one instance's own object"
        )
    metrics = registry_or_private(metrics)
    primary = PirDatabase.create(
        records, cache_capacity=cache_capacity, seed=seed,
        metrics=metrics.labelled(member=0), **create_kw
    )
    databases = [primary]
    if replicas > 1:
        restore_kw = {key: create_kw[key]
                      for key in SHARED_WIRING if key in create_kw}
        directory = os.path.join(snapshot_dir, "bootstrap")
        databases.append(bootstrap_replica(primary, directory, seed=seed + 1,
                                           metrics=metrics.labelled(member=1),
                                           **restore_kw))
        for index in range(2, replicas):
            databases.append(load_snapshot(
                directory, seed=seed + index,
                metrics=metrics.labelled(member=index), **restore_kw))
    shared_cache = SealedReplyCache()
    handles = []
    for index, db in enumerate(databases):
        # Distinct salt per member: session ids come from the database's
        # seeded RNG tree, and ids must be unique cluster-wide (the id is
        # the key-agreement input; see QueryFrontend).  The replica seeds
        # above already differ, but the salt keeps that guarantee even if
        # a caller bootstraps members with identical seeds.
        member_metrics = metrics.labelled(member=index)
        frontend = QueryFrontend(
            db, metrics=member_metrics, reply_cache=shared_cache,
            session_salt=f"member-{index}",
        )
        handles.append(BackendHandle(db, frontend, metrics=member_metrics))
    return handles


def connect_replication(
    handles: Sequence[BackendHandle],
    cover_traffic: bool = True,
    durable_dir: Optional[str] = None,
    origins: Optional[Sequence[str]] = None,
    wait_timeout: float = 5.0,
    metrics=None,
) -> None:
    """Wire *started* backends into a full replication mesh and stream.

    Every member gets a :class:`ReplicationLog` keyed by its advertised
    address (the origin peers track), a :class:`ReplicationApplier`, and
    one stream per peer on its server's loop.  Call after
    ``handle.start()`` — the origin identity is the bound ``host:port``, so
    ports must be known.

    ``origins`` overrides the per-member origin identity.  The origin is
    an opaque stream name, but the router's read-your-writes gate asks
    failover candidates for their applied mark *by the address it knows
    the member under* — so whenever the router is configured with
    addresses other than the bound ones (a chaos proxy standing in for a
    member, a NAT'd deployment), pass those advertised addresses here.

    ``cover_traffic`` is the privacy-vs-cost dial: True (default) emits a
    sealed cover record for every read so the stream leaks only request
    counts; False replicates writes only, cheaper but read/write-mix
    visible to the host.  ``durable_dir`` persists each member's backlog
    (``repl-<i>.log``) so an acknowledged write survives a full process
    crash, not just a thread death.  ``metrics`` is shared, labelled
    ``member=<index>`` per handle as in :func:`build_cluster`.
    """
    metrics = registry_or_private(metrics)
    for handle in handles:
        if handle.port == 0:
            raise ConfigurationError(
                "connect_replication needs started backends (port 0 means "
                "the listener is not bound yet)"
            )
    if origins is not None and len(origins) != len(handles):
        raise ConfigurationError(
            "origins must name every backend exactly once"
        )
    real = [handle.spec.address for handle in handles]
    names = list(origins) if origins is not None else real
    for index, handle in enumerate(handles):
        path = (os.path.join(durable_dir, f"repl-{index}.log")
                if durable_dir is not None else None)
        member_metrics = metrics.labelled(member=index)
        log = ReplicationLog(
            handle.db.cop, origin=names[index],
            cover_traffic=cover_traffic, path=path,
            wait_timeout=wait_timeout, metrics=member_metrics,
        )
        applier = ReplicationApplier(handle.db, metrics=member_metrics)
        # Streamers always dial the *bound* peer addresses; origins are
        # identities, not dial targets.
        peers = [real[j] for j in range(len(handles)) if j != index]
        handle.attach_replication(log, applier, peers)
    for handle in handles:
        handle.start_replication()
