"""A request is ordered and computed on the server's event-loop thread
(DESIGN.md §12, §13).

Over real sockets: the serving lock is held from the dedupe check through
the reply (a fresh reply is cached before its barrier), the semi-sync
barrier and the dedupe gate are awaited on the loop without holding it, inbound replication records never wait
for the lock, outbound ones stream from tasks on the loop, every engine
entry — a dispatch or a peer apply — is a synchronous call on that one
thread, and a kill lands between two loop steps, never inside a serve.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import sys
import threading
import warnings

import pytest

from tests.helpers import make_db, wait_until
from repro.cluster import BackendHandle, connect_replication
from repro.core.snapshot import bootstrap_replica
from repro.errors import ConfigurationError, TransientChannelError
from repro.net import NetworkClient, PirServer, ServerThread
from repro.net.endpoint import exchange_sock, open_sock
from repro.net.framing import Ping, Pong, Reply, Request, Resume, Welcome
from repro.obs import MetricsRegistry, Tracer
from repro.service import protocol
from repro.service.frontend import QueryFrontend, SealedReplyCache


@contextlib.contextmanager
def mesh(tmp_path, wait_timeout, tracers=(None, None)):
    """Two started, replicated members sharing one reply cache."""
    registry = MetricsRegistry()
    primary = make_db(tracer=tracers[0], metrics=registry.labelled(member=0))
    replica = bootstrap_replica(primary, str(tmp_path / "bootstrap"), seed=2,
                                tracer=tracers[1],
                                metrics=registry.labelled(member=1))
    cache = SealedReplyCache()
    handles = []
    try:
        for index, db in enumerate((primary, replica)):
            metrics = registry.labelled(member=index)
            frontend = QueryFrontend(
                db, metrics=metrics, reply_cache=cache,
                session_salt=f"member-{index}",
            )
            handles.append(BackendHandle(db, frontend, metrics=metrics))
            handles[-1].start()
        connect_replication(handles, wait_timeout=wait_timeout,
                            metrics=registry)
        # Semi-sync waits only for connected peers.
        assert wait_until(lambda: all(handle.repl_log.connected_peers()
                                      for handle in handles))
        yield handles, registry
    finally:
        for handle in handles:
            handle.kill()
        for db in (primary, replica):
            db.close()


def sealed_update(client, page_id, payload):
    return client._suite.encrypt_page(
        protocol.encode_client_message(protocol.Update(page_id, payload))
    )


def resumed(handle, session_id, read_timeout=30.0):
    """A second connection to ``handle``, RESUMEd into ``session_id``."""
    sock = open_sock(handle.host, handle.port, 5.0, read_timeout)
    assert isinstance(exchange_sock(sock, Resume(session_id)), Welcome)
    return sock


def in_thread(target):
    """Run ``target`` on a thread; ``outcome`` holds its result."""
    outcome = {}

    def run():
        outcome["value"] = target()

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


class TestNoDeadlock:
    def test_two_writers_under_semi_sync_never_wait_out_the_barrier(
            self, tmp_path):
        """Each member's serve awaits the other's apply: the applies must
        run while the serves wait, on the thread that serves."""
        tracers = (Tracer(), Tracer())
        writes = 10
        with mesh(tmp_path, wait_timeout=2.0,
                  tracers=tracers) as (handles, registry):
            errors = []

            def writer(index):
                base = 20 * index
                try:
                    with NetworkClient(handles[index].host,
                                       handles[index].port) as client:
                        for offset in range(writes):
                            client.update(base + offset, b"w%d-%d" % (
                                index, offset))
                except BaseException as exc:  # noqa: BLE001 - asserted
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(index,))
                       for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert errors == []
            for handle in handles:
                assert handle.repl_log.counters.get("wait_timeouts") == 0
                assert handle.repl_log.last_seq == writes
            assert wait_until(lambda: all(
                handle.repl_applier.applied_for(peer.repl_log.origin)
                == writes
                for handle in handles for peer in handles
                if peer is not handle))
            digests = {handle.db.content_digest() for handle in handles}
            assert len(digests) == 1
        for tracer, handle in zip(tracers, handles):
            assert tracer.active_depth == 0
            assert [span.name for span in tracer.spans
                    if span.error is not None] == []
            names = [span.name for span in tracer.spans]
            assert names.count("net.request") == writes
            # Every engine entry — own writes and the peer's records — is
            # a span on this one tracer.
            assert names.count("request") == handle.db.engine.request_count


def held_applies(peer):
    """Park ``peer``'s applies until ``release`` is set; ``entered`` marks
    the first one reaching the engine (parking ``peer``'s loop with it)."""
    entered, release = threading.Event(), threading.Event()
    apply = peer.repl_applier.apply

    def held_apply(*args):
        entered.set()
        assert release.wait(timeout=30)
        return apply(*args)

    peer.repl_applier.apply = held_apply
    return entered, release


def send_or_fail(sock, request):
    """``exchange_sock``, with a dropped connection as the outcome."""
    def send():
        try:
            return exchange_sock(sock, request)
        except TransientChannelError as exc:
            return exc
    return in_thread(send)


class TestDuplicateDuringBarrier:
    def test_a_retransmission_waits_out_the_barrier_then_dedupes(
            self, tmp_path):
        with mesh(tmp_path, wait_timeout=30.0) as (handles, registry):
            origin, peer = handles
            entered, release = held_applies(peer)
            client = NetworkClient(origin.host, origin.port, timeout=30.0)
            sealed = sealed_update(client, 3, b"held write")
            before = origin.db.engine.request_count
            first, original = in_thread(lambda: client._transact(1, sealed))
            # The original has dispatched and sits in its barrier.
            assert entered.wait(timeout=30)
            sock = resumed(origin, client.session_id)
            second, retransmission = in_thread(
                lambda: exchange_sock(sock, Request(1, sealed)))
            depth = registry.labelled(member=0).gauge("net.queue.depth")
            assert wait_until(lambda: depth.value == 1)
            assert first.is_alive() and second.is_alive()
            release.set()
            first.join(timeout=30)
            second.join(timeout=30)
            reply = retransmission["value"]
            assert isinstance(reply, Reply)
            assert reply.sealed == original["value"]
            assert reply.repl_seq == origin.repl_log.last_seq == 1
            assert origin.frontend.counters.get("requests.duplicate") == 1
            assert origin.db.engine.request_count == before + 1
            assert wait_until(lambda: peer.repl_applier.applied_for(
                origin.repl_log.origin) == 1)
            assert peer.repl_applier.counters.get("applied") == 1
            sock.close()
            client.close()


class TestKillMidBarrier:
    def _kill_in_barrier(self, origin, peer, client, sealed):
        """Send ``sealed``, kill ``origin`` while the write waits in its
        barrier, restart it and let the peer apply the record."""
        entered, release = held_applies(peer)
        sock = resumed(origin, client.session_id)
        sender, outcome = send_or_fail(sock, Request(1, sealed))
        # The write has dispatched, emitted and streamed; its barrier
        # waits for the peer's ack.
        assert entered.wait(timeout=30)
        origin.kill()
        sender.join(timeout=30)
        sock.close()
        assert isinstance(outcome["value"], TransientChannelError)
        origin.restart()
        release.set()

    def test_a_write_killed_in_its_barrier_is_cached_unanswered(
            self, tmp_path):
        with mesh(tmp_path, wait_timeout=30.0) as (handles, registry):
            origin, peer = handles
            client = NetworkClient(origin.host, origin.port, timeout=30.0)
            sealed = sealed_update(client, 3, b"killed write")
            applies_before = peer.db.engine.request_count
            self._kill_in_barrier(origin, peer, client, sealed)
            # Applied, so cached before its barrier: the kill took only
            # the answer.
            assert origin.frontend._reply_cache.get(client.session_id,
                                                    sealed) is not None
            assert wait_until(lambda: peer.repl_applier.applied_for(
                origin.repl_log.origin) == 1)
            # Once: a resent record 1 is a duplicate, not a second apply.
            assert peer.repl_applier.counters.get("applied") == 1
            assert peer.db.engine.request_count == applies_before + 1
            assert origin.repl_log.last_seq == 1
            client.close()

    def test_a_write_killed_in_its_barrier_is_deduped_after_restart(
            self, tmp_path):
        """The retransmission after the restart is answered from the
        cache once the barrier passes: one engine request, one record."""
        with mesh(tmp_path, wait_timeout=30.0) as (handles, registry):
            origin, peer = handles
            client = NetworkClient(origin.host, origin.port, timeout=30.0)
            sealed = sealed_update(client, 3, b"killed write")
            requests = origin.db.engine.request_count
            duplicates = origin.frontend.counters.get("requests.duplicate")
            self._kill_in_barrier(origin, peer, client, sealed)
            sock = resumed(origin, client.session_id)
            reply = exchange_sock(sock, Request(1, sealed))
            assert isinstance(reply, Reply)
            assert reply.repl_seq == 1
            assert origin.frontend.counters.get(
                "requests.duplicate") == duplicates + 1
            assert origin.db.engine.request_count == requests + 1
            assert origin.repl_log.last_seq == 1
            sock.close()
            client.close()


class TestDrainFlushesTheStreams:
    def test_drain_stops_streaming_only_after_the_barrier_passes(
            self, tmp_path):
        with mesh(tmp_path, wait_timeout=30.0) as (handles, registry):
            origin, peer = handles
            entered, release = held_applies(peer)
            client = NetworkClient(origin.host, origin.port, timeout=30.0)
            sealed = sealed_update(client, 3, b"drained write")
            sock = resumed(origin, client.session_id)
            sender, outcome = send_or_fail(sock, Request(1, sealed))
            assert entered.wait(timeout=30)
            drainer, _ = in_thread(origin.drain)
            assert wait_until(lambda: origin.server._draining)
            # Still streaming: the barrier holds the reply for the ack.
            sender.join(timeout=0.5)
            assert sender.is_alive()
            release.set()
            sender.join(timeout=30)
            drainer.join(timeout=30)
            reply = outcome["value"]
            assert isinstance(reply, Reply) and reply.repl_seq == 1
            assert peer.repl_applier.applied_for(origin.repl_log.origin) == 1
            assert origin.repl_log.counters.get("wait_timeouts") == 0
            assert origin.repl_log.connected_peers() == []
            sock.close()
            client.close()


class TestDedupeGate:
    def test_a_dedupe_of_an_unapplied_write_waits_off_the_loop(
            self, tmp_path):
        with mesh(tmp_path, wait_timeout=30.0) as (handles, registry):
            origin, peer = handles
            # The write's record stays in the origin's backlog, and the
            # barrier passes with no peer connected.
            origin.stop_replication()
            client = NetworkClient(origin.host, origin.port, timeout=30.0)
            sealed = sealed_update(client, 3, b"gated write")
            original = client._transact(1, sealed)
            assert peer.repl_applier.applied_for(origin.repl_log.origin) == 0

            # The gate's condition reads the applied mark: its first read
            # means the dedupe has reached the gate.
            gating = threading.Event()
            applied_for = peer.repl_applier.applied_for

            def watched(*args):
                gating.set()
                return applied_for(*args)

            peer.repl_applier.applied_for = watched
            sock = resumed(peer, client.session_id)
            dedupe, outcome = in_thread(
                lambda: exchange_sock(sock, Request(1, sealed)))
            assert gating.wait(timeout=30)
            # The loop answers a probe while the dedupe waits.
            probe = open_sock(peer.host, peer.port, 5.0, 5.0)
            assert isinstance(exchange_sock(probe, Ping()), Pong)
            probe.close()
            assert dedupe.is_alive()
            origin.start_replication()  # the record lands on the peer
            dedupe.join(timeout=30)
            reply = outcome["value"]
            assert isinstance(reply, Reply)
            assert reply.sealed == original
            assert reply.repl_seq == 0  # another origin's numbering
            assert peer.frontend.counters.get("requests.duplicate") == 1
            assert peer.frontend.counters.get(
                "requests.duplicate_lagged") == 0
            sock.close()
            client.close()


class TestFailedApplyIsCounted:
    def test_a_failed_apply_acks_the_old_mark_and_is_retried(self, tmp_path):
        """An apply that raises is acked at the unchanged mark and counted
        in ``net.repl.apply_errors``; the origin's stream retransmits and
        the peer applies the record on the next try."""
        with mesh(tmp_path, wait_timeout=30.0) as (handles, registry):
            origin, peer = handles
            apply = peer.repl_applier.apply
            failures = []

            def fails_once(*args):
                if not failures:
                    failures.append(args)
                    raise RuntimeError("apply broke")
                return apply(*args)

            peer.repl_applier.apply = fails_once
            origin.db.update(3, b"second try")
            assert wait_until(
                lambda: peer.repl_applier.applied_for(origin.spec.address)
                >= origin.repl_log.last_seq)
            assert len(failures) == 1
            assert peer.db.query(3) == b"second try"
            assert peer.server.counters.get("repl.apply_errors") == 1
            counters = registry.snapshot()["counters"]
            assert counters["net.repl.apply_errors"] == 1


class TestKillClosesTheLoop:
    def test_a_kill_mid_exchange_leaves_no_task_or_transport(self, tmp_path):
        """A killed member's loop ends the way ``asyncio.run`` ends one: a
        stream cancelled while it waits for an ack unwinds fully, and the
        transports closed on the way finish closing, before the loop
        closes — so nothing is left for the collector to report.  (How
        many loop turns the unwinding takes varies with the order the
        kill cancels the tasks in, so the drill runs eight times.)"""
        gc.collect()
        with mesh(tmp_path, wait_timeout=30.0) as (handles, registry):
            origin, peer = handles
            for write in range(8):
                if write:
                    origin.restart()
                # No dial is in flight when the kill lands (a connection
                # accepted in the kill's own loop turn is not this drill).
                assert wait_until(lambda: all(
                    handle.repl_log.connected_peers() for handle in handles))
                entered, release = held_applies(peer)
                loop = origin.thread._loop
                origin.db.update(3, b"emitted %d" % write)
                # The record reached the peer's engine: the origin's
                # stream waits inside ``exchange`` for its ack.
                assert entered.wait(timeout=30)
                unraisable = []
                hook = sys.unraisablehook
                sys.unraisablehook = unraisable.append
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        origin.kill()
                        release.set()
                        assert loop.is_closed()
                        assert asyncio.all_tasks(loop) == set()
                        # Every socket the loop's transports held is shut.
                        assert [transport.get_extra_info("socket").fileno()
                                for transport in loop._transports.values()
                                ] == [-1] * len(loop._transports)
                        gc.collect()
                finally:
                    sys.unraisablehook = hook
                assert [str(w.message) for w in caught] == []
                assert [str(u.exc_value) for u in unraisable] == []


class TestKillCannotSplitAServe:
    def test_a_kill_landing_mid_serve_leaves_one_engine_request(self):
        """A kill queued while a serve is in its engine pass runs only after
        the serve has cached its reply, so the retransmission after the
        restart is a dedupe: one insert, one page consumed."""
        db = make_db(reserve_fraction=0.25)
        frontend = QueryFrontend(db)
        handle = BackendHandle(db, frontend)
        entered, release = threading.Event(), threading.Event()

        def held():
            entered.set()
            assert release.wait(timeout=30)

        handle.server._serve_hook = held
        handle.start()
        client = NetworkClient(handle.host, handle.port, timeout=30.0)
        sealed = client._suite.encrypt_page(protocol.encode_client_message(
            protocol.Insert(b"inserted once")))
        requests, free = db.engine.request_count, db.cop.state.free_count
        sock = resumed(handle, client.session_id)
        sender, _ = send_or_fail(sock, Request(1, sealed))
        assert entered.wait(timeout=30)

        # The kill is queued on the loop before the engine pass returns.
        loop, slammed = handle.thread._loop, threading.Event()
        queue = loop.call_soon_threadsafe

        def spied(*args):
            scheduled = queue(*args)
            slammed.set()
            return scheduled

        loop.call_soon_threadsafe = spied
        killer, _ = in_thread(handle.kill)
        assert slammed.wait(timeout=30)
        release.set()
        killer.join(timeout=30)
        sender.join(timeout=30)
        assert wait_until(lambda: db.engine.request_count == requests + 1)
        sock.close()

        handle.restart()
        sock = resumed(handle, client.session_id)
        reply = exchange_sock(sock, Request(1, sealed))
        assert isinstance(reply, Reply)
        assert frontend.counters.get("requests.duplicate") == 1
        assert db.engine.request_count == requests + 1
        assert db.cop.state.free_count == free - 1
        sock.close()
        client.close()
        handle.kill()
        db.close()


class TestOneServingThread:
    def test_workers_other_than_one_are_refused(self):
        db = make_db()
        frontend = QueryFrontend(db)
        with pytest.raises(ConfigurationError, match="workers must be 1"):
            PirServer(frontend, workers=2)
        PirServer(frontend, workers=1)
        db.close()

    def test_every_dispatch_runs_on_the_loop_thread(self):
        db = make_db()
        frontend = QueryFrontend(db)
        server = PirServer(frontend)
        dispatched_on = []
        server._serve_hook = lambda: dispatched_on.append(
            threading.current_thread())
        before = set(threading.enumerate())
        with ServerThread(server) as handle:
            started = set(threading.enumerate()) - before
            assert [thread.name for thread in started] == ["pir-server"]
            with NetworkClient(handle.host, handle.port) as client:
                client.update(1, b"one thread")
                assert client.query(1) == b"one thread"
            assert set(threading.enumerate()) - before == started
        assert dispatched_on == list(started) * 2
        # Drain ends it.
        assert not any(thread.is_alive() for thread in started)
        db.close()

    def test_a_replicated_member_streams_from_its_loop(self, tmp_path):
        """Per member only the loop: no engine thread, no thread per peer,
        and none for the semi-sync barrier or the dedupe gate."""
        before = set(threading.enumerate())
        with mesh(tmp_path, wait_timeout=30.0) as (handles, registry):
            origin, peer = handles
            ran_on = []
            origin.server._serve_hook = lambda: ran_on.append(
                ("dispatch", threading.current_thread()))
            apply = peer.repl_applier.apply

            def watched(*args):
                ran_on.append(("apply", threading.current_thread()))
                return apply(*args)

            peer.repl_applier.apply = watched
            with NetworkClient(origin.host, origin.port) as client:
                client.update(1, b"streamed")
            # Already: the reply waited in its barrier for the peer.
            assert peer.repl_applier.applied_for(origin.repl_log.origin) == 1
            names = sorted(thread.name
                           for thread in set(threading.enumerate()) - before)
            assert set(ran_on) == {("dispatch", origin.thread._thread),
                                   ("apply", peer.thread._thread)}
        assert names == ["pir-server", "pir-server"]
