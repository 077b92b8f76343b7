"""Network chaos drills: the serving stack through a fault-injecting proxy.

Every test interposes :class:`~repro.faults.netchaos.ChaosProxy` between
a real :class:`~repro.net.client.NetworkClient` and a real
:class:`~repro.net.server.PirServer`, arms a deterministic fault plan,
and asserts exact end-to-end outcomes: the client's reconnect-and-resume
kicks in, retransmissions dedupe through the reply cache, and no
acknowledged operation is lost or double-applied.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import warnings

import pytest

from tests.helpers import make_db
from repro.baselines import make_records
from repro.errors import NetTimeoutError, TransientChannelError
from repro.faults import (
    SITE_NET_C2S,
    SITE_NET_S2C,
    ChaosProxy,
    ChaosProxyThread,
    FaultInjector,
    delay_frames,
    drop_replies,
    partial_writes,
    reset_connections,
)
from repro.net import NetworkClient, PirServer, ServerThread
from repro.obs import MetricsRegistry
from repro.service.frontend import QueryFrontend

RECORDS = make_records(40, 16)

#: s2c frames before the first request's reply: the WELCOME handshake.
HANDSHAKE_S2C = 1


@contextlib.contextmanager
def chaotic_serving(injector, fragment_bytes=None, client_kw=None,
                    metrics=None):
    """client -> ChaosProxy -> PirServer over a fresh seeded database."""
    db = make_db(metrics=metrics) if metrics is not None else make_db()
    try:
        frontend = QueryFrontend(db, metrics=metrics)
        with ServerThread(PirServer(frontend, metrics=metrics)) as server:
            proxy = ChaosProxy(server.host, server.port, injector,
                               fragment_bytes=fragment_bytes,
                               metrics=metrics)
            with ChaosProxyThread(proxy) as chaos:
                kw = dict(timeout=5.0, read_timeout=1.0)
                kw.update(client_kw or {})
                client = NetworkClient(chaos.host, chaos.port, **kw)
                try:
                    yield client, frontend, proxy
                finally:
                    with contextlib.suppress(TransientChannelError,
                                             NetTimeoutError):
                        client.close()
    finally:
        db.close()


class TestDroppedReplies:
    def test_lost_reply_retransmits_and_dedupes(self):
        """The canonical at-least-once drill: the server applies an
        update and ACKs, the ACK is eaten, the client retransmits, the
        reply cache answers without re-applying."""
        injector = FaultInjector(seed=5, plans=[
            drop_replies(times=1, after=HANDSHAKE_S2C),
        ])
        with chaotic_serving(injector) as (client, frontend, proxy):
            client.update(3, b"exactly once")  # its reply is the drop
            assert client.query(3) == b"exactly once"
            assert client.counters.get("reconnects") == 1
            assert client.counters.get("retransmits") == 1
            assert frontend.counters.get("requests.duplicate") == 1
            assert proxy.counters.get("dropped") == 1

    def test_insert_reply_lost_applies_once(self):
        injector = FaultInjector(seed=6, plans=[
            drop_replies(times=1, after=HANDSHAKE_S2C),
        ])
        with chaotic_serving(injector) as (client, frontend, proxy):
            engine = frontend.database.engine
            before = engine.request_count
            new_id = client.insert(b"inserted once")
            # The retransmission was answered from cache: exactly one
            # engine-level request happened for the insert.
            assert engine.request_count == before + 1
            assert frontend.counters.get("requests.duplicate") == 1
            assert client.query(new_id) == b"inserted once"


class TestConnectionResets:
    def test_reset_mid_session_resumes_transparently(self):
        injector = FaultInjector(seed=7, plans=[
            reset_connections(site=SITE_NET_S2C, times=1,
                              after=HANDSHAKE_S2C + 1),
        ])
        with chaotic_serving(injector) as (client, frontend, proxy):
            assert client.query(1) == RECORDS[1]
            # This transmission (or its reply) dies with the connection.
            assert client.query(2) == RECORDS[2]
            assert client.query(3) == RECORDS[3]
            assert client.counters.get("reconnects") == 1
            assert proxy.counters.get("resets") == 1
            # One session throughout: RESUME re-attached, HELLO count
            # stays at the original handshake.
            assert frontend.counters.get("sessions") == 1

    def test_c2s_reset_retransmits_request(self):
        injector = FaultInjector(seed=8, plans=[
            reset_connections(site=SITE_NET_C2S, times=1, after=2),
        ])
        with chaotic_serving(injector) as (client, frontend, proxy):
            assert client.query(4) == RECORDS[4]
            assert client.query(5) == RECORDS[5]
            assert client.query(6) == RECORDS[6]
            assert client.counters.get("reconnects") == 1


class TestTornFrames:
    def test_partial_reply_write_recovers(self):
        """Half a reply frame then a hard reset: the client must junk the
        torn bytes with the connection and retransmit afresh."""
        injector = FaultInjector(seed=9, plans=[
            partial_writes(site=SITE_NET_S2C, times=1,
                           after=HANDSHAKE_S2C),
        ])
        with chaotic_serving(injector) as (client, frontend, proxy):
            client.update(7, b"torn but true")
            assert client.query(7) == b"torn but true"
            assert proxy.counters.get("partials") == 1
            assert client.counters.get("reconnects") == 1
            assert frontend.counters.get("requests.duplicate") == 1


class TestDelaysAndFragmentation:
    def test_delayed_frames_only_slow_things_down(self):
        injector = FaultInjector(seed=10, plans=[
            delay_frames(0.05, site=SITE_NET_C2S, times=2, after=0),
        ])
        with chaotic_serving(injector) as (client, frontend, proxy):
            for page_id in range(4):
                assert client.query(page_id) == RECORDS[page_id]
            assert client.counters.get("reconnects") == 0
            assert proxy.counters.get("delayed") == 2

    def test_chaos_with_fragmentation_composes(self):
        """Byte-fragmented delivery plus a dropped reply in one run."""
        injector = FaultInjector(seed=11, plans=[
            drop_replies(times=1, after=HANDSHAKE_S2C + 2),
        ])
        with chaotic_serving(injector, fragment_bytes=5) as (
                client, frontend, proxy):
            for page_id in range(5):
                assert client.query(page_id) == RECORDS[page_id]
            assert client.counters.get("retransmits") == 1


class TestDeterminism:
    def test_same_seed_same_chaos_schedule(self):
        """Two runs with identical seeds produce identical fault counts
        and identical client recovery behaviour."""
        def run():
            injector = FaultInjector(seed=21, plans=[
                drop_replies(probability=0.5, times=2,
                             after=HANDSHAKE_S2C),
            ])
            with chaotic_serving(injector) as (client, frontend, proxy):
                for page_id in range(8):
                    assert client.query(page_id) == RECORDS[page_id]
                return (
                    proxy.counters.get("dropped"),
                    client.counters.get("retransmits"),
                    frontend.counters.get("requests.duplicate"),
                )

        first = run()
        second = run()
        assert first == second
        assert first[0] > 0  # the plan actually fired

    def test_metrics_registry_carries_chaos_counters(self):
        registry = MetricsRegistry()
        injector = FaultInjector(seed=22, plans=[
            drop_replies(times=1, after=HANDSHAKE_S2C),
        ])
        with chaotic_serving(injector, metrics=registry) as (
                client, frontend, proxy):
            client.query(0)
        snapshot = registry.snapshot()["counters"]
        assert snapshot.get("chaos.dropped") == 1
        assert snapshot.get("chaos.forwarded", 0) > 0


class TestProbeThroughChaos:
    def test_ping_pong_through_proxy(self):
        """Sessionless probes survive the proxy like any other frame."""
        import socket

        from repro.net.framing import (
            Ping,
            Pong,
            decode_net_message,
            encode_net_message,
            read_frame_sock,
            write_frame_sock,
        )

        injector = FaultInjector(seed=23)
        with chaotic_serving(injector) as (client, frontend, proxy):
            sock = socket.create_connection((proxy.host, proxy.port),
                                            timeout=5.0)
            try:
                for _ in range(3):
                    write_frame_sock(sock, encode_net_message(Ping()))
                    pong = decode_net_message(read_frame_sock(sock))
                    assert isinstance(pong, Pong)
                    assert pong.draining is False
                    assert pong.sessions == 1  # the NetworkClient's
            finally:
                sock.close()


class TestProxyTeardown:
    def test_a_kill_closes_the_upstream_writer(self):
        """A kill cancels a live connection's handler, which then waits for
        its pumps to unwind; the loop's shutdown cancels that wait a second
        time.  The upstream connection must be closed all the same, or the
        collector finds its transport open after the loop is gone.  (The
        order the kill and the shutdown reach the tasks varies, so the
        drill runs eight times.)"""
        gc.collect()
        db = make_db()
        try:
            frontend = QueryFrontend(db)
            with ServerThread(PirServer(frontend)) as server:
                for attempt in range(8):
                    proxy = ChaosProxy(server.host, server.port,
                                       FaultInjector(seed=attempt, plans=[]))
                    chaos = ChaosProxyThread(proxy).start()
                    client = NetworkClient(chaos.host, chaos.port,
                                           timeout=5.0)
                    assert client.query(1) == RECORDS[1]
                    unraisable = []
                    hook = sys.unraisablehook
                    sys.unraisablehook = unraisable.append
                    try:
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always")
                            chaos.kill()
                            with contextlib.suppress(TransientChannelError,
                                                     NetTimeoutError):
                                client.close()
                            del proxy, chaos
                            gc.collect()
                    finally:
                        sys.unraisablehook = hook
                    assert [str(w.message) for w in caught] == []
                    assert [str(u.exc_value) for u in unraisable] == []
        finally:
            db.close()
