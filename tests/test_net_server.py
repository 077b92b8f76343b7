"""Loopback integration tests for the TCP serving stack (repro.net)."""

import contextlib
import logging
import socket
import struct
import threading
import time

import pytest

from tests.helpers import FRONT_DOORS, front_door, make_db, wait_until
from repro.baselines import make_records
from repro.errors import (
    DegradedServiceError,
    PageNotFoundError,
    ProtocolError,
    ReproError,
    TransientChannelError,
)
from repro.faults.retry import RetryPolicy
from repro.net import (
    AdmissionController,
    NetworkClient,
    PirServer,
    ServerThread,
    TokenBucket,
)
from repro.net.framing import (
    Hello,
    Welcome,
    decode_net_message,
    encode_net_message,
    read_frame_sock,
    write_frame_sock,
)
from repro.obs import MetricsRegistry
from repro.service import protocol
from repro.service.frontend import QueryFrontend, ServiceClient

RECORDS = make_records(40, 16)


@contextlib.contextmanager
def serving(metrics=None, admission=None, frontend_kw=None, **server_kw):
    """A live loopback server over a fresh seeded database."""
    db = make_db(metrics=metrics) if metrics is not None else make_db()
    frontend = QueryFrontend(db, metrics=metrics, **(frontend_kw or {}))
    server = PirServer(frontend, admission=admission, metrics=metrics,
                       **server_kw)
    handle = ServerThread(server)
    try:
        with handle:
            yield db, frontend, server, handle
    finally:
        db.close()


class TestLoopbackOperations:
    def test_full_operation_surface(self):
        registry = MetricsRegistry()
        with serving(metrics=registry) as (db, frontend, server, handle):
            with NetworkClient(handle.host, handle.port) as client:
                # query
                assert client.query(3) == RECORDS[3]
                # update
                client.update(3, b"updated pg 3")
                assert client.query(3) == b"updated pg 3"
                # insert
                new_id = client.insert(b"fresh page 40")
                assert client.query(new_id) == b"fresh page 40"
                # delete
                client.delete(new_id)
                with pytest.raises(PageNotFoundError):
                    client.query(new_id)
                # batch: positional replies, per-op failures
                replies = client.batch([
                    protocol.Query(1),
                    protocol.Update(2, b"batched upd"),
                    protocol.Query(2),
                    protocol.Delete(9999),  # refused slot
                ])
                assert replies[0] == protocol.Result(1, RECORDS[1])
                assert replies[1] == protocol.Ok()
                assert replies[2] == protocol.Result(2, b"batched upd")
                assert isinstance(replies[3], protocol.Refused)
            snapshot = registry.snapshot()
            counters = snapshot["counters"]
            assert counters["net.requests"] == counters["net.replies"] == 8
            assert counters["net.connections.accepted"] == 1
            assert counters["net.bytes.in"] > 0
            assert counters["net.bytes.out"] > 0
            assert "net.request.seconds" in snapshot["histograms"]

    def test_network_bytes_match_in_process_client(self):
        """Acceptance: NetworkClient query == ServiceClient query on the
        same seeded database."""
        reference_db = make_db()
        reference = ServiceClient(
            QueryFrontend(reference_db)
        )
        with serving() as (db, frontend, server, handle):
            with NetworkClient(handle.host, handle.port) as client:
                for page_id in range(10):
                    assert client.query(page_id) == reference.query(page_id)
        reference.close()
        reference_db.close()

    def test_sequential_sessions_refused_by_default(self):
        """Guessable ids never reach the network: the frontend refuses the
        retired counting mode, and the sessions a server hands out are
        64-bit random draws, not 1, 2, 3."""
        db = make_db()
        with pytest.raises(ProtocolError, match="session_id_mode"):
            QueryFrontend(db, session_id_mode="sequential")
        db.close()
        with serving() as (db, frontend, server, handle):
            clients = [NetworkClient(handle.host, handle.port)
                       for _ in range(3)]
            ids = [client.session_id for client in clients]
            assert sorted(frontend.session_ids) == sorted(ids)
            assert len(set(ids)) == 3
            assert all(session_id > 2**16 for session_id in ids)
            for client in clients:
                client.close()

    def test_refusals_surface_server_error_classes(self):
        with serving() as (db, frontend, server, handle):
            with NetworkClient(handle.host, handle.port) as client:
                with pytest.raises(PageNotFoundError, match="refused"):
                    client.query(10_000)  # not-found → typed refusal

    def test_an_unexpected_error_is_refused_and_counted(self):
        """An exception outside the ReproError family is answered with an
        "internal" refusal, counted in ``net.internal_errors``, and the
        server serves on."""
        registry = MetricsRegistry()
        with serving(metrics=registry) as (db, frontend, server, handle):
            def broken():
                server._serve_hook = None  # once
                raise RuntimeError("hook broke")

            server._serve_hook = broken
            with NetworkClient(handle.host, handle.port) as client:
                with pytest.raises(ReproError, match="internal error"):
                    client.query(1)
                assert client.query(1) == RECORDS[1]
            counters = registry.snapshot()["counters"]
            assert counters["net.internal_errors"] == 1

    def test_closed_session_refused_via_envelope(self):
        with serving() as (db, frontend, server, handle):
            with NetworkClient(handle.host, handle.port) as client:
                assert client.query(0) == RECORDS[0]
                frontend.close_session(client.session_id)
                with pytest.raises(ProtocolError, match="unknown session"):
                    client.query(0)


class TestConcurrentClients:
    QUERIES_PER_CLIENT = 5
    CLIENTS = 8

    def _workload(self, client_index):
        return [(client_index + offset) % 40
                for offset in range(self.QUERIES_PER_CLIENT)]

    def test_eight_concurrent_clients_match_serial_run(self):
        registry = MetricsRegistry()
        errors = []
        results = {}

        def run_client(index, host, port):
            try:
                with NetworkClient(host, port) as client:
                    results[index] = [client.query(page_id)
                                      for page_id in self._workload(index)]
            except BaseException as exc:  # noqa: BLE001 - collect for assert
                errors.append((index, exc))

        with serving(metrics=registry) as (db, frontend, server, handle):
            threads = [
                threading.Thread(target=run_client,
                                 args=(index, handle.host, handle.port))
                for index in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors, f"client errors: {errors}"
            for index in range(self.CLIENTS):
                expected = [RECORDS[p] for p in self._workload(index)]
                assert results[index] == expected
            concurrent_requests = frontend.counters.get("requests")
            concurrent_engine = db.engine.request_count

        # Serial reference: same workload through one in-process client.
        serial_db = make_db()
        serial_frontend = QueryFrontend(serial_db)
        serial_client = ServiceClient(serial_frontend)
        for index in range(self.CLIENTS):
            for page_id in self._workload(index):
                assert serial_client.query(page_id) == RECORDS[page_id]
        assert concurrent_requests == serial_frontend.counters.get("requests")
        assert concurrent_engine == serial_db.engine.request_count
        total = self.CLIENTS * self.QUERIES_PER_CLIENT
        snapshot = registry.snapshot()
        assert snapshot["counters"]["net.requests"] == total
        assert snapshot["counters"]["net.replies"] == total
        serial_client.close()
        serial_db.close()


class TestDuplicateRetransmission:
    def test_duplicate_served_from_reply_cache_over_tcp(self):
        with serving() as (db, frontend, server, handle):
            with NetworkClient(handle.host, handle.port) as client:
                sealed = client._suite.encrypt_page(
                    protocol.encode_client_message(protocol.Insert(b"dup"))
                )
                before = db.engine.request_count
                first = client._transact(1, sealed)
                after_first = db.engine.request_count
                # Blind retransmission of the identical sealed bytes —
                # exactly what a timed-out client on TCP would resend.
                second = client._transact(1, sealed)
                assert first == second
                assert db.engine.request_count == after_first > before
                assert frontend.counters.get("requests.duplicate") == 1
                # The insert was applied exactly once.
                reply = protocol.decode_client_message(
                    client._suite.decrypt_page(first)
                )
                assert isinstance(reply, protocol.Result)
                assert client.query(reply.page_id) == b"dup"


class TestClientReset:
    @pytest.mark.parametrize("kind", FRONT_DOORS)
    def test_reset_is_a_closed_connection(
            self, kind, tmp_path, caplog):
        """A client that dies mid-frame sends an RST, not a FIN: the
        handler's read raises ConnectionResetError, which must end the
        connection like any other disconnect — not escape the handler as
        asyncio's "Unhandled exception in client_connected_cb"."""
        registry = MetricsRegistry()

        def closed():
            return registry.snapshot()["counters"].get(
                "net.connections.closed", 0)

        with caplog.at_level(logging.ERROR, logger="asyncio"), \
                front_door(kind, tmp_path, metrics=registry) as door:
            before = closed()
            sock = socket.create_connection((door.host, door.port),
                                            timeout=5.0)
            write_frame_sock(sock, encode_net_message(Hello()))
            assert isinstance(decode_net_message(read_frame_sock(sock)),
                              Welcome)
            sock.sendall(b"\x00\x00")  # half a length prefix
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            assert wait_until(lambda: closed() > before)
            assert wait_until(lambda: not door.endpoint._conn_tasks)
            with NetworkClient(door.host, door.port, timeout=5.0) as client:
                assert client.query(3) == RECORDS[3]
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []


class TestGracefulDrain:
    def test_drain_waits_for_inflight_request(self):
        entered = threading.Event()
        release = threading.Event()
        fired = []

        def hook():
            if not fired:
                fired.append(True)
                entered.set()
                assert release.wait(timeout=30)

        with serving() as (db, frontend, server, handle):
            server._serve_hook = hook
            outcome = {}

            def run_query():
                try:
                    with NetworkClient(handle.host, handle.port) as client:
                        outcome["payload"] = client.query(5)
                except BaseException as exc:  # noqa: BLE001
                    outcome["error"] = exc

            client_thread = threading.Thread(target=run_query)
            client_thread.start()
            assert entered.wait(timeout=30)

            drain_thread = threading.Thread(target=handle.drain)
            drain_thread.start()
            time.sleep(0.2)
            # Drain must still be waiting on the in-flight request.
            assert drain_thread.is_alive()
            assert "payload" not in outcome

            release.set()
            drain_thread.join(timeout=30)
            assert not drain_thread.is_alive()
            client_thread.join(timeout=30)
            # The in-flight request was neither lost nor refused.
            assert outcome.get("payload") == RECORDS[5]
            assert frontend.session_count == 0

            # And the listener is gone: new connections fail outright.
            with pytest.raises(TransientChannelError):
                NetworkClient(handle.host, handle.port, timeout=2.0)

    def test_drain_cancelling_a_closing_connection_is_clean(self, monkeypatch):
        """A handler already past BYE, waiting for its transport to close,
        when drain cancels it: it must finish and deregister, not end
        cancelled with its bookkeeping skipped."""
        import asyncio

        closing = threading.Event()

        async def slow_wait_closed(self):
            closing.set()
            await asyncio.sleep(30.0)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            slow_wait_closed)
        with serving() as (db, frontend, server, handle):
            with NetworkClient(handle.host, handle.port) as client:
                assert client.query(3) == RECORDS[3]
            assert closing.wait(timeout=30)
            handle.drain()
            assert server._conn_tasks == set()

    def test_requests_after_drain_are_refused_retryably(self):
        with serving() as (db, frontend, server, handle):
            client = NetworkClient(handle.host, handle.port)
            assert client.query(0) == RECORDS[0]
            # Flip the drain flag directly (the full drain() tears the
            # connection down); live connections now get retryable sheds.
            server._draining = True
            with pytest.raises(DegradedServiceError) as excinfo:
                client.query(1)
            assert excinfo.value.retry_after >= 0
            server._draining = False
            client.close()


class TestAdmissionIntegration:
    def test_session_cap_refuses_handshake(self):
        admission = AdmissionController(max_sessions=1)
        with serving(admission=admission) as (db, frontend, server, handle):
            first = NetworkClient(handle.host, handle.port)
            with pytest.raises(DegradedServiceError) as excinfo:
                NetworkClient(handle.host, handle.port)
            assert excinfo.value.retry_after >= 0
            assert admission.counters.get("shed.sessions") == 1
            first.close()

    def test_rate_shed_is_retryable_and_counted(self):
        registry = MetricsRegistry()
        admission = AdmissionController(
            bucket=TokenBucket(rate=0.5, capacity=2.0),
            metrics=registry,
        )
        with serving(metrics=registry,
                     admission=admission) as (db, frontend, server, handle):
            with NetworkClient(handle.host, handle.port) as client:
                assert client.query(0) == RECORDS[0]
                assert client.query(1) == RECORDS[1]
                with pytest.raises(DegradedServiceError) as excinfo:
                    client.query(2)
                assert excinfo.value.retry_after > 0
        assert admission.counters.get("shed.rate") >= 1
        assert registry.snapshot()["counters"]["net.shed"] >= 1

    def test_admission_runs_on_the_loop_thread_only(self):
        """The token bucket has no lock because one thread uses it: every
        clock read after construction is on the server's loop thread,
        however many clients send requests."""
        readers = []

        def probe():
            readers.append(threading.current_thread().name)
            return time.monotonic()

        admission = AdmissionController(
            bucket=TokenBucket(rate=1e6, capacity=1e6, time_source=probe),
        )
        readers.clear()  # the constructor's one read, on this thread
        errors = []

        def run_client(host, port, offset):
            try:
                with NetworkClient(host, port) as client:
                    for page_id in range(offset, offset + 4):
                        assert client.query(page_id) == RECORDS[page_id]
            except BaseException as exc:  # noqa: BLE001 - collect for assert
                errors.append(exc)

        with serving(admission=admission) as (db, frontend, server, handle):
            threads = [
                threading.Thread(target=run_client,
                                 args=(handle.host, handle.port, offset))
                for offset in (0, 10)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, f"client errors: {errors}"
        assert len(readers) >= 8
        assert set(readers) == {"pir-server"}

    def test_client_retry_rides_out_the_shed(self):
        admission = AdmissionController(
            bucket=TokenBucket(rate=20.0, capacity=2.0),
        )
        retry = RetryPolicy(max_attempts=6, base_delay=0.05,
                            multiplier=2.0, max_delay=1.0)
        with serving(admission=admission) as (db, frontend, server, handle):
            client = NetworkClient(handle.host, handle.port,
                                   retry=retry, rng_seed=7)
            payloads = [client.query(page_id) for page_id in range(6)]
            assert payloads == [RECORDS[p] for p in range(6)]
            # At least one request was shed and transparently retried.
            assert client.counters.get("retries") >= 1
            client.close()


class TestIdleReapingOverNetwork:
    def test_idle_session_reaped_by_server_sweep(self):
        frontend_kw = {"session_ttl": 0.3, "time_source": time.monotonic}
        with serving(frontend_kw=frontend_kw,
                     reap_interval=0.1) as (db, frontend, server, handle):
            client = NetworkClient(handle.host, handle.port)
            assert client.query(0) == RECORDS[0]
            assert wait_until(lambda: frontend.session_count == 0,
                              timeout=10.0, interval=0.05)
            assert frontend.counters.get("sessions.reaped") == 1
            with pytest.raises(ProtocolError, match="unknown session"):
                client.query(1)
            client.close()
