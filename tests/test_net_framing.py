"""Frame codec and envelope-message tests (repro.net.framing)."""

import asyncio
import logging
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    NetTimeoutError,
    ProtocolError,
    TransientChannelError,
)
from repro.net.framing import (
    Bye,
    Hello,
    MAX_FRAME_BYTES,
    NetRefused,
    Ping,
    Pong,
    ReplAck,
    ReplQuery,
    ReplRecord,
    ReplState,
    Reply,
    Request,
    Resume,
    Welcome,
    decode_net_message,
    encode_frame,
    encode_net_message,
    read_frame_async,
    read_frame_sock,
    write_frame_sock,
)
from repro.service import protocol


class TestEnvelopeCodec:
    @pytest.mark.parametrize("message", [
        Hello(),
        Hello(7),
        Welcome(0xDEADBEEF01020304),
        Request(1, b"sealed request bytes"),
        Reply(2**32 - 1, b""),
        Reply(3, b"sealed reply", 0),
        Reply(3, b"sealed reply", 2**64 - 1),
        ReplRecord("127.0.0.1:7000", 42, b"sealed record"),
        ReplRecord("host:1", 2**64 - 1, b""),
        ReplAck("127.0.0.1:7000", 0),
        ReplAck("10.0.0.9:65535", 2**64 - 1),
        ReplQuery("127.0.0.1:7000"),
        ReplState("127.0.0.1:7000", 17),
        NetRefused(9, protocol.Refused("busy", "unavailable", 0.25)),
        NetRefused(0, protocol.Refused("legacy")),
        Bye(),
        Ping(),
        Pong(False, 0),
        Pong(True, 2**32 - 1),
        Resume(0xDEADBEEF01020304),
        Resume(0),
    ])
    def test_roundtrip(self, message):
        assert decode_net_message(encode_net_message(message)) == message

    @pytest.mark.parametrize("blob", [
        b"\x07\x00",            # PING with trailing byte
        b"\x08\x00",            # PONG too short
        b"\x08\x00\x00\x00\x00\x00\x00",  # PONG too long
        b"\x09\x00\x01",        # RESUME too short
    ])
    def test_malformed_probe_and_resume_rejected(self, blob):
        with pytest.raises(ProtocolError):
            decode_net_message(blob)

    @pytest.mark.parametrize("blob", [
        b"\x0a\x00\x02ab",          # REPL_RECORD truncated after origin
        b"\x0b\x00\x02ab\x00",      # REPL_ACK seq too short
        b"\x0b\x00\x02ab" + b"\x00" * 9,  # REPL_ACK trailing byte
        b"\x0c\x00\x05abc",         # REPL_QUERY origin truncated
        b"\x0c\x00\x02ab!",         # REPL_QUERY trailing byte
        b"\x0d\x00\x02ab\x00\x00",  # REPL_STATE seq too short
        b"\x0a" + struct.pack(">H", 300) + b"x" * 300 + b"\x00" * 8,
    ])
    def test_malformed_repl_frames_rejected(self, blob):
        with pytest.raises(ProtocolError):
            decode_net_message(blob)

    def test_reply_watermark_defaults_to_zero(self):
        """A stamped and an unstamped reply differ only in repl_seq, and
        decoding preserves the watermark bit-exactly."""
        plain = Reply(7, b"sealed")
        assert plain.repl_seq == 0
        stamped = decode_net_message(
            encode_net_message(Reply(7, b"sealed", 99))
        )
        assert (stamped.request_id, stamped.sealed, stamped.repl_seq) == \
            (7, b"sealed", 99)

    def test_empty_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_net_message(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError, match="unknown"):
            decode_net_message(b"\x7f")

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError, match="HELLO"):
            decode_net_message(b"\x01XXXX\x01")

    def test_truncated_welcome_rejected(self):
        with pytest.raises(ProtocolError):
            decode_net_message(b"\x02\x00\x01")

    def test_refused_envelope_requires_refused_body(self):
        body = (b"\x05" + struct.pack(">I", 3)
                + protocol.encode_client_message(protocol.Ok()))
        with pytest.raises(ProtocolError, match="Refused"):
            decode_net_message(body)

    def test_garbage_bytes_never_crash(self):
        for seed in range(40):
            blob = bytes((seed * 31 + i * 7) % 256 for i in range(seed))
            try:
                decode_net_message(blob)
            except ProtocolError:
                pass


class TestFraming:
    def test_encode_frame_prefixes_length(self):
        frame = encode_frame(b"abc")
        assert frame == struct.pack(">I", 3) + b"abc"

    def test_encode_rejects_oversized_body(self):
        huge = bytearray(MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(bytes(huge))

    def test_sync_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            write_frame_sock(left, b"hello frame")
            assert read_frame_sock(right) == b"hello frame"
        finally:
            left.close()
            right.close()

    def test_oversized_prefix_rejected_before_reading_body(self):
        """A hostile length prefix must fail after 4 bytes, not try to
        buffer the claimed payload (which was never sent)."""
        left, right = socket.socketpair()
        try:
            right.settimeout(5.0)
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                read_frame_sock(right)
        finally:
            left.close()
            right.close()

    def test_peer_close_mid_frame_is_transient(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 100) + b"partial")
            left.close()
            with pytest.raises(TransientChannelError):
                read_frame_sock(right)
        finally:
            right.close()

    def test_recv_timeout_is_typed_and_transient(self):
        left, right = socket.socketpair()
        try:
            right.settimeout(0.05)
            with pytest.raises(NetTimeoutError, match="deadline"):
                read_frame_sock(right)
            # NetTimeoutError stays inside the retryable hierarchy.
            assert issubclass(NetTimeoutError, TransientChannelError)
        finally:
            left.close()
            right.close()

    def test_async_oversized_prefix_rejected_before_body(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                await read_frame_async(reader)

        asyncio.run(run())

    def test_async_roundtrip(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(b"payload"))
            assert await read_frame_async(reader) == b"payload"

        asyncio.run(run())

    def test_async_clean_close_is_transient(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            with pytest.raises(TransientChannelError):
                await read_frame_async(reader)

        asyncio.run(run())

    def test_transport_cap_admits_max_protocol_payload(self):
        """A maximal legal service payload must fit inside one frame."""
        assert protocol.MAX_PAYLOAD_BYTES < MAX_FRAME_BYTES


class TestFragmentedDelivery:
    """TCP guarantees bytes, not boundaries: a frame may arrive one byte
    at a time, with the length prefix split across reads.  Both receive
    paths must reassemble exactly the frames that were sent."""

    BODIES = [b"", b"x", b"fragmented frame body", bytes(range(256))]

    def test_sock_byte_at_a_time(self):
        left, right = socket.socketpair()
        try:
            right.settimeout(5.0)
            stream = b"".join(encode_frame(body) for body in self.BODIES)

            def dribble():
                for i in range(len(stream)):
                    left.sendall(stream[i:i + 1])

            sender = threading.Thread(target=dribble)
            sender.start()
            try:
                for body in self.BODIES:
                    assert read_frame_sock(right) == body
            finally:
                sender.join()
        finally:
            left.close()
            right.close()

    def test_sock_split_length_prefix(self):
        """Two bytes of the prefix, a pause, then the rest."""
        left, right = socket.socketpair()
        try:
            right.settimeout(5.0)
            frame = encode_frame(b"split prefix")

            def send_in_two():
                left.sendall(frame[:2])
                time.sleep(0.05)
                left.sendall(frame[2:])

            sender = threading.Thread(target=send_in_two)
            sender.start()
            try:
                assert read_frame_sock(right) == b"split prefix"
            finally:
                sender.join()
        finally:
            left.close()
            right.close()

    def test_async_byte_at_a_time(self):
        async def run():
            reader = asyncio.StreamReader()
            stream = b"".join(encode_frame(body) for body in self.BODIES)
            received = []

            async def consume():
                for _ in self.BODIES:
                    received.append(await read_frame_async(reader))

            async def dribble():
                for i in range(len(stream)):
                    reader.feed_data(stream[i:i + 1])
                    await asyncio.sleep(0)
                reader.feed_eof()

            await asyncio.gather(consume(), dribble())
            assert received == self.BODIES

        asyncio.run(run())

    def test_async_split_length_prefix(self):
        async def run():
            reader = asyncio.StreamReader()
            frame = encode_frame(b"split prefix")

            async def dribble():
                reader.feed_data(frame[:3])
                await asyncio.sleep(0.01)
                reader.feed_data(frame[3:])

            body, _ = await asyncio.gather(read_frame_async(reader),
                                           dribble())
            assert body == b"split prefix"

        asyncio.run(run())

    def test_end_to_end_through_fragmenting_proxy(self):
        """A real client/server pair behind a proxy that re-chunks every
        frame into 3-byte writes: the stack must not notice."""
        from tests.helpers import make_db
        from repro.baselines import make_records
        from repro.faults import ChaosProxy, ChaosProxyThread, FaultInjector
        from repro.net import NetworkClient, PirServer, ServerThread
        from repro.service.frontend import QueryFrontend

        records = make_records(16, 16)
        db = make_db(num_records=16)
        try:
            frontend = QueryFrontend(db)
            with ServerThread(PirServer(frontend)) as server:
                proxy = ChaosProxy(server.host, server.port,
                                   FaultInjector(seed=3), fragment_bytes=3)
                with ChaosProxyThread(proxy) as chaos:
                    with NetworkClient(chaos.host, chaos.port,
                                       timeout=10.0) as client:
                        for page_id in (0, 5, 15):
                            assert client.query(page_id) == records[page_id]
        finally:
            db.close()


class TestProtocolLengthGuards:
    """The u32 decode paths must not trust lengths beyond the cap."""

    def test_update_forged_length_rejected(self):
        forged = (b"\x11" + struct.pack(">Q", 1)
                  + struct.pack(">I", protocol.MAX_PAYLOAD_BYTES + 1)
                  + b"tiny")
        with pytest.raises(ProtocolError, match="limit"):
            protocol.decode_client_message(forged)

    def test_insert_forged_length_rejected(self):
        forged = (b"\x12" + struct.pack(">I", 0xFFFFFFFF) + b"x")
        with pytest.raises(ProtocolError, match="limit"):
            protocol.decode_client_message(forged)

    def test_refused_forged_reason_length_rejected(self):
        forged = b"\x2f" + struct.pack(">I", 0xFFFFFFF0) + b"nope"
        with pytest.raises(ProtocolError, match="limit"):
            protocol.decode_client_message(forged)

    def test_batch_item_forged_length_rejected(self):
        forged = (b"\x14" + struct.pack(">I", 1)
                  + struct.pack(">I", protocol.MAX_PAYLOAD_BYTES + 1)
                  + b"\x10" + struct.pack(">Q", 0))
        with pytest.raises(ProtocolError, match="limit"):
            protocol.decode_client_message(forged)

    def test_oversized_payload_refused_on_encode(self):
        with pytest.raises(ProtocolError, match="limit"):
            protocol.encode_client_message(
                protocol.Insert(bytes(protocol.MAX_PAYLOAD_BYTES + 1))
            )


class TestServerRejectsGarbage:
    """A raw socket poking the real server must get a clean refusal."""

    def _serve(self):
        from tests.helpers import make_db
        from repro.net import PirServer, ServerThread
        from repro.service.frontend import QueryFrontend

        db = make_db(num_records=16)
        frontend = QueryFrontend(db)
        return db, ServerThread(PirServer(frontend))

    def test_oversized_prefix_closes_connection(self):
        db, handle = self._serve()
        try:
            with handle:
                sock = socket.create_connection(
                    (handle.host, handle.port), timeout=5.0
                )
                try:
                    sock.sendall(struct.pack(">I", 0xFFFFFFFF))
                    # The server answers with a protocol refusal (best
                    # effort) and closes; either way the connection ends
                    # promptly without the server buffering 4 GiB.
                    sock.settimeout(5.0)
                    try:
                        message = decode_net_message(read_frame_sock(sock))
                        assert isinstance(message, NetRefused)
                        assert message.refusal.code == "protocol"
                    except TransientChannelError:
                        pass
                finally:
                    sock.close()
        finally:
            db.close()

    def test_garbage_handshake_refused(self):
        db, handle = self._serve()
        try:
            with handle:
                sock = socket.create_connection(
                    (handle.host, handle.port), timeout=5.0
                )
                try:
                    sock.settimeout(5.0)
                    write_frame_sock(sock, b"\x7f not a hello")
                    message = decode_net_message(read_frame_sock(sock))
                    assert isinstance(message, NetRefused)
                    assert message.refusal.code == "protocol"
                except TransientChannelError:
                    pass
                finally:
                    sock.close()
        finally:
            db.close()


class TestNonUtf8Origin:
    """A REPL_* origin that is not UTF-8 is a malformed frame like any
    other, not an exception that escapes the connection handler."""

    BODY = b"\x0c\x00\x02\xff\xfe"  # REPL_QUERY, origin b"\xff\xfe"

    def test_decoder_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_net_message(self.BODY)

    def test_served_server_refuses_it(self, caplog):
        from tests.helpers import make_db
        from repro.baselines import make_records
        from repro.net import NetworkClient, PirServer, ServerThread
        from repro.service.frontend import QueryFrontend

        db = make_db(num_records=16)
        frontend = QueryFrontend(db)
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"), \
                    ServerThread(PirServer(frontend)) as handle:
                sock = socket.create_connection(
                    (handle.host, handle.port), timeout=5.0
                )
                try:
                    write_frame_sock(sock, self.BODY)
                    message = decode_net_message(read_frame_sock(sock))
                finally:
                    sock.close()
                assert isinstance(message, NetRefused)
                assert message.refusal.code == "protocol"
                with NetworkClient(handle.host, handle.port,
                                   timeout=5.0) as client:
                    assert client.query(3) == make_records(16, 16)[3]
            assert [r.getMessage() for r in caplog.records
                    if r.name == "asyncio"] == []
        finally:
            db.close()
