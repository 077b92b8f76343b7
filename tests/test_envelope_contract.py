"""The envelope connection contract, over both servers that speak it.

``PirServer`` and ``ClusterRouter`` run one connection state machine
(``repro.net.endpoint.EnvelopeServer``); a client cannot tell from the
envelope which of the two it dialled.  Each test here drives a raw socket
through one rule of that machine, against each front door:

* a connection whose first frame is PING is a probe connection — PONGs,
  and nothing else;
* inside a session only REQUEST and BYE are legal: anything else gets one
  ``protocol`` refusal, then the connection closes;
* bytes that are no frame at all get a best-effort ``protocol`` refusal,
  and an oversized length prefix is refused before its body is read;
* BYE closes the session, an abrupt close keeps it for RESUME.
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.errors import TransientChannelError
from repro.net.framing import (
    MAX_FRAME_BYTES,
    Bye,
    Hello,
    NetRefused,
    Ping,
    Pong,
    Resume,
    Welcome,
    decode_net_message,
    encode_net_message,
    read_frame_sock,
    write_frame_sock,
)

from tests.helpers import FRONT_DOORS, front_door, wait_until


@pytest.fixture(params=FRONT_DOORS)
def door(request, tmp_path):
    with front_door(request.param, tmp_path) as live:
        yield live


class Wire:
    """A raw client socket speaking typed envelope messages."""

    def __init__(self, door):
        self.sock = socket.create_connection((door.host, door.port),
                                             timeout=5.0)

    def send(self, message) -> None:
        write_frame_sock(self.sock, encode_net_message(message))

    def read(self):
        return decode_net_message(read_frame_sock(self.sock))

    def ask(self, message):
        self.send(message)
        return self.read()

    def closed_by_peer(self) -> bool:
        try:
            self.read()
        except TransientChannelError:
            return True
        return False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()


def assert_protocol_refusal_or_close(wire) -> None:
    """Best effort: the refusal may lose the race with the close."""
    try:
        answer = wire.read()
    except TransientChannelError:
        return
    assert isinstance(answer, NetRefused)
    assert answer.refusal.code == "protocol"


class TestProbeConnections:
    def test_ping_first_gets_pongs_and_no_session(self, door):
        with Wire(door) as wire:
            for _ in range(3):
                pong = wire.ask(Ping())
                assert isinstance(pong, Pong)
                assert pong.draining is False
                assert pong.sessions == 0
        assert door.sessions() == 0

    def test_a_probe_connection_carries_nothing_else(self, door):
        with Wire(door) as wire:
            assert isinstance(wire.ask(Ping()), Pong)
            answer = wire.ask(Hello())
            assert isinstance(answer, NetRefused)
            assert answer.refusal.code == "protocol"
            assert "probe connection" in answer.refusal.reason
            assert wire.closed_by_peer()
        assert door.sessions() == 0


class TestSessionLoop:
    def test_unexpected_frame_refused_then_closed(self, door):
        with Wire(door) as wire:
            assert isinstance(wire.ask(Hello()), Welcome)
            answer = wire.ask(Hello())
            assert isinstance(answer, NetRefused)
            assert answer.request_id == 0
            assert answer.refusal.code == "protocol"
            assert "unexpected Hello" in answer.refusal.reason
            assert not answer.refusal.retryable
            assert wire.closed_by_peer()

    def test_bye_closes_abrupt_close_keeps(self, door):
        with Wire(door) as wire:
            welcome = wire.ask(Hello())
            assert isinstance(welcome, Welcome)
        # Closed without a BYE: the session waits for its client.
        assert wait_until(lambda: not door.endpoint._conn_tasks)
        assert door.sessions() == 1
        with Wire(door) as wire:
            assert wire.ask(Resume(welcome.session_id)) == welcome
            wire.send(Bye())
            assert wire.closed_by_peer()
        assert wait_until(lambda: door.sessions() == 0)


class TestMalformedInput:
    def test_garbage_frame_gets_a_best_effort_refusal(self, door):
        with Wire(door) as wire:
            write_frame_sock(wire.sock, b"\x7f not an envelope message")
            assert_protocol_refusal_or_close(wire)
        assert door.sessions() == 0

    def test_garbage_frame_mid_session(self, door):
        with Wire(door) as wire:
            assert isinstance(wire.ask(Hello()), Welcome)
            write_frame_sock(wire.sock, b"\x7f not an envelope message")
            assert_protocol_refusal_or_close(wire)

    def test_oversized_prefix_refused_before_body(self, door):
        """Four bytes claim a frame that never arrives: the answer must
        not wait for (or buffer) the claimed payload."""
        with Wire(door) as wire:
            wire.sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            assert_protocol_refusal_or_close(wire)
            assert wire.closed_by_peer()
