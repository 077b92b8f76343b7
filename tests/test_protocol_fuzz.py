"""Property-based fuzzing of the three wire codecs (two-party, client
service and the network envelope).

Protocol decoders face adversarial bytes by definition; these tests check
(1) encode/decode round-trips for arbitrary field values, and (2) the
decoders never crash with anything but :class:`ProtocolError` on arbitrary
or mutated input.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import framing as net_wire
from repro.service import protocol as client_wire
from repro.twoparty import messages as disk_wire

FRAME = 24
_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_u32 = st.integers(min_value=0, max_value=2**32 - 1)
_payload = st.binary(max_size=200)
_ranges = st.lists(st.tuples(_u64, _u32), max_size=6).map(tuple)
# Ranges together with exactly the frames they name (small counts: the
# frames are real bytes).
_filled_ranges = st.lists(
    st.tuples(_u64, st.integers(min_value=0, max_value=3)), max_size=4
).flatmap(lambda ranges: st.tuples(
    st.just(tuple(ranges)),
    st.binary(min_size=FRAME * sum(count for _, count in ranges),
              max_size=FRAME * sum(count for _, count in ranges)),
))


def _roundtrips(message) -> bool:
    return disk_wire.decode(disk_wire.encode(message, FRAME), FRAME) == message


class TestDiskWireRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(start=_u64, frames=st.integers(0, 6).flatmap(
        lambda n: st.binary(min_size=n * FRAME, max_size=n * FRAME)))
    def test_upload(self, start, frames):
        """The setup upload: a write of one range."""
        count = len(frames) // FRAME
        assert _roundtrips(disk_wire.WriteRanges(((start, count),), frames))

    @settings(max_examples=40, deadline=None)
    @given(ranges=_ranges)
    def test_read_ranges(self, ranges):
        assert _roundtrips(disk_wire.ReadRanges(ranges))

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(0, 7), fill=st.binary(min_size=1, max_size=1))
    def test_read_response(self, count, fill):
        assert _roundtrips(disk_wire.Frames(fill * (count * FRAME)))

    @settings(max_examples=40, deadline=None)
    @given(filled=_filled_ranges)
    def test_write_ranges(self, filled):
        assert _roundtrips(disk_wire.WriteRanges(*filled))

    @settings(max_examples=40, deadline=None)
    @given(reason=st.text(max_size=100))
    def test_error_reply(self, reason):
        assert _roundtrips(disk_wire.ErrorReply(reason))


class TestDiskWireRobustness:
    @settings(max_examples=100, deadline=None)
    @given(garbage=st.binary(max_size=300))
    def test_arbitrary_bytes_never_crash(self, garbage):
        try:
            disk_wire.decode(garbage, FRAME)
        except ProtocolError:
            pass  # the only acceptable failure mode

    @settings(max_examples=100, deadline=None)
    @given(opcode=st.sampled_from([1, 2, 3]), count=_u32,
           tail=st.binary(max_size=120))
    def test_hostile_counts_never_crash(self, opcode, count, tail):
        """Any count field over any tail: refused or decoded, never an
        allocation or an index the count alone asked for."""
        try:
            disk_wire.decode(
                bytes([opcode]) + count.to_bytes(4, "big") + tail, FRAME
            )
        except ProtocolError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(filled=_filled_ranges, cut=st.integers(min_value=0, max_value=400))
    def test_truncation_never_crashes(self, filled, cut):
        message = disk_wire.WriteRanges(*filled)
        encoded = disk_wire.encode(message, FRAME)
        try:
            decoded = disk_wire.decode(encoded[:cut], FRAME)
            # A prefix that still decodes must decode to the same message
            # (only possible when nothing was cut).
            assert cut >= len(encoded) or decoded == message
        except ProtocolError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(filled=_filled_ranges, extra=st.binary(min_size=1, max_size=40))
    def test_trailing_bytes_are_refused(self, filled, extra):
        ranges, frames = filled
        for message in (disk_wire.WriteRanges(ranges, frames),
                        disk_wire.ReadRanges(ranges),
                        disk_wire.Frames(frames)):
            with pytest.raises(ProtocolError):
                disk_wire.decode(
                    disk_wire.encode(message, FRAME) + extra, FRAME
                )


class TestClientWireRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(page=_u64)
    def test_query(self, page):
        message = client_wire.Query(page)
        assert client_wire.decode_client_message(
            client_wire.encode_client_message(message)
        ) == message

    @settings(max_examples=40, deadline=None)
    @given(page=_u64, payload=_payload)
    def test_update_and_result(self, page, payload):
        for message in (client_wire.Update(page, payload),
                        client_wire.Result(page, payload)):
            assert client_wire.decode_client_message(
                client_wire.encode_client_message(message)
            ) == message

    @settings(max_examples=40, deadline=None)
    @given(payload=_payload)
    def test_insert(self, payload):
        message = client_wire.Insert(payload)
        assert client_wire.decode_client_message(
            client_wire.encode_client_message(message)
        ) == message


class TestClientWireRobustness:
    @settings(max_examples=100, deadline=None)
    @given(garbage=st.binary(max_size=300))
    def test_arbitrary_bytes_never_crash(self, garbage):
        try:
            client_wire.decode_client_message(garbage)
        except ProtocolError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(payload=_payload, flip=st.integers(min_value=0, max_value=10**6))
    def test_bitflips_never_crash(self, payload, flip):
        encoded = bytearray(
            client_wire.encode_client_message(client_wire.Insert(payload))
        )
        encoded[flip % len(encoded)] ^= 1 + (flip % 255)
        try:
            client_wire.decode_client_message(bytes(encoded))
        except ProtocolError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(reason=st.text(max_size=40), code=st.text(max_size=12))
    def test_truncated_refused_is_rejected(self, reason, code):
        """Reason, code and retry_after are all mandatory: every proper
        prefix is malformed, including the body that ends after the
        reason (once decoded as a reason-only REFUSED)."""
        encoded = client_wire.encode_client_message(
            client_wire.Refused(reason, code, 0.5)
        )
        reason_only = encoded[:5 + len(reason.encode("utf-8"))]
        with pytest.raises(ProtocolError, match="bad REFUSED length"):
            client_wire.decode_client_message(reason_only)
        for cut in range(len(encoded)):
            with pytest.raises(ProtocolError):
                client_wire.decode_client_message(encoded[:cut])

    def test_deep_batch_nest_is_refused(self):
        """Batches do not nest, however deep the nest: the decoder refuses
        the inner batch before decoding it, not by running out of stack."""
        encoded = client_wire.encode_client_message(client_wire.Query(1))
        for _ in range(3000):
            encoded = (b"\x14" + struct.pack(">I", 1)
                       + struct.pack(">I", len(encoded)) + encoded)
        with pytest.raises(ProtocolError, match="batch cannot carry"):
            client_wire.decode_client_message(encoded)


# Origins whose UTF-8 stays inside the 256-byte cap (at most 4 bytes per
# character).
_origin = st.text(max_size=64)
_refusal = st.builds(client_wire.Refused, st.text(max_size=40),
                     st.text(max_size=12),
                     st.floats(allow_nan=False))
# One strategy per envelope message type.
_NET_STRATEGIES = {
    net_wire.Hello: st.builds(net_wire.Hello, st.integers(0, 255)),
    net_wire.Welcome: st.builds(net_wire.Welcome, _u64),
    net_wire.Request: st.builds(net_wire.Request, _u32, _payload),
    net_wire.Reply: st.builds(net_wire.Reply, _u32, _payload, _u64),
    net_wire.NetRefused: st.builds(net_wire.NetRefused, _u32, _refusal),
    net_wire.Bye: st.just(net_wire.Bye()),
    net_wire.Ping: st.just(net_wire.Ping()),
    net_wire.Pong: st.builds(net_wire.Pong, st.booleans(), _u32),
    net_wire.Resume: st.builds(net_wire.Resume, _u64),
    net_wire.ReplRecord: st.builds(net_wire.ReplRecord, _origin, _u64,
                                   _payload),
    net_wire.ReplAck: st.builds(net_wire.ReplAck, _origin, _u64),
    net_wire.ReplQuery: st.builds(net_wire.ReplQuery, _origin),
    net_wire.ReplState: st.builds(net_wire.ReplState, _origin, _u64),
}
_net_messages = st.one_of(*_NET_STRATEGIES.values())


def _decodes_or_refuses(body: bytes):
    """The envelope decoder's whole contract on hostile bytes: a message
    or a :class:`ProtocolError`, nothing else."""
    try:
        return net_wire.decode_net_message(body)
    except ProtocolError:
        return None


class TestEnvelopeRoundtrip:
    @settings(max_examples=150, deadline=None)
    @given(message=_net_messages)
    def test_every_message_roundtrips(self, message):
        assert net_wire.decode_net_message(
            net_wire.encode_net_message(message)
        ) == message

    def test_strategy_covers_every_message_type(self):
        assert set(_NET_STRATEGIES) == set(net_wire.NetMessage.__args__)
        assert len(_NET_STRATEGIES) == 13


class TestEnvelopeRobustness:
    @settings(max_examples=150, deadline=None)
    @given(garbage=st.binary(max_size=300))
    def test_arbitrary_bytes_never_crash(self, garbage):
        _decodes_or_refuses(garbage)

    @settings(max_examples=150, deadline=None)
    @given(message=_net_messages, flip=st.integers(0, 10**6),
           cut=st.integers(0, 400), extra=st.binary(max_size=8))
    def test_mutated_bodies_never_crash(self, message, flip, cut, extra):
        encoded = bytearray(net_wire.encode_net_message(message))
        encoded[flip % len(encoded)] ^= 1 + (flip % 255)
        _decodes_or_refuses(bytes(encoded))
        _decodes_or_refuses(bytes(encoded[:cut]) + extra)

    @settings(max_examples=150, deadline=None)
    @given(tag=st.integers(0x0A, 0x0D), origin=st.binary(max_size=300),
           tail=st.binary(max_size=16))
    def test_repl_frames_with_any_origin_bytes(self, tag, origin, tail):
        """REPL_* frames carry whatever origin bytes a peer sends: valid
        UTF-8 within the cap decodes to that origin, anything else is
        refused as a protocol error."""
        body = (bytes([tag]) + struct.pack(">H", len(origin)) + origin
                + tail)
        message = _decodes_or_refuses(body)
        if message is not None:
            assert message.origin == origin.decode("utf-8")
