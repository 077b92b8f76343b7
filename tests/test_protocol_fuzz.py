"""Property-based fuzzing of both wire codecs (two-party + client service).

Protocol decoders face adversarial bytes by definition; these tests check
(1) encode/decode round-trips for arbitrary field values, and (2) the
decoders never crash with anything but :class:`ProtocolError` on arbitrary
or mutated input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.service import protocol as client_wire
from repro.twoparty import messages as disk_wire

FRAME = 24
_frames = st.lists(
    st.binary(min_size=FRAME, max_size=FRAME), min_size=0, max_size=6
).map(tuple)
_frame = st.binary(min_size=FRAME, max_size=FRAME)
_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_u32 = st.integers(min_value=0, max_value=2**32 - 1)
_payload = st.binary(max_size=200)


class TestDiskWireRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(start=_u64, frames=_frames)
    def test_upload(self, start, frames):
        message = disk_wire.Upload(start, frames)
        assert disk_wire.decode(disk_wire.encode(message, FRAME), FRAME) == message

    @settings(max_examples=40, deadline=None)
    @given(block=_u64, count=_u32, extra=_u64)
    def test_read_request(self, block, count, extra):
        message = disk_wire.ReadRequest(block, count, extra)
        assert disk_wire.decode(disk_wire.encode(message, FRAME), FRAME) == message

    @settings(max_examples=40, deadline=None)
    @given(frames=_frames, extra=_frame)
    def test_read_response(self, frames, extra):
        message = disk_wire.ReadResponse(frames, extra)
        assert disk_wire.decode(disk_wire.encode(message, FRAME), FRAME) == message

    @settings(max_examples=40, deadline=None)
    @given(block=_u64, frames=_frames, extra_loc=_u64, extra=_frame)
    def test_write_request(self, block, frames, extra_loc, extra):
        message = disk_wire.WriteRequest(block, frames, extra_loc, extra)
        assert disk_wire.decode(disk_wire.encode(message, FRAME), FRAME) == message

    @settings(max_examples=40, deadline=None)
    @given(reason=st.text(max_size=100))
    def test_error_reply(self, reason):
        message = disk_wire.ErrorReply(reason)
        assert disk_wire.decode(disk_wire.encode(message, FRAME), FRAME) == message


class TestDiskWireRobustness:
    @settings(max_examples=100, deadline=None)
    @given(garbage=st.binary(max_size=300))
    def test_arbitrary_bytes_never_crash(self, garbage):
        try:
            disk_wire.decode(garbage, FRAME)
        except ProtocolError:
            pass  # the only acceptable failure mode

    @settings(max_examples=60, deadline=None)
    @given(
        frames=_frames,
        cut=st.integers(min_value=0, max_value=400),
    )
    def test_truncation_never_crashes(self, frames, cut):
        encoded = disk_wire.encode(disk_wire.Upload(0, frames), FRAME)
        try:
            decoded = disk_wire.decode(encoded[:cut], FRAME)
            # A prefix that still decodes must decode to the same message
            # (only possible when nothing was cut).
            assert cut >= len(encoded) or decoded == disk_wire.Upload(0, frames)
        except ProtocolError:
            pass


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
