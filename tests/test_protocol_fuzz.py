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
