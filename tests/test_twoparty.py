"""Two-party model: wire codec, channel, provider, owner, full sessions."""

from __future__ import annotations

import pytest

from repro.baselines import make_records
from repro.errors import ConfigurationError, PageDeletedError, ProtocolError
from repro.hardware.coprocessor import SecureCoprocessor
from repro.sim.clock import VirtualClock
from repro.twoparty import (
    ServiceProvider,
    SimulatedChannel,
    TwoPartySession,
)
from repro.twoparty import messages as wire

FRAME = 32


class TestMessageCodec:
    def _roundtrip(self, message):
        return wire.decode(wire.encode(message, FRAME), FRAME)

    def test_upload(self):
        message = wire.Upload(7, (bytes(FRAME), b"\x01" * FRAME))
        assert self._roundtrip(message) == message

    def test_upload_ack(self):
        assert self._roundtrip(wire.UploadAck()) == wire.UploadAck()

    def test_read_request(self):
        message = wire.ReadRequest(16, 8, 99)
        assert self._roundtrip(message) == message

    def test_read_response(self):
        message = wire.ReadResponse((bytes(FRAME),) * 3, b"\x02" * FRAME)
        assert self._roundtrip(message) == message

    def test_write_request(self):
        message = wire.WriteRequest(8, (bytes(FRAME),) * 2, 40, b"\x03" * FRAME)
        assert self._roundtrip(message) == message

    def test_write_ack_and_error(self):
        assert self._roundtrip(wire.WriteAck()) == wire.WriteAck()
        assert self._roundtrip(wire.ErrorReply("boom")) == wire.ErrorReply("boom")

    def test_wrong_frame_size_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            wire.encode(wire.Upload(0, (bytes(FRAME - 1),)), FRAME)

    def test_empty_message(self):
        with pytest.raises(ProtocolError):
            wire.decode(b"", FRAME)

    def test_unknown_opcode(self):
        with pytest.raises(ProtocolError):
            wire.decode(b"\xee", FRAME)

    def test_truncated_frames(self):
        encoded = wire.encode(wire.Upload(0, (bytes(FRAME),) * 2), FRAME)
        with pytest.raises(ProtocolError):
            wire.decode(encoded[:-1], FRAME)

    def test_trailing_garbage(self):
        encoded = wire.encode(wire.WriteAck(), FRAME)
        with pytest.raises(ProtocolError):
            wire.decode(encoded + b"\x00", FRAME)

    def test_bad_read_request_length(self):
        with pytest.raises(ProtocolError):
            wire.decode(b"\x03" + bytes(10), FRAME)


class TestChannel:
    def test_charges_rtt_and_bytes(self):
        clock = VirtualClock()
        channel = SimulatedChannel(clock, lambda req: b"R" * 100,
                                   rtt=0.05, bandwidth=1000)
        channel.call(b"Q" * 100)
        # 0.05 RTT + 200 bytes / 1000 B/s = 0.25 s.
        assert clock.now == pytest.approx(0.25)

    def test_counters(self):
        channel = SimulatedChannel(VirtualClock(), lambda req: b"xy")
        channel.call(b"abc")
        channel.call(b"d")
        assert channel.counters.get("round_trips") == 2
        assert channel.total_bytes == (3 + 1) + (2 + 2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulatedChannel(VirtualClock(), lambda r: r, rtt=-1)
        with pytest.raises(ConfigurationError):
            SimulatedChannel(VirtualClock(), lambda r: r, bandwidth=0)


class TestProvider:
    def _provider(self):
        return ServiceProvider(num_locations=16, frame_size=FRAME,
                               clock=VirtualClock())

    def test_upload_then_read(self):
        provider = self._provider()
        frames = tuple(bytes([i]) * FRAME for i in range(16))
        provider.serve(wire.encode(wire.Upload(0, frames), FRAME))
        response = provider.serve(
            wire.encode(wire.ReadRequest(0, 4, 10), FRAME)
        )
        reply = wire.decode(response, FRAME)
        assert isinstance(reply, wire.ReadResponse)
        assert reply.frames == frames[0:4]
        assert reply.extra_frame == frames[10]

    def test_write_request(self):
        provider = self._provider()
        provider.serve(wire.encode(wire.Upload(0, tuple(bytes(FRAME) for _ in range(16))), FRAME))
        new_frames = tuple(b"\x07" * FRAME for _ in range(4))
        response = provider.serve(
            wire.encode(wire.WriteRequest(4, new_frames, 12, b"\x08" * FRAME), FRAME)
        )
        assert isinstance(wire.decode(response, FRAME), wire.WriteAck)
        assert provider.disk.peek(5) == b"\x07" * FRAME
        assert provider.disk.peek(12) == b"\x08" * FRAME

    def test_malformed_request_yields_error_reply(self):
        provider = self._provider()
        reply = wire.decode(provider.serve(b"\xee\x00"), FRAME)
        assert isinstance(reply, wire.ErrorReply)

    def test_out_of_bounds_yields_error_reply(self):
        provider = self._provider()
        reply = wire.decode(
            provider.serve(wire.encode(wire.ReadRequest(0, 99, 0), FRAME)), FRAME
        )
        assert isinstance(reply, wire.ErrorReply)
        assert "StorageError" in reply.message

    def test_unhandled_message_type(self):
        provider = self._provider()
        reply = wire.decode(
            provider.serve(wire.encode(wire.WriteAck(), FRAME)), FRAME
        )
        assert isinstance(reply, wire.ErrorReply)


class TestSession:
    @pytest.fixture(scope="class")
    def session(self):
        return TwoPartySession.create(
            make_records(60, 16),
            cache_capacity=8,
            target_c=2.0,
            page_capacity=16,
            reserve_fraction=0.2,
            seed=99,
        )

    def test_queries_correct(self, session):
        records = make_records(60, 16)
        for page_id in (0, 13, 59):
            assert session.query(page_id) == records[page_id]

    def test_two_round_trips_per_query(self, session):
        before = session.channel.counters.get("round_trips")
        session.query(5)
        assert session.channel.counters.get("round_trips") == before + 2

    def test_latency_includes_rtt(self, session):
        series = session.measure_queries([1, 2, 3])
        # Two round trips of 50 ms RTT each = at least 100 ms.
        assert series.minimum() >= 0.1

    def test_latency_constant(self, session):
        series = session.measure_queries([4, 4, 5, 6, 4])
        assert series.coefficient_of_variation() < 1e-9

    def test_updates_and_inserts(self, session):
        session.update(7, b"owner-edit")
        assert session.query(7) == b"owner-edit"
        new_id = session.insert(b"outsourced")
        assert session.query(new_id) == b"outsourced"

    def test_delete(self, session):
        session.delete(11)
        with pytest.raises(PageDeletedError):
            session.query(11)

    def test_provider_sees_uniform_access_counts(self, session):
        """Every provider-visible request is one block read + one extra read
        + the matching writes — sizes never vary with the operation."""
        k = session.owner.params.block_size
        read_counts = {
            e.count for e in session.provider_trace if e.op == "read"
        }
        assert read_counts == {k, 1}

    def test_owner_storage_accounting(self, session):
        assert session.owner.owner_storage_bytes() > 0

    def test_setup_upload_equals_per_page_sealing(self, monkeypatch):
        """``create`` seals each upload batch in one call; the provider holds
        what a same-seed twin sealing page by page uploads."""
        def frames_after_create():
            session = TwoPartySession.create(
                make_records(60, 16), cache_capacity=8, target_c=2.0,
                page_capacity=16, seed=99,
            )
            disk = session.provider.disk
            return [disk.peek(loc) for loc in range(disk.num_locations)]

        batched = frames_after_create()
        monkeypatch.setattr(
            SecureCoprocessor, "seal_pages",
            lambda cop, pages: [cop.seal(page) for page in pages],
        )
        assert frames_after_create() == batched

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigurationError):
            TwoPartySession.create([], cache_capacity=4)
