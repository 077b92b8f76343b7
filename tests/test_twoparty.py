"""Two-party model: wire codec, channel, provider, owner, full sessions."""

from __future__ import annotations

import pytest

from repro import PirDatabase
from repro.baselines import CApproxScheme, make_records, measure_latencies
from repro.core.engine import BatchOp
from repro.crypto.rng import SecureRandom
from repro.errors import ConfigurationError, PageDeletedError, ProtocolError
from repro.hardware.coprocessor import SecureCoprocessor
from repro.sim.clock import VirtualClock
from repro.storage.timing import DiskTimingModel
from repro.storage.trace import READ, WRITE
from repro.twoparty import (
    ServiceProvider,
    SimulatedChannel,
    TwoPartySession,
)
from repro.twoparty import messages as wire
from repro.workload import uniform_stream
from tests.helpers import make_db

FRAME = 32


class TestMessageCodec:
    def _roundtrip(self, message):
        return wire.decode(wire.encode(message, FRAME), FRAME)

    def test_upload(self):
        """The setup upload is a write of one range."""
        message = wire.WriteRanges(((7, 2),), bytes(FRAME) + b"\x01" * FRAME)
        assert self._roundtrip(message) == message

    def test_upload_ack(self):
        assert self._roundtrip(wire.Ack()) == wire.Ack()

    def test_read_ranges(self):
        message = wire.ReadRanges(((16, 8), (99, 1), (2**64 - 1, 2**32 - 1)))
        assert self._roundtrip(message) == message
        assert self._roundtrip(wire.ReadRanges(())) == wire.ReadRanges(())

    def test_read_response(self):
        message = wire.Frames(bytes(FRAME) * 3 + b"\x02" * FRAME)
        assert self._roundtrip(message) == message

    def test_write_ranges(self):
        message = wire.WriteRanges(
            ((8, 2), (40, 1)), bytes(FRAME) * 2 + b"\x03" * FRAME
        )
        assert self._roundtrip(message) == message

    def test_write_ack_and_error(self):
        assert wire.encode(wire.Ack(), FRAME) == b"\x04"
        assert self._roundtrip(wire.ErrorReply("boom")) == wire.ErrorReply("boom")

    def test_wrong_frame_size_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            wire.encode(wire.WriteRanges(((0, 1),), bytes(FRAME - 1)), FRAME)
        with pytest.raises(ProtocolError):
            wire.encode(wire.Frames(bytes(FRAME + 1)), FRAME)
        # Whole frames, but not as many as the ranges name.
        with pytest.raises(ProtocolError):
            wire.encode(wire.WriteRanges(((0, 2),), bytes(FRAME)), FRAME)

    def test_empty_message(self):
        with pytest.raises(ProtocolError):
            wire.decode(b"", FRAME)

    def test_unknown_opcode(self):
        with pytest.raises(ProtocolError):
            wire.decode(b"\xee", FRAME)

    def test_truncated_frames(self):
        for message in (wire.WriteRanges(((0, 2),), bytes(2 * FRAME)),
                        wire.Frames(bytes(2 * FRAME))):
            encoded = wire.encode(message, FRAME)
            with pytest.raises(ProtocolError):
                wire.decode(encoded[:-1], FRAME)

    def test_trailing_garbage(self):
        for message in (wire.Ack(), wire.ReadRanges(((0, 1),)),
                        wire.Frames(bytes(FRAME)),
                        wire.WriteRanges(((0, 1),), bytes(FRAME))):
            encoded = wire.encode(message, FRAME)
            with pytest.raises(ProtocolError):
                wire.decode(encoded + b"\x00", FRAME)

    def test_bad_read_ranges_length(self):
        # Two ranges announced, one and a half present.
        with pytest.raises(ProtocolError):
            wire.decode(b"\x01" + (2).to_bytes(4, "big") + bytes(18), FRAME)
        with pytest.raises(ProtocolError):
            wire.decode(b"\x01\x00\x00", FRAME)

    def test_range_count_is_bounded(self):
        """A hostile count is refused before anything is built from it,
        and the owner cannot send what the provider would refuse."""
        over = (wire.MAX_RANGES + 1).to_bytes(4, "big")
        for opcode in (b"\x01", b"\x03"):
            with pytest.raises(ProtocolError, match="bound"):
                wire.decode(opcode + over + bytes(64), FRAME)
        with pytest.raises(ProtocolError, match="bound"):
            wire.encode(wire.ReadRanges(((0, 1),) * (wire.MAX_RANGES + 1)),
                        FRAME)
        at_bound = wire.ReadRanges(((0, 1),) * wire.MAX_RANGES)
        assert self._roundtrip(at_bound) == at_bound


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

    def _upload(self, provider, frames):
        reply = provider.serve(wire.encode(
            wire.WriteRanges(((0, len(frames)),), b"".join(frames)), FRAME
        ))
        assert wire.decode(reply, FRAME) == wire.Ack()

    def test_upload_then_read(self):
        provider = self._provider()
        frames = [bytes([i]) * FRAME for i in range(16)]
        self._upload(provider, frames)
        response = provider.serve(
            wire.encode(wire.ReadRanges(((0, 4), (10, 1))), FRAME)
        )
        assert wire.decode(response, FRAME) == wire.Frames(
            b"".join(frames[0:4] + [frames[10]])
        )

    def test_write_ranges(self):
        provider = self._provider()
        self._upload(provider, [bytes(FRAME)] * 16)
        response = provider.serve(wire.encode(
            wire.WriteRanges(((4, 4), (12, 1)),
                             b"\x07" * (4 * FRAME) + b"\x08" * FRAME),
            FRAME,
        ))
        assert wire.decode(response, FRAME) == wire.Ack()
        assert provider.disk.peek(5) == b"\x07" * FRAME
        assert provider.disk.peek(12) == b"\x08" * FRAME

    def test_malformed_request_yields_error_reply(self):
        provider = self._provider()
        reply = wire.decode(provider.serve(b"\xee\x00"), FRAME)
        assert isinstance(reply, wire.ErrorReply)

    def test_out_of_bounds_yields_error_reply(self):
        provider = self._provider()
        reply = wire.decode(
            provider.serve(wire.encode(wire.ReadRanges(((0, 99), (0, 1))),
                                       FRAME)), FRAME
        )
        assert isinstance(reply, wire.ErrorReply)
        assert "StorageError" in reply.message

    def test_every_access_is_on_the_adversary_trace(self):
        """The provider records what it touches, always: its trace is the
        adversary's view, as the three-party server's is."""
        provider = self._provider()
        self._upload(provider, [bytes(FRAME)] * 16)
        provider.serve(wire.encode(wire.ReadRanges(((2, 3), (9, 1))), FRAME))
        assert provider.trace.enabled
        assert [(e.op, e.location, e.count) for e in provider.trace] == [
            (WRITE, 0, 16), (READ, 2, 3), (READ, 9, 1)]

    def test_accesses_charge_the_default_disk_timing(self):
        """Each range is one seek plus its bytes at the default disk's
        bandwidth, charged to the provider's clock."""
        clock = VirtualClock()
        provider = ServiceProvider(num_locations=16, frame_size=FRAME,
                                   clock=clock)
        timing = DiskTimingModel()
        self._upload(provider, [bytes(FRAME)] * 16)
        assert clock.now == pytest.approx(timing.write_time(16 * FRAME))
        before = clock.now
        provider.serve(wire.encode(wire.ReadRanges(((2, 3), (9, 1))), FRAME))
        assert clock.now - before == pytest.approx(
            timing.read_time(3 * FRAME) + timing.read_time(FRAME))

    def test_unhandled_message_type(self):
        provider = self._provider()
        reply = wire.decode(
            provider.serve(wire.encode(wire.Ack(), FRAME)), FRAME
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
            assert session.owner.query(page_id) == records[page_id]

    def test_two_round_trips_per_query(self, session):
        before = session.channel.counters.get("round_trips")
        session.owner.query(5)
        assert session.channel.counters.get("round_trips") == before + 2

    def test_latency_includes_rtt(self, session):
        series = measure_latencies(CApproxScheme(session.owner), [1, 2, 3])
        # Two round trips of 50 ms RTT each = at least 100 ms.
        assert series.minimum() >= 0.1

    def test_latency_constant(self, session):
        series = measure_latencies(CApproxScheme(session.owner),
                                   [4, 4, 5, 6, 4])
        assert series.coefficient_of_variation() < 1e-9

    def test_updates_and_inserts(self, session):
        session.owner.update(7, b"owner-edit")
        assert session.owner.query(7) == b"owner-edit"
        new_id = session.owner.insert(b"outsourced")
        assert session.owner.query(new_id) == b"outsourced"

    def test_delete(self, session):
        session.owner.delete(11)
        with pytest.raises(PageDeletedError):
            session.owner.query(11)

    def test_provider_sees_uniform_access_counts(self, session):
        """Every provider-visible request is one block read + one extra read
        + the matching writes — sizes never vary with the operation."""
        k = session.owner.params.block_size
        read_counts = {
            e.count for e in session.provider.trace if e.op == "read"
        }
        assert read_counts == {k, 1}

    def test_owner_storage_accounting(self, session):
        assert session.owner.storage_report().total > 0

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
            lambda cop, pages: [
                cop.suite.encrypt_page(page.encode(cop.page_capacity))
                for page in pages
            ],
        )
        assert frames_after_create() == batched

    def test_empty_records_rejected(self):
        with pytest.raises(ConfigurationError):
            TwoPartySession.create([], cache_capacity=4)

    def test_same_stream_two_schemes(self):
        """One query stream answers identically in the three-party and the
        two-party deployment."""
        records = make_records(30, 16)
        local = make_db(num_records=30, seed=613)
        owner = TwoPartySession.create(records, cache_capacity=8,
                                       page_capacity=16, seed=614).owner
        for page_id in uniform_stream(30, 30, SecureRandom(10)):
            assert local.query(page_id) == owner.query(page_id)


class TestWindowOverTheWire:
    """A window of B > 1 ops over the two-party model: the engine's only
    store calls are the two verbs, which are the wire's two requests."""

    CONFIG = dict(cache_capacity=8, target_c=2.0, page_capacity=16, seed=99)

    @pytest.mark.parametrize("rollback_protection", [False, True])
    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_window_equals_single_queries(self, width, rollback_protection):
        def session():
            return TwoPartySession.create(
                make_records(60, 16), rollback_protection=rollback_protection,
                **self.CONFIG,
            )

        page_ids = [5, 17, 23, 31, 44][:width]
        single = session()
        expected = [single.owner.query(page_id) for page_id in page_ids]

        windowed = session()
        trips = windowed.channel.counters.get("round_trips")
        events = len(windowed.provider.trace)
        ops = [BatchOp("query", page_id=page_id) for page_id in page_ids]
        assert windowed.owner.run_batch(ops) == expected
        # Three round trips whatever B: the block with the first op's
        # extra, every later op's extra, and the whole write-back.
        assert windowed.channel.counters.get("round_trips") == trips + 3

        # The provider saw what a local store sees for the same window.
        local = PirDatabase.create(make_records(60, 16), **self.CONFIG)
        k = local.params.block_size
        assert k == windowed.owner.params.block_size
        before = len(local.trace)
        local.engine.run_batch(ops)

        def shape(trace, start):
            return [(e.op, e.count) for e in list(trace)[start:]]

        assert shape(windowed.provider.trace, events) == shape(local.trace, before) \
            == [("read", k)] + [("read", 1)] * width \
            + [("write", k)] + [("write", 1)] * width
