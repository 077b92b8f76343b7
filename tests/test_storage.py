"""Storage substrate: pages, disk, timing model, access trace."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, StorageError
from repro.sim.clock import VirtualClock
from repro.storage.disk import DiskStore
from repro.storage.page import (
    DUMMY_ID,
    FLAG_DELETED,
    HEADER_SIZE,
    Page,
    PageWindow,
    decode_headers,
    encode_pages,
)
from repro.storage.timing import DiskTimingModel
from repro.storage.trace import READ, WRITE, AccessEvent, AccessTrace, shapes_identical

from tests.helpers import rows


class TestPage:
    def test_roundtrip(self):
        page = Page(7, b"payload bytes")
        assert Page.decode(page.encode(32)) == page

    def test_fixed_encoding_size(self):
        assert len(Page(1, b"abc").encode(100)) == HEADER_SIZE + 100
        assert len(Page(1, b"").encode(100)) == HEADER_SIZE + 100

    def test_deleted_flag_roundtrip(self):
        page = Page(3, b"", deleted=True)
        assert Page.decode(page.encode(8)).deleted

    def test_dummy(self):
        dummy = Page.dummy()
        assert dummy.is_dummy and dummy.is_free
        assert Page.decode(dummy.encode(4)).page_id == DUMMY_ID

    def test_is_free(self):
        assert Page(1, b"", deleted=True).is_free
        assert not Page(1, b"x").is_free

    def test_with_payload_and_mark_deleted(self):
        page = Page(5, b"old")
        updated = page.with_payload(b"new")
        assert updated.payload == b"new" and not updated.deleted
        gone = updated.mark_deleted()
        assert gone.deleted and gone.payload == b""
        assert page.payload == b"old"  # immutability

    def test_payload_too_large(self):
        with pytest.raises(StorageError):
            Page(1, bytes(10)).encode(9)

    def test_bad_id(self):
        with pytest.raises(StorageError):
            Page(-1)
        with pytest.raises(StorageError):
            Page(DUMMY_ID + 1)

    def test_decode_truncated(self):
        with pytest.raises(StorageError):
            Page.decode(bytes(HEADER_SIZE - 1))

    def test_decode_lying_header(self):
        raw = bytearray(Page(1, b"ab").encode(2))
        raw[9:13] = (100).to_bytes(4, "big")  # claims 100-byte payload
        with pytest.raises(StorageError):
            Page.decode(bytes(raw))

    @settings(max_examples=40, deadline=None)
    @given(
        page_id=st.integers(min_value=0, max_value=DUMMY_ID),
        payload=st.binary(max_size=64),
        deleted=st.booleans(),
    )
    def test_roundtrip_property(self, page_id, payload, deleted):
        page = Page(page_id, payload, deleted)
        assert Page.decode(page.encode(64)) == page


# -- the same layout over a whole window ---------------------------------------

_pages = st.lists(
    st.builds(
        Page,
        st.one_of(st.integers(0, DUMMY_ID), st.just(DUMMY_ID)),
        st.binary(max_size=24),
        st.booleans(),
    ),
    min_size=0, max_size=9,
)


def _matrix_of(pages, capacity):
    """The reference plaintext matrix: one ``Page.encode`` per row."""
    return np.frombuffer(
        bytearray().join(page.encode(capacity) for page in pages), np.uint8
    ).reshape(len(pages), HEADER_SIZE + capacity)


class TestWindowCodec:
    """``decode_headers`` / ``encode_pages`` / ``PageWindow`` against the
    per-page loop they replaced (kept here as the reference)."""

    @settings(max_examples=60, deadline=None)
    @given(pages=_pages, capacity=st.sampled_from((24, 40)))
    def test_one_pass_codec_equals_the_per_page_loop(self, pages, capacity):
        reference = _matrix_of(pages, capacity)
        plain = encode_pages(pages, capacity)
        assert plain.dtype == np.uint8 and plain.flags.c_contiguous
        assert plain.tobytes() == reference.tobytes()
        ids, flags, lengths = decode_headers(plain)
        decoded = [Page.decode(bytes(row)) for row in reference]
        assert ids == [page.page_id for page in decoded]
        assert [bool(flag & FLAG_DELETED) for flag in flags] \
            == [page.deleted for page in decoded]
        assert lengths == [len(page.payload) for page in decoded]
        assert list(PageWindow(plain)) == decoded

    def test_dummy_id_survives_the_u8_column(self):
        pages = [Page.dummy(), Page(DUMMY_ID - 1, b"x"), Page(0, b"")]
        plain = encode_pages(pages, 4)
        assert decode_headers(plain)[0] == [DUMMY_ID, DUMMY_ID - 1, 0]
        window = PageWindow(plain)
        assert window[0].is_dummy and window[0] == Page.dummy()
        assert type(window[1].page_id) is int

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_lying_header_in_any_row_raises_what_page_decode_raises(self, row):
        plain = encode_pages([Page(i, b"ab") for i in range(5)], 2)
        plain[row, 9:13] = np.frombuffer((3).to_bytes(4, "big"), np.uint8)
        with pytest.raises(StorageError) as single:
            Page.decode(bytes(plain[row]))
        for decode in (decode_headers, PageWindow):
            with pytest.raises(StorageError) as window:
                decode(plain)
            assert str(window.value) == str(single.value)

    def test_truncated_rows_raise_what_page_decode_raises(self):
        with pytest.raises(StorageError) as single:
            Page.decode(bytes(HEADER_SIZE - 1))
        with pytest.raises(StorageError) as window:
            decode_headers(np.zeros((3, HEADER_SIZE - 1), np.uint8))
        assert str(window.value) == str(single.value)

    def test_encode_pages_validates_like_page_encode(self):
        with pytest.raises(StorageError) as single:
            Page(1, bytes(10)).encode(9)
        with pytest.raises(StorageError) as window:
            encode_pages([Page(0, b""), Page(1, bytes(10))], 9)
        assert str(window.value) == str(single.value)
        assert encode_pages([], 8).shape == (0, HEADER_SIZE + 8)

    def test_pages_are_views_and_decoded_only_on_demand(self):
        plain = encode_pages([Page(i, bytes([i]) * 3) for i in range(6)], 8)
        window = PageWindow(plain)
        assert len(window) == 6 and window._pages == {}
        page = window[4]
        assert isinstance(page.payload, memoryview) and page == Page(4, b"\4" * 3)
        assert window[4] is page and set(window._pages) == {4}
        plain[4, HEADER_SIZE] = 0xFF          # zero-copy: a view of the row
        assert page.payload[0] == 0xFF
        with pytest.raises(IndexError):
            window[6]
        with pytest.raises(IndexError):
            window[6] = page

    @settings(max_examples=40, deadline=None)
    @given(pages=_pages.filter(len), data=st.data())
    def test_untouched_rows_reseal_as_decode_then_encode(self, pages, data):
        capacity = 24
        plain = _matrix_of(pages, capacity)
        before = [bytes(row) for row in plain]
        window = PageWindow(plain)
        replaced = data.draw(st.sets(st.integers(0, len(pages) - 1)))
        for slot in replaced:
            window[slot] = Page(slot, b"replaced")
        out = window.plaintext(capacity)
        assert out is plain                    # rewritten in place, no copy
        for slot, row in enumerate(out):
            if slot in replaced:
                assert bytes(row) == Page(slot, b"replaced").encode(capacity)
            else:
                assert bytes(row) == before[slot] \
                    == Page.decode(before[slot]).encode(capacity)

    def test_displaced_pages_are_encoded_before_any_row_is_overwritten(self):
        """The swap every request performs: the page of an early row moves
        into a later slot (and back) while its own row is rewritten."""
        capacity = 8
        pages = [Page(i, bytes([0x10 + i]) * 8) for i in range(5)]
        window = PageWindow(_matrix_of(pages, capacity))
        early, late = window[1], window[4]
        window[4] = early                       # block page -> later slot
        window[1] = Page(99, b"evicted!")       # its own row is overwritten
        window[0] = late                        # later page -> earlier slot
        out = window.plaintext(capacity)
        assert [Page.decode(bytes(row)) for row in out] == [
            pages[4], Page(99, b"evicted!"), pages[2], pages[3], pages[1],
        ]

    def test_extend_appends_a_later_fetch(self):
        capacity = 4
        window = PageWindow(_matrix_of([Page(0, b"a"), Page(1, b"b")], capacity))
        held = window[1]
        window.extend(PageWindow(_matrix_of([Page(7, b"c")], capacity)))
        window.extend(PageWindow(_matrix_of([Page(8, b"d")], capacity)))
        assert len(window) == 4 and window[1] is held
        assert [page.page_id for page in window] == [0, 1, 7, 8]
        # A block page displaced into a later fetch's slot, and the reverse.
        window[3], window[0] = window[0], window[3]
        window[1] = Page(5, b"new")
        out = window.plaintext(capacity)
        assert out.shape == (4, HEADER_SIZE + capacity)
        assert [Page.decode(bytes(row)) for row in out] == [
            Page(8, b"d"), Page(5, b"new"), Page(7, b"c"), Page(0, b"a"),
        ]
        assert list(window) == [Page.decode(bytes(row)) for row in out]


class TestTimingModel:
    def test_table2_read_time(self):
        model = DiskTimingModel()
        # 5 ms seek + 1 MB / (100 MB/s) = 15 ms.
        assert model.read_time(10**6) == pytest.approx(0.015)

    def test_write_time(self):
        model = DiskTimingModel(seek_time=0.001, write_bandwidth=1e6)
        assert model.write_time(1000) == pytest.approx(0.002)

    def test_instantaneous(self):
        model = DiskTimingModel.instantaneous()
        assert model.read_time(10**9) == 0.0
        assert model.write_time(10**9) == 0.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            DiskTimingModel(seek_time=-1)
        with pytest.raises(ConfigurationError):
            DiskTimingModel(read_bandwidth=0)
        with pytest.raises(ConfigurationError):
            DiskTimingModel().read_time(-1)


class TestDiskStore:
    def _disk(self, n=16, frame=8, timing=None):
        return DiskStore(n, frame, timing=timing, clock=VirtualClock())

    def test_write_then_read(self):
        disk = self._disk()
        disk.write(3, b"12345678")
        assert disk.read(3) == b"12345678"

    def test_range_roundtrip(self):
        disk = self._disk()
        frames = [bytes([i]) * 8 for i in range(4)]
        disk.write_range(2, frames)
        assert rows(disk.read_range(2, 4)) == frames

    def test_read_uninitialised(self):
        with pytest.raises(StorageError):
            self._disk().read(0)

    def test_bounds(self):
        disk = self._disk()
        with pytest.raises(StorageError):
            disk.read_range(14, 3)
        with pytest.raises(StorageError):
            disk.write(-1, bytes(8))
        with pytest.raises(StorageError):
            disk.read_range(0, 0)

    def test_frame_size_enforced(self):
        disk = self._disk()
        with pytest.raises(StorageError):
            disk.write(0, bytes(7))

    def test_timing_charged(self):
        disk = self._disk(timing=DiskTimingModel(seek_time=0.01, read_bandwidth=800,
                                                 write_bandwidth=800))
        disk.write_range(0, [bytes(8)] * 2)  # 0.01 + 16/800 = 0.03
        assert disk.clock.now == pytest.approx(0.03)
        disk.read_range(0, 2)
        assert disk.clock.now == pytest.approx(0.06)

    def test_trace_records_request_attribution(self):
        disk = self._disk()
        disk.write_range(0, [bytes(8)] * 4)
        disk.current_request = 9
        disk.read_range(0, 2)
        disk.read(3)
        events = disk.trace.events_for_request(9)
        assert [(e.op, e.location, e.count) for e in events] == [
            (READ, 0, 2),
            (READ, 3, 1),
        ]

    def test_peek_has_no_side_effects(self):
        disk = self._disk(timing=DiskTimingModel())
        disk.write(0, bytes(8))
        before_time, before_events = disk.clock.now, len(disk.trace)
        assert disk.peek(0) == bytes(8)
        assert disk.peek(1) is None
        assert disk.clock.now == before_time
        assert len(disk.trace) == before_events

    def test_initialised_locations(self):
        disk = self._disk()
        assert disk.initialised_locations() == 0
        disk.write_range(0, [bytes(8)] * 5)
        assert disk.initialised_locations() == 5

    def test_invalid_construction(self):
        with pytest.raises(StorageError):
            DiskStore(0, 8)
        with pytest.raises(StorageError):
            DiskStore(4, 0)


class TestAccessTrace:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            AccessEvent("move", 0, 1)
        with pytest.raises(ConfigurationError):
            AccessEvent(READ, -1, 1)
        with pytest.raises(ConfigurationError):
            AccessEvent(READ, 0, 0)

    def test_disabled_trace_records_nothing(self):
        trace = AccessTrace(enabled=False)
        trace.record(AccessEvent(READ, 0, 1))
        assert len(trace) == 0

    def test_location_counts(self):
        trace = AccessTrace()
        trace.record(AccessEvent(READ, 0, 3, 0))
        trace.record(AccessEvent(READ, 2, 2, 1))
        trace.record(AccessEvent(WRITE, 2, 1, 1))
        reads = trace.location_read_counts()
        assert reads[2] == 2 and reads[0] == 1 and reads[4] == 0
        assert trace.location_write_counts()[2] == 1

    def test_request_shapes(self):
        trace = AccessTrace()
        for request in range(3):
            trace.record(AccessEvent(READ, request, 4, request))
            trace.record(AccessEvent(READ, 10, 1, request))
            trace.record(AccessEvent(WRITE, request, 4, request))
            trace.record(AccessEvent(WRITE, 10, 1, request))
        assert trace.request_shape(1) == [(READ, 4), (READ, 1), (WRITE, 4), (WRITE, 1)]
        assert shapes_identical(trace, 0)
        assert trace.num_requests() == 3

    def test_shapes_differ_detected(self):
        trace = AccessTrace()
        trace.record(AccessEvent(READ, 0, 4, 0))
        trace.record(AccessEvent(READ, 0, 5, 1))
        assert not shapes_identical(trace, 0, 1)

    def test_bytes_transferred(self):
        trace = AccessTrace()
        trace.record(AccessEvent(READ, 0, 3, 0))
        trace.record(AccessEvent(WRITE, 0, 2, 0))
        assert trace.bytes_transferred(100) == 500
        with pytest.raises(ConfigurationError):
            trace.bytes_transferred(0)

    def test_summary_and_clear(self):
        trace = AccessTrace()
        trace.record(AccessEvent(READ, 0, 1, 0))
        assert trace.summary()["reads"] == 1
        trace.clear()
        assert len(trace) == 0
