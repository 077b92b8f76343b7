"""The store contract, over every store and wrapper with the disk interface.

A batch of frames is one ``numpy.uint8`` matrix the caller owns; single
frames are ``bytes``; ``poke`` is the adversary's write.  Three ownership
rules ride on that (each test here fails if its rule is broken):

* a read is the caller's — writing into it never changes the store (an
  injected corrupt read included: tests/test_faults_injection.py);
* whoever retains a frame copies it;
* a refused read charges nothing (the never-written check runs before the
  virtual clock moves).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AuthenticationError, StorageError
from repro.faults import FaultInjector, FaultyDiskStore
from repro.sim.clock import VirtualClock
from repro.storage.disk import DiskStore
from repro.storage.filedisk import FileDiskStore
from repro.storage.merkle import AuthenticatedDisk
from repro.storage.tiered import TieredDiskStore
from repro.storage.timing import DiskTimingModel
from repro.storage.trace import AccessTrace

from tests.helpers import rows

LOCATIONS, FRAME = 16, 8


def frame_of(value: int) -> bytes:
    return bytes([value]) * FRAME


def _memory(tmp_path):
    return DiskStore(LOCATIONS, FRAME, DiskTimingModel(), VirtualClock(),
                     AccessTrace())


def _file(tmp_path):
    return FileDiskStore(str(tmp_path / "frames.bin"), LOCATIONS, FRAME,
                         DiskTimingModel(), VirtualClock(), AccessTrace())


STORES = {
    "memory": _memory,
    "file": _file,
    "merkle": lambda tmp_path: AuthenticatedDisk(_memory(tmp_path)),
    "tiered-hot": lambda tmp_path: TieredDiskStore(_memory(tmp_path), 64),
    # A one-frame tier: every range read goes to the cold store.
    "tiered-cold": lambda tmp_path: TieredDiskStore(_file(tmp_path), 1),
    "faulty": lambda tmp_path: FaultyDiskStore(_memory(tmp_path),
                                               FaultInjector(seed=1)),
}


@pytest.fixture(params=sorted(STORES))
def store(request, tmp_path):
    disk = STORES[request.param](tmp_path)
    disk.write_range(0, [frame_of(i) for i in range(LOCATIONS)])
    yield disk
    disk.close()


class TestBatchIsAMatrix:
    def test_range_and_request_reads_are_contiguous_uint8_matrices(self, store):
        block = store.read_range(4, 3)
        assert isinstance(block, np.ndarray) and block.dtype == np.uint8
        assert block.shape == (3, FRAME) and block.flags.c_contiguous
        assert rows(block) == [frame_of(i) for i in (4, 5, 6)]
        request = store.read_request(4, 3, 11)
        assert request.shape == (4, FRAME) and request.flags.c_contiguous
        # The block's frames, then the extra frame as the last row.
        assert rows(request) == [frame_of(i) for i in (4, 5, 6, 11)]

    def test_single_frame_reads_are_bytes(self, store):
        assert store.read(5) == frame_of(5) and type(store.read(5)) is bytes
        assert store.peek(5) == frame_of(5) and type(store.peek(5)) is bytes

    def test_writes_take_a_matrix_or_any_sequence_of_rows(self, store):
        matrix = np.frombuffer(frame_of(0xA1) + frame_of(0xA2), np.uint8)
        store.write_range(2, matrix.reshape(2, FRAME))
        store.write_range(4, (bytearray(frame_of(0xA3)),
                              memoryview(frame_of(0xA4))))
        request = store.read_request(8, 2, 12)
        request[:] = 0xA5
        store.write_request(8, request[:2], 12, request[2])
        assert [store.peek(i) for i in (2, 3, 4, 5, 8, 9, 12)] == [
            frame_of(v) for v in (0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA5, 0xA5)
        ]

    def test_wrong_frame_size_is_refused_in_either_spelling(self, store):
        with pytest.raises(StorageError):
            store.write_range(0, [bytes(FRAME - 1)])
        with pytest.raises(StorageError):
            store.write_range(0, np.zeros((2, FRAME + 1), np.uint8))
        with pytest.raises(StorageError):
            store.write(0, bytes(FRAME + 1))


class TestAWrapperForwardsAssignment:
    @pytest.mark.parametrize(
        "name", [name for name in sorted(STORES)
                 if name not in ("memory", "file")])
    def test_tracer_and_request_index_reach_the_store_doing_the_io(
            self, name, tmp_path):
        from repro.obs import Tracer

        disk = STORES[name](tmp_path)
        base = disk.inner
        assert isinstance(base, DiskStore)
        tracer = Tracer()
        disk.tracer = tracer
        disk.current_request = 7
        assert base.tracer is tracer and disk.tracer is tracer
        assert base.current_request == 7 == disk.current_request
        disk.write_range(0, [frame_of(1), frame_of(2)])
        assert [span.name for span in tracer.spans] == ["disk.write"]
        assert [event.request_index for event in disk.trace] == [7]
        disk.close()


class TestAReadIsTheCallers:
    def test_writing_into_a_read_never_changes_the_store(self, store):
        for _ in range(2):  # the second pass reads whatever tier the first warmed
            block = store.read_range(0, 4)
            block[:] = 0xEE
            request = store.read_request(4, 3, 9)
            request[:] = 0xEE
        assert [store.peek(i) for i in range(LOCATIONS)] == [
            frame_of(i) for i in range(LOCATIONS)
        ]
        assert rows(store.read_range(0, 4)) == [frame_of(i) for i in range(4)]
        assert rows(store.read_request(4, 3, 9)) == [
            frame_of(i) for i in (4, 5, 6, 9)
        ]

    def test_the_store_keeps_no_alias_of_a_written_matrix(self, store):
        matrix = np.full((3, FRAME), 0x33, np.uint8)
        store.write_range(5, matrix)
        matrix[:] = 0x44
        assert rows(store.read_range(5, 3)) == [frame_of(0x33)] * 3


class TestWhoeverRetainsCopies:
    def test_hot_entries_are_owned_bytes(self, tmp_path):
        tier = TieredDiskStore(_memory(tmp_path), 64)
        written = np.full((4, FRAME), 7, np.uint8)
        tier.write_range(0, written)                            # matrix write
        tier.cold.write_range(4, [frame_of(i) for i in range(4, 12)])
        cold_read = tier.read_range(4, 4)                       # cold read
        request = tier.read_request(8, 3, 11)
        assert tier.hot_frames == 12
        # The tier keeps copies: a retained matrix row would pin the whole
        # window it came in, and follow whatever its owner does to it next.
        for matrix in (written, cold_read, request):
            matrix[:] = 0xEE
        assert tier.resident() == list(range(12))
        for location in tier.resident():
            frame = tier.hot_frame(location)
            assert type(frame) is bytes
            assert frame == tier.cold.peek(location)
        # ... and a hot read hands out a copy, not its own row.
        tier.read_range(0, 4)[:] = 0xDD
        tier.read(5)
        assert tier.hot_frame(0) == frame_of(7)
        assert tier.hot_frame(12) is None


class TestPoke:
    def test_poke_is_untimed_untraced_and_visible_to_the_next_read(self, store):
        clock, events = store.clock.now, len(store.trace)
        store.poke(6, frame_of(0x66))
        assert store.peek(6) == frame_of(0x66)
        assert (store.clock.now, len(store.trace)) == (clock, events)
        if isinstance(store, AuthenticatedDisk):
            # Tampering behind the tree is what the next read must catch.
            with pytest.raises(AuthenticationError):
                store.read(6)
        else:
            assert store.read(6) == frame_of(0x66)
            assert rows(store.read_range(5, 3))[1] == frame_of(0x66)

    def test_poke_checks_location_and_frame_size(self, store):
        with pytest.raises(StorageError):
            store.poke(LOCATIONS, frame_of(1))
        with pytest.raises(StorageError):
            store.poke(0, bytes(FRAME - 1))

    @pytest.mark.parametrize("make", [_memory, _file], ids=["memory", "file"])
    def test_poke_initialises_a_location(self, make, tmp_path):
        disk = make(tmp_path)
        assert disk.peek(3) is None
        disk.poke(3, frame_of(3))
        assert disk.initialised_locations() == 1
        assert disk.read(3) == frame_of(3)
        disk.close()


@pytest.mark.parametrize("make", [_memory, _file], ids=["memory", "file"])
class TestWrittenBitmap:
    def test_initialised_locations_counts_the_bitmap(self, make, tmp_path):
        disk = make(tmp_path)
        assert disk.initialised_locations() == 0
        disk.write_range(2, [bytes(FRAME)] * 3)
        disk.write(9, bytes(FRAME))
        disk.write(3, bytes(FRAME))  # a rewrite is not a new location
        assert disk.initialised_locations() == 4
        disk.close()

    def test_refused_read_names_the_first_gap_and_charges_nothing(
            self, make, tmp_path):
        disk = make(tmp_path)
        disk.write_range(4, [bytes(FRAME)] * 2)   # 4, 5
        disk.write(7, bytes(FRAME))               # 6 is the first gap
        clock, events = disk.clock.now, len(disk.trace)
        with pytest.raises(StorageError, match="location 6 was never written"):
            disk.read_range(4, 4)
        with pytest.raises(StorageError, match="location 8 was never written"):
            disk.read(8)
        # The extra is checked before the block is charged, too.
        with pytest.raises(StorageError, match="location 9 was never written"):
            disk.read_request(4, 2, 9)
        with pytest.raises(StorageError, match="outside disk"):
            disk.read_request(4, 2, LOCATIONS)
        assert (disk.clock.now, len(disk.trace)) == (clock, events)
        disk.read_range(4, 2)
        assert disk.clock.now > clock and len(disk.trace) == events + 1
        disk.close()
