"""The store contract, over every store and wrapper with the disk interface.

A disk access is a sequence of ``(location, count)`` ranges handed to one of
two verbs, ``read_ranges`` / ``write_ranges``; the single-range calls are
derived from them once.  A batch of frames is one ``numpy.uint8`` matrix the
caller owns; single frames are ``bytes``; ``poke`` is the adversary's write.
Each test here fails if its rule is broken:

* a read is the caller's — writing into it never changes the store (an
  injected corrupt read included: tests/test_faults_injection.py);
* whoever retains a frame copies it;
* a refused call charges nothing: every range is validated before the first
  is charged, and a wrapper validates through ``check_readable`` before it
  does anything else (a fault wrapper draws no fault decision);
* each range is one access — one event, one fault decision — in order;
* the derived calls are the verb;
* every store flushes and closes, so a database closes over any of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    AuthenticationError,
    ProtocolError,
    StorageError,
    TransientStorageError,
)
from repro.core.engine import BatchOp
from repro.faults import (
    SITE_DISK_READ,
    SITE_DISK_WRITE,
    FaultInjector,
    FaultyDiskStore,
    SimulatedCrash,
    corrupt_reads,
    crash_after_writes,
    transient_reads,
    transient_writes,
)
from repro.sim.clock import VirtualClock
from repro.storage.disk import DiskStore
from repro.storage.filedisk import FileDiskStore
from repro.storage.merkle import AuthenticatedDisk
from repro.storage.tiered import TieredDiskStore
from repro.storage.timing import DiskTimingModel
from repro.storage.trace import READ, WRITE, AccessTrace
from repro.twoparty import RemoteDisk, ServiceProvider, SimulatedChannel

from tests.helpers import make_db, rows

LOCATIONS, FRAME = 16, 8

# A remote store reports the provider's refusal, whatever its class there.
REFUSED = (StorageError, ProtocolError)


def frame_of(value: int) -> bytes:
    return bytes([value]) * FRAME


def _wiring(args):
    """``(num_locations, frame_size, timing, clock, trace)``: a
    ``disk_factory``'s arguments, or a small store of this module's own."""
    return args or (LOCATIONS, FRAME, DiskTimingModel(), VirtualClock(),
                    AccessTrace())


def _memory(tmp_path, *args):
    return DiskStore(*_wiring(args))


def _file(tmp_path, *args):
    return FileDiskStore(str(tmp_path / "frames.bin"), *_wiring(args))


class ObservedRemoteDisk(RemoteDisk):
    """A :class:`RemoteDisk` over a :class:`ServiceProvider`, plus the
    adversary's view of the provider's disk — what these tests inspect and
    a real owner does not have.  The channel is free (no RTT, no transfer
    time), so the clock moves only when the provider's disk is charged."""

    def __init__(self, num_locations, frame_size, timing, clock, trace):
        self.provider = ServiceProvider(num_locations, frame_size, clock,
                                        timing)
        self.provider.disk.trace = trace
        super().__init__(
            SimulatedChannel(clock, self.provider.serve, rtt=0.0,
                             bandwidth=float("inf")),
            num_locations, frame_size,
        )

    clock = property(lambda self: self.provider.disk.clock)
    trace = property(lambda self: self.provider.disk.trace)

    def peek(self, location):
        return self.provider.disk.peek(location)

    def peek_range(self, location, count):
        return self.provider.disk.peek_range(location, count)

    def poke(self, location, frame):
        self.provider.disk.poke(location, frame)


STORES = {
    "memory": _memory,
    "file": _file,
    "merkle": lambda tmp_path, *args: AuthenticatedDisk(
        _memory(tmp_path, *args)),
    "tiered-hot": lambda tmp_path, *args: TieredDiskStore(
        _memory(tmp_path, *args), 64),
    # A one-frame tier: every range read goes to the cold store.
    "tiered-cold": lambda tmp_path, *args: TieredDiskStore(
        _file(tmp_path, *args), 1),
    "faulty": lambda tmp_path, *args: FaultyDiskStore(
        _memory(tmp_path, *args), FaultInjector(seed=1)),
    "remote": lambda tmp_path, *args: ObservedRemoteDisk(*_wiring(args)),
}


def filled(disk):
    disk.write_range(0, [frame_of(i) for i in range(LOCATIONS)])
    return disk


@pytest.fixture(params=sorted(STORES))
def store(request, tmp_path):
    disk = filled(STORES[request.param](tmp_path))
    yield disk
    disk.close()


@pytest.fixture(params=sorted(STORES))
def twins(request, tmp_path):
    """Two stores built the same way, holding the same frames."""
    pair = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        pair.append(filled(STORES[request.param](tmp_path / side)))
    yield pair
    for disk in pair:
        disk.close()


def events(disk, start=0):
    return [(e.op, e.location, e.count, e.request_index, e.timestamp)
            for e in list(disk.trace)[start:]]


def contents(disk):
    return [disk.peek(location) for location in range(LOCATIONS)]


def faulty(store, *plans):
    """``store`` behind a :class:`FaultyDiskStore`, and the list of fault
    decisions (site, frames) it draws, in order."""
    injector = FaultInjector(seed=5, plans=plans)
    decisions = []
    check = injector.check

    def recording_check(site, frames=1):
        decisions.append((site, frames))
        return check(site, frames)

    injector.check = recording_check
    return FaultyDiskStore(store, injector), decisions


class TestBatchIsAMatrix:
    def test_range_and_request_reads_are_contiguous_uint8_matrices(self, store):
        block = store.read_range(4, 3)
        assert isinstance(block, np.ndarray) and block.dtype == np.uint8
        assert block.shape == (3, FRAME) and block.flags.c_contiguous
        assert rows(block) == [frame_of(i) for i in (4, 5, 6)]
        request = store.read_ranges([(4, 3), (11, 1)])
        assert isinstance(request, np.ndarray) and request.dtype == np.uint8
        assert request.shape == (4, FRAME) and request.flags.c_contiguous
        # The ranges' frames back to back, in range order.
        assert rows(request) == [frame_of(i) for i in (4, 5, 6, 11)]
        assert store.read_ranges([(11, 1), (4, 1), (11, 1)]).tobytes() == \
            frame_of(11) + frame_of(4) + frame_of(11)

    def test_single_frame_reads_are_bytes(self, store):
        assert store.read(5) == frame_of(5) and type(store.read(5)) is bytes
        assert store.peek(5) == frame_of(5) and type(store.peek(5)) is bytes

    def test_writes_take_a_matrix_or_any_sequence_of_rows(self, store):
        matrix = np.frombuffer(frame_of(0xA1) + frame_of(0xA2), np.uint8)
        store.write_range(2, matrix.reshape(2, FRAME))
        store.write_range(4, (bytearray(frame_of(0xA3)),
                              memoryview(frame_of(0xA4))))
        request = store.read_ranges([(8, 2), (12, 1)])
        request[:] = 0xA5
        store.write_ranges([(8, 2), (12, 1)], request)
        store.write_ranges([(14, 1), (0, 1)],
                           [frame_of(0xA6), bytearray(frame_of(0xA7))])
        assert [store.peek(i) for i in (2, 3, 4, 5, 8, 9, 12, 14, 0)] == [
            frame_of(v) for v in (0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA5, 0xA5,
                                  0xA6, 0xA7)
        ]

    def test_wrong_frame_size_is_refused_in_either_spelling(self, store):
        with pytest.raises(StorageError):
            store.write_range(0, [bytes(FRAME - 1)])
        with pytest.raises(StorageError):
            store.write_range(0, np.zeros((2, FRAME + 1), np.uint8))
        with pytest.raises(StorageError):
            store.write(0, bytes(FRAME + 1))
        with pytest.raises(StorageError):
            store.write_ranges([(0, 1), (4, 1)],
                               [bytes(FRAME), bytes(FRAME - 1)])


class TestDerivedCallsAreTheVerb:
    def test_same_frames_same_events_same_clock(self, twins):
        derived, verb = twins
        for disk in twins:
            disk.current_request = 3
        assert derived.read(5) == verb.read_ranges([(5, 1)]).tobytes()
        assert rows(derived.read_range(4, 3)) == rows(verb.read_ranges([(4, 3)]))
        derived.write(2, frame_of(0xB1))
        verb.write_ranges([(2, 1)], [frame_of(0xB1)])
        derived.write_range(6, [frame_of(0xB2), frame_of(0xB3)])
        verb.write_ranges([(6, 2)], [frame_of(0xB2), frame_of(0xB3)])
        # A call of several ranges is its ranges, one access each.
        assert rows(verb.read_ranges([(8, 2), (1, 1)])) == \
            rows(derived.read_range(8, 2)) + [derived.read(1)]
        verb.write_ranges([(10, 2), (15, 1)], [frame_of(0xB4)] * 3)
        derived.write_range(10, [frame_of(0xB4)] * 2)
        derived.write(15, frame_of(0xB4))
        assert events(derived) == events(verb)
        assert contents(derived) == contents(verb)
        assert derived.clock.now == verb.clock.now


class TestARefusedCallChargesNothing:
    """Every range is validated before the first one is charged."""

    def _untouched(self, disk, attempt):
        before = (disk.clock.now, events(disk), contents(disk))
        with pytest.raises(REFUSED):
            attempt()
        assert (disk.clock.now, events(disk), contents(disk)) == before

    def test_a_bad_later_range_refuses_the_whole_read(self, store):
        for bad in ((LOCATIONS, 1), (LOCATIONS - 1, 2), (-1, 1), (3, 0)):
            self._untouched(store, lambda: store.read_ranges([(0, 2), bad]))

    @pytest.mark.parametrize("name", sorted(STORES))
    def test_a_never_written_later_range_refuses_the_whole_read(
            self, name, tmp_path):
        disk = STORES[name](tmp_path)
        disk.write_range(0, [frame_of(i) for i in range(8)])  # 8.. is a gap
        for _ in range(2):  # the second pass finds (0, 2) in a warmed tier
            self._untouched(disk, lambda: disk.read_ranges([(0, 2), (7, 2)]))
            assert rows(disk.read_range(0, 2)) == [frame_of(0), frame_of(1)]
        disk.close()

    def test_a_bad_later_range_refuses_the_whole_write(self, store):
        fresh = [frame_of(0xC1)] * 3
        for bad in ((LOCATIONS, 1), (-1, 1)):
            self._untouched(
                store, lambda: store.write_ranges([(0, 2), bad], fresh))
        # Frames that do not fill the ranges land nowhere either.
        self._untouched(
            store, lambda: store.write_ranges([(0, 2), (5, 2)], fresh))
        self._untouched(store, lambda: store.write_ranges([(0, 2)], fresh))


class TestARefusedCallDrawsNoFault:
    """A fault wrapper validates a call as its store would before drawing
    the first fault decision: a call the store refuses burns no fault
    ordinal, and the fault waits for the first call it accepts."""

    def test_bad_ranges_and_unfilled_writes(self, store):
        disk, decisions = faulty(store, transient_reads(times=1),
                                 transient_writes(times=1))
        fresh = [frame_of(0xF1)] * 3
        for bad in ((LOCATIONS, 1), (LOCATIONS - 1, 2), (-1, 1), (3, 0)):
            with pytest.raises(REFUSED):
                disk.read_ranges([(0, 2), bad])
            with pytest.raises(REFUSED):
                disk.write_ranges([(0, 2), bad], fresh)
        with pytest.raises(REFUSED):
            disk.write_ranges([(0, 2), (5, 2)], fresh)
        assert decisions == []
        with pytest.raises(TransientStorageError):
            disk.read_ranges([(0, 2)])
        with pytest.raises(TransientStorageError):
            disk.write_ranges([(0, 2)], fresh[:2])
        assert contents(store) == [frame_of(i) for i in range(LOCATIONS)]

    # Whether a remote location was ever written only the provider knows.
    @pytest.mark.parametrize(
        "name", [name for name in sorted(STORES) if name != "remote"])
    def test_a_never_written_range(self, name, tmp_path):
        inner = STORES[name](tmp_path)
        inner.write_range(0, [frame_of(i) for i in range(8)])  # 8.. is a gap
        disk, decisions = faulty(inner, transient_reads(times=1))
        with pytest.raises(StorageError):
            disk.read_ranges([(0, 2), (7, 2)])
        assert decisions == []
        with pytest.raises(TransientStorageError):
            disk.read_range(0, 2)
        inner.close()


class TestATierOverAnyStore:
    @pytest.mark.parametrize("name", ["merkle", "remote"])
    def test_the_cold_store_validates_through_the_contract(
            self, name, tmp_path):
        tier = filled(TieredDiskStore(STORES[name](tmp_path), 4))
        assert rows(tier.read_ranges([(0, 2), (9, 1)])) == [
            frame_of(0), frame_of(1), frame_of(9)]
        before = (tier.clock.now, events(tier))
        with pytest.raises(REFUSED):
            tier.read_ranges([(0, 2), (LOCATIONS, 1)])
        assert (tier.clock.now, events(tier)) == before
        tier.close()


class TestLifecycle:
    @pytest.mark.parametrize("name", sorted(STORES))
    def test_a_database_flushes_and_closes_over_every_store(
            self, name, tmp_path):
        db = make_db(seed=7,
                     disk_factory=lambda *args: STORES[name](tmp_path, *args))
        db.query(3)
        db.close()  # flushes the store
        db.disk.close()
        db.disk.close()  # idempotent


class TestEachRangeIsOneAccess:
    """One event and one fault decision per range, in the order given."""

    READS = [(8, 2), (3, 1), (12, 4)]
    WRITES = [(4, 2), (13, 1), (0, 3)]

    def test_one_event_per_range_in_order(self, store):
        store.current_request = 11
        before = len(events(store))
        store.read_ranges(self.READS)
        store.write_ranges(self.WRITES, [frame_of(0xD1)] * 6)
        seen = events(store, before)
        index = 11 if not isinstance(store, RemoteDisk) else -1
        assert [e[:4] for e in seen] == (
            [(READ, location, count, index) for location, count in self.READS]
            + [(WRITE, location, count, index)
               for location, count in self.WRITES]
        )
        stamps = [e[4] for e in seen]
        # Each range pays its own seek: no two accesses share a timestamp.
        assert stamps == sorted(set(stamps))

    def test_one_fault_decision_per_range_in_order(self, store):
        disk, decisions = faulty(store)
        disk.read_ranges(self.READS)
        disk.write_ranges(self.WRITES, [frame_of(0xD2)] * 6)
        assert decisions == (
            [(SITE_DISK_READ, count) for _, count in self.READS]
            + [(SITE_DISK_WRITE, count) for _, count in self.WRITES]
        )

    def test_a_transient_fault_stops_the_call_at_its_range(self, store):
        disk, decisions = faulty(
            store,
            transient_reads(times=1, after=1),
            transient_writes(times=1, after=1),
        )
        before = len(events(store))
        with pytest.raises(TransientStorageError):
            disk.read_ranges(self.READS)
        with pytest.raises(TransientStorageError):
            disk.write_ranges(self.WRITES, [frame_of(0xD3)] * 6)
        # The range before the fault happened; the faulted one and the one
        # after it never did, and drew no decision.
        assert [e[:3] for e in events(store, before)] == [
            (READ, *self.READS[0]), (WRITE, *self.WRITES[0]),
        ]
        assert len(decisions) == 4
        assert contents(store) == [
            frame_of(0xD3 if i in (4, 5) else i) for i in range(LOCATIONS)
        ]

    def test_a_crash_lands_the_ranges_before_it_and_a_torn_prefix(self, store):
        disk, _ = faulty(store, crash_after_writes(4))
        before = len(events(store))
        with pytest.raises(SimulatedCrash):
            disk.write_ranges(self.WRITES, [frame_of(0xD4)] * 6)
        # (4, 2) and (13, 1) landed, then one frame of (0, 3).
        assert [e[:3] for e in events(store, before)] == [
            (WRITE, 4, 2), (WRITE, 13, 1), (WRITE, 0, 1),
        ]
        assert contents(store) == [
            frame_of(0xD4 if i in (0, 4, 5, 13) else i)
            for i in range(LOCATIONS)
        ]

    def test_a_corrupt_read_damages_one_frame_of_its_range(self, store):
        disk, _ = faulty(store, corrupt_reads(times=1, after=2))
        damaged = rows(disk.read_ranges(self.READS))
        clean = rows(store.read_ranges(self.READS))
        differing = [i for i in range(7) if damaged[i] != clean[i]]
        assert len(differing) == 1 and differing[0] >= 3  # a row of (12, 4)
        assert contents(store) == [frame_of(i) for i in range(LOCATIONS)]


class TestARemoteVerbIsOneRoundTrip:
    def test_any_number_of_ranges_is_one_message_each_way(self, tmp_path):
        disk = filled(STORES["remote"](tmp_path))
        trips = disk.channel.counters.get("round_trips")
        disk.read_ranges([(0, 4), (9, 1), (12, 1), (2, 1)])
        assert disk.channel.counters.get("round_trips") == trips + 1
        disk.write_ranges([(0, 4), (9, 1), (12, 1)], [frame_of(0xE1)] * 6)
        assert disk.channel.counters.get("round_trips") == trips + 2
        # ... through a wrapper as well: it forwards the ranges together.
        wrapped = AuthenticatedDisk(STORES["remote"](tmp_path))
        filled(wrapped)
        trips = wrapped.inner.channel.counters.get("round_trips")
        wrapped.read_ranges([(0, 4), (9, 1)])
        wrapped.write_ranges([(0, 4), (9, 1)], [frame_of(0xE2)] * 5)
        assert wrapped.inner.channel.counters.get("round_trips") == trips + 2


class TestAWindowOnEveryStore:
    """The engine's accesses for windows of one and of four ops:
    ``READ(k), READ(1) x B, WRITE(k), WRITE(1) x B`` — the same ranges in
    the same order whichever store serves them."""

    def _run(self, name, path):
        path.mkdir()
        db = make_db(seed=7, disk_factory=lambda *args: STORES[name](path, *args))
        start = len(db.trace)
        db.query(3)
        db.engine.run_batch(
            [BatchOp("query", page_id=page_id) for page_id in (5, 9, 5, 20)]
        )
        seen = events(db.disk, start)
        db.disk.close()
        return db.params.block_size, seen

    @pytest.mark.parametrize("name", sorted(STORES))
    def test_same_accesses_as_the_memory_store(self, name, tmp_path):
        k, seen = self._run(name, tmp_path / "store")
        _, reference = self._run("memory", tmp_path / "reference")
        assert [(op, count) for op, _, count, _, _ in seen] == (
            [(READ, k), (READ, 1), (WRITE, k), (WRITE, 1)]
            + [(READ, k)] + [(READ, 1)] * 4 + [(WRITE, k)] + [(WRITE, 1)] * 4
        )
        assert [e[:3] for e in seen] == [e[:3] for e in reference]
        if name != "remote":  # the wire carries no request attribution
            first = reference[0][3]
            # A window's accesses all carry its first op's ordinal.
            assert [e[3] for e in seen] == [first] * 4 + [first + 1] * 10
        if not name.startswith("tiered"):  # a hot hit is charged less
            assert [e[4] for e in seen] == [e[4] for e in reference]


class TestAWrapperForwardsAssignment:
    @pytest.mark.parametrize(
        "name", [name for name in sorted(STORES)
                 if name not in ("memory", "file", "remote")])
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
            request = store.read_ranges([(4, 3), (9, 1)])
            request[:] = 0xEE
        assert [store.peek(i) for i in range(LOCATIONS)] == [
            frame_of(i) for i in range(LOCATIONS)
        ]
        assert rows(store.read_range(0, 4)) == [frame_of(i) for i in range(4)]
        assert rows(store.read_ranges([(4, 3), (9, 1)])) == [
            frame_of(i) for i in (4, 5, 6, 9)
        ]

    def test_the_store_keeps_no_alias_of_a_written_matrix(self, store):
        matrix = np.full((3, FRAME), 0x33, np.uint8)
        store.write_range(5, matrix)
        matrix[:] = 0x44
        assert rows(store.read_range(5, 3)) == [frame_of(0x33)] * 3
        store.write_ranges([(1, 2), (9, 1)], matrix)
        matrix[:] = 0x55
        assert rows(store.read_ranges([(1, 2), (9, 1)])) == [frame_of(0x44)] * 3


class TestWhoeverRetainsCopies:
    def test_hot_entries_are_owned_bytes(self, tmp_path):
        tier = TieredDiskStore(_memory(tmp_path), 64)
        written = np.full((4, FRAME), 7, np.uint8)
        tier.write_range(0, written)                            # matrix write
        tier.cold.write_range(4, [frame_of(i) for i in range(4, 12)])
        cold_read = tier.read_range(4, 4)                       # cold read
        request = tier.read_ranges([(8, 3), (11, 1)])
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


class TestPeekRange:
    """The uncharged range form of ``peek`` that snapshots dump through."""

    def test_a_range_of_raw_frames_untimed_untraced_and_owned(self, store):
        clock, events = store.clock.now, len(store.trace)
        frames = store.peek_range(2, 5)
        assert frames.dtype == np.uint8 and frames.flags.c_contiguous
        assert rows(frames) == [frame_of(i) for i in range(2, 7)]
        assert (store.clock.now, len(store.trace)) == (clock, events)
        frames[:] = 0xEE
        assert store.peek_range(2, 5)[0].tobytes() == frame_of(2)
        store.poke(3, frame_of(0x33))
        assert rows(store.peek_range(3, 1)) == [frame_of(0x33)]

    def test_refuses_what_a_read_refuses(self, store):
        for location, count in [(LOCATIONS - 1, 2), (0, 0), (-1, 1)]:
            with pytest.raises(StorageError):
                store.peek_range(location, count)

    @pytest.mark.parametrize("make", [_memory, _file], ids=["memory", "file"])
    def test_a_never_written_location_is_refused(self, make, tmp_path):
        disk = make(tmp_path)
        disk.write_range(0, [frame_of(i) for i in range(4)])
        with pytest.raises(StorageError, match="location 4 was never written"):
            disk.peek_range(2, 3)
        assert rows(disk.peek_range(0, 4)) == [frame_of(i) for i in range(4)]
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
        # A later range is checked before the first is charged, too.
        with pytest.raises(StorageError, match="location 9 was never written"):
            disk.read_ranges([(4, 2), (9, 1)])
        with pytest.raises(StorageError, match="outside disk"):
            disk.read_ranges([(4, 2), (LOCATIONS, 1)])
        assert (disk.clock.now, len(disk.trace)) == (clock, events)
        disk.read_range(4, 2)
        assert disk.clock.now > clock and len(disk.trace) == events + 1
        disk.close()
