"""The I/O scheduler: pass-through, deferral, coalescing, forcing.

The contract under test is the charge/byte split: the protocol half
(``prepare_write`` / ``charge_read``) always runs on the submitting
thread, the byte half may be deferred — and a reader must never see
the store without bytes it already paid for.
"""

import threading

import pytest

from repro.engine import DEMAND, READAHEAD, WRITE_BEHIND, IoScheduler
from repro.segments.swap_mapper import SwapMapper


class RecordingMapper(SwapMapper):
    """A swap mapper that records the order of protocol/byte calls."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def prepare_write(self, key, offset, data):
        self.calls.append(("prepare", offset, len(data)))
        return super().prepare_write(key, offset, data)

    def write_range(self, key, offset, data):
        self.calls.append(("write_range", offset, len(data)))
        super().write_range(key, offset, data)

    def read_segment(self, key, offset, size):
        self.calls.append(("read", offset, size))
        return super().read_segment(key, offset, size)


class GatedMapper(SwapMapper):
    """Blocks every ``write_range`` until ``release()`` — pins the one
    worker so later submissions stay queued deterministically."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def write_range(self, key, offset, data):
        self.entered.set()
        assert self.gate.wait(timeout=10), "gate never released"
        super().write_range(key, offset, data)

    def release(self):
        self.gate.set()


def make_segment(mapper):
    return mapper.create_temporary().key


class TestSynchronousPassThrough:
    def test_zero_threads_starts_no_workers(self):
        io = IoScheduler(threads=0)
        assert io.threads == 0
        assert threading.active_count() == threading.active_count()
        assert not io._workers

    def test_write_is_prepare_then_range_on_caller(self):
        mapper = RecordingMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=0)
        io.write_segment(mapper, key, 0, b"hello")
        assert mapper.calls == [("prepare", 0, 5), ("write_range", 0, 5)]
        assert io.read_segment(mapper, key, 0, 5) == b"hello"

    def test_write_behind_priority_still_executes_inline(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=0)
        with io.classify(WRITE_BEHIND):
            io.write_segment(mapper, key, 0, b"sync")
        assert io.depth == 0
        assert mapper.read_segment(key, 0, 4) == b"sync"
        assert io.stats["inline"] == 1
        assert io.stats["deferred"] == 0


class TestDeferral:
    def test_write_behind_defers_and_flush_drains(self):
        mapper = GatedMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"deferred")
            assert io.stats["deferred"] == 1
            mapper.release()
            io.flush()
            assert io.depth == 0
            assert mapper.read_range(key, 0, 8) == b"deferred"
        finally:
            mapper.release()
            io.close()

    def test_demand_and_readahead_never_defer(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        try:
            for priority in (DEMAND, READAHEAD):
                with io.classify(priority):
                    io.write_segment(mapper, key, 0, b"now")
                assert io.depth == 0
            assert io.stats["deferred"] == 0
        finally:
            io.close()

    def test_worker_error_surfaces_at_flush(self):
        class Exploding(SwapMapper):
            def write_range(self, key, offset, data):
                raise RuntimeError("store died")

        mapper = Exploding()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        with io.classify(WRITE_BEHIND):
            io.write_segment(mapper, key, 0, b"boom")
        with pytest.raises(RuntimeError, match="store died"):
            io.flush()
        io.close()

    def test_close_drains_then_submissions_run_inline(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        with io.classify(WRITE_BEHIND):
            io.write_segment(mapper, key, 0, b"before")
        io.close()
        assert mapper.read_range(key, 0, 6) == b"before"
        with io.classify(WRITE_BEHIND):
            io.write_segment(mapper, key, 8, b"after")
        assert mapper.read_range(key, 8, 5) == b"after"


class TestCoalescing:
    # Below the dispatch watermark workers stay asleep, so small
    # deferred writes sit queued deterministically — no need to pin
    # the pool on a decoy.

    def test_touching_writes_merge_into_one_request(self):
        io = IoScheduler(threads=1)
        mapper = SwapMapper()
        key = make_segment(mapper)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"aaaa")
                io.write_segment(mapper, key, 4, b"bbbb")   # touching
                io.write_segment(mapper, key, 2, b"CC")     # overlapping
            assert io.stats["coalesced"] == 2
            assert io.depth == 1
            assert io.coalesce_rate == pytest.approx(2 / 3)
            io.flush()
            # The overlap landed newest-last: CC over the aaaa bytes.
            assert mapper.read_range(key, 0, 8) == b"aaCCbbbb"
        finally:
            io.close()

    def test_disjoint_writes_stay_separate(self):
        io = IoScheduler(threads=1)
        mapper = SwapMapper()
        key = make_segment(mapper)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"aa")
                io.write_segment(mapper, key, 100, b"bb")
            assert io.stats["coalesced"] == 0
            assert io.depth == 2
            io.flush()
            assert mapper.read_range(key, 0, 2) == b"aa"
            assert mapper.read_range(key, 100, 2) == b"bb"
        finally:
            io.close()

    def test_merged_request_is_a_single_contiguous_write(self):
        # Coalescing is zero-copy at submit: fragments accumulate and
        # are stitched only at execution — a contiguous run of
        # fragments must still reach the store as ONE write_range.
        io = IoScheduler(threads=1)
        mapper = RecordingMapper()
        key = make_segment(mapper)
        try:
            with io.classify(WRITE_BEHIND):
                for index in range(4):
                    io.write_segment(mapper, key, index * 4, b"abcd")
            assert io.stats["coalesced"] == 3
            io.flush()
            writes = [call for call in mapper.calls
                      if call[0] == "write_range"]
            assert writes == [("write_range", 0, 16)]
            assert mapper.read_range(key, 0, 16) == b"abcd" * 4
        finally:
            io.close()

    def test_merging_stops_at_the_transfer_size_bound(self):
        io = IoScheduler(threads=1, max_coalesce_bytes=8)
        mapper = SwapMapper()
        key = make_segment(mapper)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"aaaa")
                io.write_segment(mapper, key, 4, b"bbbb")   # 8 bytes: fits
                io.write_segment(mapper, key, 8, b"cccc")   # 12: new request
            assert io.stats["coalesced"] == 1
            assert io.depth == 2
            io.flush()
            assert mapper.read_range(key, 0, 12) == b"aaaabbbbcccc"
        finally:
            io.close()


class TestForcing:
    def test_read_forces_overlapping_queued_write(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"paid-for")
            # The read must observe the deferred bytes: the queued
            # write is executed on the reading thread first.
            assert io.read_segment(mapper, key, 0, 8) == b"paid-for"
            assert io.stats["forced"] == 1
            assert io.depth == 0
        finally:
            io.close()

    def test_synchronous_write_supersedes_covered_queued_write(self):
        mapper = RecordingMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"old bytes")
            io.write_segment(mapper, key, 0, b"new bytes")  # DEMAND
            assert io.stats["superseded"] == 1
            io.flush()
            # The superseded request never executed: one write_range.
            writes = [call for call in mapper.calls
                      if call[0] == "write_range"]
            assert writes == [("write_range", 0, 9)]
            assert mapper.read_range(key, 0, 9) == b"new bytes"
        finally:
            io.close()

    def test_discard_drops_queued_writes_for_key(self):
        mapper = RecordingMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"wasted")
            io.discard(mapper, key)
            io.flush()
            assert not [call for call in mapper.calls
                        if call[0] == "write_range"]
        finally:
            io.close()


class TestBackpressure:
    def test_over_budget_write_executes_on_submitter(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1, max_buffered_bytes=4)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 100, b"too big for queue")
            assert io.stats["stalls"] == 1
            # Absorbed inline: the bytes are already in the store.
            assert mapper.read_range(key, 100, 17) == b"too big for queue"
            assert io.depth == 0
        finally:
            io.close()

    def test_dispatch_waits_for_the_watermark(self):
        # Batched dispatch: the worker is woken only once wake_bytes
        # are pending (or at flush) — small writes stay queued.
        mapper = GatedMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1, wake_bytes=64)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"a" * 32)
            assert not mapper.entered.wait(timeout=0.1)
            assert io.depth == 1
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 100, b"b" * 32)
            # 64 pending bytes reach the watermark: the pool wakes.
            assert mapper.entered.wait(timeout=10)
            mapper.release()
            io.flush()
            assert io.depth == 0
        finally:
            mapper.release()
            io.close()


class TestScopes:
    def test_on_done_fires_immediately_when_nothing_deferred(self):
        io = IoScheduler(threads=0)
        fired = []
        with io.classify(WRITE_BEHIND, on_done=lambda: fired.append(1)):
            pass
        assert fired == [1]

    def test_on_done_waits_for_the_deferred_write(self):
        mapper = GatedMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        fired = threading.Event()
        try:
            with io.classify(WRITE_BEHIND, on_done=fired.set):
                io.write_segment(mapper, key, 0, b"later")
            assert not fired.is_set()
            mapper.release()
            io.flush()
            assert fired.wait(timeout=10)
        finally:
            mapper.release()
            io.close()

    def test_on_done_fires_exactly_once_across_coalesce(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        fired = []
        try:
            with io.classify(WRITE_BEHIND, on_done=lambda: fired.append(1)):
                io.write_segment(mapper, key, 0, b"aa")
                io.write_segment(mapper, key, 2, b"bb")    # coalesces
            io.flush()
            assert fired == [1]
        finally:
            io.close()


class TestOpaqueMappers:
    def test_split_io_false_routes_full_segment_ops(self):
        class Proxy(SwapMapper):
            split_io = False

            def __init__(self):
                super().__init__()
                self.segment_ops = []

            def read_segment(self, key, offset, size):
                self.segment_ops.append("read")
                return super().read_segment(key, offset, size)

            def write_segment(self, key, offset, data):
                self.segment_ops.append("write")
                super().write_segment(key, offset, data)

        mapper = Proxy()
        key = make_segment(mapper)
        io = IoScheduler(threads=1)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"direct")
            # Never deferred: the bytes are visible immediately.
            assert io.read_segment(mapper, key, 0, 6) == b"direct"
            assert mapper.segment_ops == ["write", "read"]
            assert io.stats["deferred"] == 0
        finally:
            io.close()


class TestHeapCompaction:
    """Requests taken off the worker path (forced, superseded, merged,
    discarded) leave stale heap entries; they must neither hold their
    bytes nor pile up without bound."""

    ROUNDS = 200

    def _stale_entries(self, io):
        return [item[2] for item in io._heap if item[2].taken]

    def _bounded(self, io):
        stale = self._stale_entries(io)
        assert len(stale) <= len(io._heap) - len(stale) + 1
        assert all(request.fragments == [] for request in stale)

    def test_forced_writes_do_not_accumulate(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        # A watermark nothing reaches: the worker never drains, so
        # every queued write is later forced by a read.
        io = IoScheduler(threads=1, wake_bytes=1 << 40)
        try:
            for index in range(self.ROUNDS):
                offset = index * 64
                payload = bytes((index % 251 + 1,)) * 16
                with io.classify(WRITE_BEHIND):
                    io.write_segment(mapper, key, offset, payload)
                assert io.read_segment(mapper, key, offset, 16) == payload
                self._bounded(io)
            assert io.stats["forced"] == self.ROUNDS
            assert len(io._heap) <= 1
        finally:
            io.close()

    def test_superseded_writes_do_not_accumulate(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1, wake_bytes=1 << 40)
        try:
            # One long-lived queued write elsewhere keeps a live entry
            # in the heap the whole time.
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 1 << 20, b"keep")
            for index in range(self.ROUNDS):
                with io.classify(WRITE_BEHIND):
                    io.write_segment(mapper, key, 0, b"old bytes")
                io.write_segment(mapper, key, 0, b"new bytes")  # DEMAND
                self._bounded(io)
            assert io.stats["superseded"] == self.ROUNDS
            assert len(io._heap) <= 3
            io.flush()
            assert mapper.read_range(key, 0, 9) == b"new bytes"
            assert mapper.read_range(key, 1 << 20, 4) == b"keep"
        finally:
            io.close()

    def test_merged_requests_release_their_fragments(self):
        mapper = SwapMapper()
        key = make_segment(mapper)
        io = IoScheduler(threads=1, wake_bytes=1 << 40)
        try:
            with io.classify(WRITE_BEHIND):
                io.write_segment(mapper, key, 0, b"a" * 8)
                io.write_segment(mapper, key, 16, b"b" * 8)
                # Bridges both: the later request folds into the first.
                io.write_segment(mapper, key, 8, b"c" * 8)
            assert io.depth == 1
            self._bounded(io)
            io.flush()
            assert mapper.read_range(key, 0, 24) == \
                b"a" * 8 + b"c" * 8 + b"b" * 8
        finally:
            io.close()
