"""Unit tests for the clock's event counts and the host synchronization
interface."""

import threading

import pytest

from repro.kernel.clock import CostEvent, VirtualClock
from repro.kernel.sync import NullSync, ThreadedSync
from repro.obs.metrics import MetricsRegistry

EVENT = CostEvent.FAULT_DISPATCH


class TestClockEventCounts:
    """``count``/``snapshot``/``reset`` read through the registry the
    charges write into."""

    def test_add_and_get(self):
        clock = VirtualClock()
        clock.charge(EVENT)
        clock.charge(EVENT, 2)
        clock.charge_each(EVENT, 3)
        assert clock.count(EVENT) == 6
        assert clock.registry.counter_value(EVENT.value) == 6

    def test_unknown_counter_is_zero(self):
        assert VirtualClock().count(EVENT) == 0

    def test_reset_spares_other_counters(self):
        registry = MetricsRegistry()
        registry.inc("tlb.hit", 4)
        clock = VirtualClock(registry=registry)
        clock.charge(EVENT, 5)
        generation = registry.generation
        clock.reset()
        assert clock.count(EVENT) == 0
        assert clock.snapshot() == {}
        assert registry.counter_values() == {"tlb.hit": 4}
        assert registry.generation == generation + 1

    def test_snapshot_is_a_copy_of_event_counts_only(self):
        clock = VirtualClock()
        clock.registry.inc("tlb.hit")
        clock.charge(EVENT)
        snap = clock.snapshot()
        clock.charge(EVENT)
        assert snap == {EVENT.value: 1}

    def test_concurrent_increments(self):
        clock = VirtualClock()

        def work():
            for _ in range(1000):
                clock.charge(EVENT)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert clock.count(EVENT) == 4000


class TestNullSync:
    def test_lock_is_reentrant_noop(self):
        sync = NullSync()
        lock = sync.lock()
        with lock:
            with lock:
                pass
        assert lock.acquire() is True
        lock.release()

    def test_condition_notify_is_noop(self):
        sync = NullSync()
        cond = sync.condition()
        cond.notify()
        cond.notify_all()

    def test_condition_wait_raises(self):
        sync = NullSync()
        cond = sync.condition()
        with pytest.raises(RuntimeError, match="single-threaded"):
            cond.wait()


class TestThreadedSync:
    def test_condition_wait_notify(self):
        sync = ThreadedSync()
        cond = sync.condition()
        ready = []

        def waiter():
            with cond:
                while not ready:
                    cond.wait(timeout=5)

        thread = threading.Thread(target=waiter)
        thread.start()
        with cond:
            ready.append(True)
            cond.notify_all()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_lock_mutual_exclusion(self):
        sync = ThreadedSync()
        lock = sync.lock()
        shared = []

        def work():
            for _ in range(500):
                with lock:
                    shared.append(len(shared))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared == list(range(2000))
