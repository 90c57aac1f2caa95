"""``io_threads`` never moves the accounting — only the wall clock.

The concurrent fault engine's core invariant is the charge/byte split:
every virtual-clock charge lands on the submitting kernel thread, in
program order, at submit time; pool threads move bytes only.  So a run
at ``io_threads=0`` (the strict synchronous pass-through) and a run at
``io_threads=2`` (the shipping configuration) must agree bit-for-bit on

* the virtual clock (both the timed region and the cumulative total),
* the order of the clock's charges (a digest of the charge stream,
  :mod:`tests.charge_stream` — the integer clock's totals alone would
  not see a reordering),
* the user-visible bytes, and
* every accounting counter (faults, pulls, charges, hits/misses).

Only the deferral bookkeeping may differ — ``io.*`` and the write-back
queue's ``writeback.deferred`` / ``writeback.stall`` describe *how* the
bytes moved, not *what* was charged.  This file is the regression gate
the docs point at: if it fails, the scheduler leaked a charge onto a
pool thread (or reordered one), and the Table 6/7 goldens are next.
"""

import pytest

from repro.bench.harness import WORKLOADS
from repro.kernel.clock import ClockRegion
from tests.charge_stream import ChargeStream

#: Counters that legitimately differ between the synchronous and the
#: threaded run: queue/deferral mechanics, not accounting.
_DEFERRAL_PREFIXES = ("io.", "writeback.deferred", "writeback.stall")


def _accounting_counters(snapshot: dict) -> dict:
    return {key: value
            for key, value in snapshot["counters"].items()
            if not key.startswith(_DEFERRAL_PREFIXES)}


def _run(workload_name: str, backend: str, io_threads: int) -> dict:
    """One full workload run; returns every observable we compare."""
    workload = WORKLOADS[workload_name]
    state = workload.setup(backend, None, io_threads)
    vm = state["vm"]
    stream = ChargeStream()
    state["clock"].add_listener(stream)
    with ClockRegion(state["clock"]) as timer:
        workload.body(state)
    io = getattr(vm, "io", None)
    deferred = 0
    if io is not None:
        io.flush()                  # depth gauge settles to zero
        deferred = io.stats["deferred"]
    snapshot = vm.metrics_snapshot()
    observed = {
        "body_virtual_ms": timer.elapsed,
        "total_virtual_ms": snapshot["meta"]["virtual_ms"],
        "charges_sha256": stream.hexdigest(),
        "counters": _accounting_counters(snapshot),
        "deferred": deferred,
        "bytes": _visible_bytes(state),
    }
    if io is not None:
        io.close()
    return observed


def _visible_bytes(state: dict) -> bytes:
    """Whatever the workload left behind, as a user would read it."""
    cache = state.get("cache")
    if cache is None:
        return b""
    vm = state["vm"]
    return vm.cache_read(cache, 0, 96 * vm.page_size)


def _assert_identical(synchronous: dict, threaded: dict) -> None:
    # Exact equality is the point, and the digest checks that the
    # charges landed in the same order, not merely summed the same.
    assert threaded["body_virtual_ms"] == synchronous["body_virtual_ms"]
    assert threaded["total_virtual_ms"] == synchronous["total_virtual_ms"]
    assert threaded["charges_sha256"] == synchronous["charges_sha256"]
    assert threaded["bytes"] == synchronous["bytes"]
    assert threaded["counters"] == synchronous["counters"]


@pytest.mark.parametrize("backend", ("pvm", "mach"))
class TestWritebackStorm:
    """The write-behind-heavy cell: the run that actually defers."""

    def test_accounting_identical_across_io_threads(self, backend):
        synchronous = _run("writeback_storm", backend, io_threads=0)
        threaded = _run("writeback_storm", backend, io_threads=2)
        _assert_identical(synchronous, threaded)

    def test_threaded_run_really_deferred(self, backend):
        # Guard against the comparison passing vacuously: the storm
        # must exercise the queue, or this file tests nothing.
        threaded = _run("writeback_storm", backend, io_threads=2)
        assert threaded["deferred"] > 0

    def test_synchronous_run_never_defers(self, backend):
        synchronous = _run("writeback_storm", backend, io_threads=0)
        assert synchronous["deferred"] == 0


@pytest.mark.parametrize("backend", ("pvm", "mach"))
class TestDemandPaths:
    """Pull-heavy cells: reads are always synchronous, so these pin
    that the scheduler's read path is a true pass-through."""

    def test_zero_fill_accounting_identical(self, backend):
        synchronous = _run("zero_fill", backend, io_threads=0)
        threaded = _run("zero_fill", backend, io_threads=2)
        _assert_identical(synchronous, threaded)

    def test_pageout_accounting_identical(self, backend):
        synchronous = _run("pageout", backend, io_threads=0)
        threaded = _run("pageout", backend, io_threads=2)
        _assert_identical(synchronous, threaded)
