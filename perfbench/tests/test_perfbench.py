"""Tests of the benchmark itself: seeded inputs, determinism, the
layer predictions, the tracer's attribution, and the result contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import run as bench_run
from perfbench import tracer
from perfbench.workloads import (
    WORKLOADS, ForkExec, OpLog, close_system,
    zero_fill_write_survives_eviction,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")

#: Per-layer metrics that measure host time or I/O-thread timing and so
#: legitimately differ between runs of one seed.
HOST_DEPENDENT = ("self_ms", "engine.io_wait_ms", "engine.inflight_wait_ms",
                  "engine.io_coalesce_rate", "cache.writeback_stall_frac",
                  "segments.calls")


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, WORKER, "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--setups", "2", "--traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Traced reference windows, cached per (workload, seed)."""
    cache = {}

    def get(workload: str, seed: int) -> dict:
        key = (workload, seed)
        if key not in cache:
            cache[key] = traced_run(workload, seed)
        return cache[key]
    return get


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = WORKLOADS[name]
    assert vars(cls(7)) == vars(cls(7))
    assert vars(cls(7)) != vars(cls(8))


# -- determinism --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_virtual_time_and_counters(name, traced):
    first = traced(name, 1)
    again = traced_run(name, 1)
    assert again["sim_ms"] == first["sim_ms"]
    deterministic = {key: value for key, value in first["layers"].items()
                     if not any(part in key for part in HOST_DEPENDENT)}
    assert {key: again["layers"][key] for key in deterministic} \
        == deterministic


@pytest.mark.parametrize("name", ["overcommit_mix", "fork_exec"])
def test_other_seed_moves_virtual_time(name, traced):
    assert traced(name, 1)["sim_ms"] != traced(name, 2)["sim_ms"]


def test_tracing_leaves_virtual_time_alone(traced):
    done = subprocess.run(
        [sys.executable, WORKER, "--workload", "fork_exec", "--seed", "1",
         "--seconds", "0", "--setups", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    plain = json.loads(done.stdout.strip().splitlines()[-1])
    assert plain["sim_ms"] == traced("fork_exec", 1)["sim_ms"]


# -- layer predictions --------------------------------------------------------

LOADED = {
    "overcommit_mix": ("engine", "cache", "pvm", "pressure", "segments",
                       "obs", "kernel", "nucleus", "hardware", "extents"),
    "replay_zipf": ("hardware", "extents"),
    "fork_exec": ("pvm", "nucleus", "mix", "extents", "kernel", "hardware",
                  "obs", "engine"),
}


@pytest.mark.parametrize("name", sorted(LOADED))
def test_loaded_layers_record_calls(name, traced):
    layers = traced(name, 1)["layers"]
    for layer in LOADED[name]:
        assert layers[f"{layer}.calls"] > 0, layer
        assert layers[f"{layer}.self_ms"] > 0, layer


def test_every_per_layer_metric_is_reported(traced):
    expected = set(bench_run.per_layer_units()) - {"trace.overhead_frac"}
    for name in WORKLOADS:
        assert set(traced(name, 1)["layers"]) == expected


@pytest.mark.parametrize("name", ["replay_zipf", "fork_exec"])
def test_pressure_idle_outside_overcommit(name, traced):
    assert traced(name, 1)["layers"]["pressure.calls"] == 0


@pytest.mark.parametrize("name", ["overcommit_mix", "fork_exec"])
def test_vector_bus_idle_outside_replay(name, traced):
    assert traced(name, 1)["calls"]["VectorBus.replay"] == 0


def test_replay_takes_no_faults_after_prewarm(traced):
    result = traced("replay_zipf", 1)
    assert result["layers"]["engine.faults"] == 0
    assert result["calls"]["FaultPipeline.run"] == 0
    assert result["layers"]["cache.calls"] == 0
    assert result["layers"]["kernel.calls"] == 0


# -- known program defect -----------------------------------------------------

@pytest.mark.xfail(strict=True, reason="program defect: a page zero-filled "
                   "on a read fault is mapped writable but never marked "
                   "dirty, so an in-place write to it is lost on eviction")
def test_write_to_read_zero_filled_page_survives_eviction():
    assert zero_fill_write_survives_eviction()


def test_overcommit_measured_phase_takes_no_zero_fill(traced):
    # The first touch writes every page, so no read fault zero-fills
    # (the path of the defect above) after setup.
    assert traced("overcommit_mix", 1)["layers"]["pvm.zero_fills"] == 0


# -- attribution --------------------------------------------------------------

def _fold_fork_exec(jobs_rounds: int, slow_charge_each: bool) -> tuple:
    """Fold a traced fork_exec window; optionally make every
    ``VirtualClock.charge_each`` call take twice its host time by
    spinning for as long as the real call took.  Returns the fold and
    the host time injected, in ns."""
    from repro.kernel.clock import VirtualClock

    injected = [0]
    original = VirtualClock.charge_each
    if slow_charge_each:
        def charge_each(self, event, count):
            start = time.perf_counter_ns()
            result = original(self, event, count)
            spent = time.perf_counter_ns() - start
            until = time.perf_counter_ns() + spent
            while time.perf_counter_ns() < until:
                pass
            injected[0] += spent
            return result
        VirtualClock.charge_each = charge_each
    recorder = tracer.Recorder()
    undo = tracer.install(recorder)
    try:
        workload = ForkExec(3)
        state = workload.setup()
        recorder.threads.clear()
        injected[0] = 0
        log = OpLog()
        for _ in range(jobs_rounds):
            workload.run_round(state, log)
        close_system(state)
        assert log.failed == 0, log.errors
        return tracer.fold(recorder), injected[0]
    finally:
        tracer.uninstall(undo)
        VirtualClock.charge_each = original


def test_injected_slowdown_is_attributed_to_its_layer():
    rounds = 32
    base, _ = _fold_fork_exec(rounds, slow_charge_each=False)
    slow, injected = _fold_fork_exec(rounds, slow_charge_each=True)
    assert injected > 0
    before = {layer: stats["self_ns"] for layer, stats in
              base["layers"].items()}
    after = {layer: stats["self_ns"] for layer, stats in
             slow["layers"].items()}
    # The two runs see different host speeds: scale the baseline by
    # the drift of the layers the injection does not touch, so only a
    # shift of time between layers shows as growth.
    others = [layer for layer in before if layer != "kernel"]
    drift = sum(after[layer] for layer in others) \
        / sum(before[layer] for layer in others)
    growth = {layer: after[layer] - before[layer] * drift
              for layer in before}
    assert max(growth, key=growth.get) == "kernel", growth
    assert growth["kernel"] >= 0.7 * injected, (growth, injected)
    # The spin sits inside the kernel span, so no caller absorbs it.
    assert all(growth[layer] < 0.5 * injected for layer in others), \
        (growth, injected)


def test_fold_subtracts_children_and_counts_errors():
    class Outer:
        def call(self, inner, fail=False):
            time.sleep(0.002)
            inner.call(fail)

    class Inner:
        def call(self, fail):
            time.sleep(0.004)
            if fail:
                raise ValueError("injected")

    import types
    module = types.ModuleType("perfbench_fold_fixture")
    module.Outer, module.Inner = Outer, Inner
    sys.modules[module.__name__] = module
    recorder = tracer.Recorder()
    undo = tracer.install(recorder, {
        "upper": [(module.__name__, "Outer", ("call",))],
        "lower": [(module.__name__, "Inner", ("call",))],
    })
    try:
        Outer().call(Inner())
        with pytest.raises(ValueError):
            Outer().call(Inner(), fail=True)
    finally:
        tracer.uninstall(undo)
        del sys.modules[module.__name__]
    folded = tracer.fold(recorder)["layers"]
    assert folded["upper"]["calls"] == folded["lower"]["calls"] == 2
    assert folded["upper"]["errors"] == folded["lower"]["errors"] == 1
    assert 3.5e6 <= folded["upper"]["self_ns"] < 8e6
    assert 7.5e6 <= folded["lower"]["self_ns"] < 16e6
    assert Outer.call.__name__ == "call" and not hasattr(Outer.call,
                                                         "__wrapped__")


# -- the result contract ------------------------------------------------------

def test_benchmark_json_matches_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    assert [w["name"] for w in spec["workloads"]] \
        == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench_run.per_layer_units()


def test_run_prints_contract_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay_zipf",
         "--seed", "4", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "ops_failed_frac" in done.stdout and "sim_ms" in done.stdout


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fork_exec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
