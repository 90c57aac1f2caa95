"""One measured run of one workload, in a fresh process.

``python3 perfbench/worker.py --workload NAME --seed N --seconds S
[--traced] [--setups K]`` prints one JSON document as its last line.

Untraced, the measured phase runs whole rounds until ``S`` seconds and
at least :data:`MIN_OPS` ops have passed (never fewer than the
workload's reference rounds).  Traced, the tracer's wrappers are
installed before anything is built and the measured phase is exactly
the reference rounds, so spans stay bounded and the program's counters
repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Enough completed ops that ten or more lie beyond the 99th percentile.
MIN_OPS = 1000

#: Setups repeat until they took this long in total (at least
#: ``--setups`` and at most SETUP_MAX of them), so a setup of a few
#: milliseconds still gets a steady median.
SETUP_MIN_S = 1.0
SETUP_MAX = 41


def _counts(vm) -> dict:
    """Plain-name counters and gauges of the program's own registry."""
    snapshot = vm.metrics_snapshot()
    merged = dict(snapshot["gauges"])
    merged.update(snapshot["counters"])
    return {name: value for name, value in merged.items()
            if "{" not in name}


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _numpy_version():
    """The installed numpy's version (even when disabled), or None."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def summarize(per_round, latency_ns, setup_s, scaled: bool) -> dict:
    """Host-time figures of one run, raw or scaled by the host slowdown
    (see ``hostspeed.py``).

    Each round's rate and each op's latency are scaled by the slowdown
    measured right after that round.  ``ops_per_s`` is the median of
    the rounds' rates; p50 and p99 are taken over every op's scaled
    latency (at least :data:`MIN_OPS`, so ten or more lie beyond the
    99th percentile).  A burst of contention the reference loop
    misses spoils a few rounds, not the run."""
    rates = []
    latency = []
    begin = 0
    for ops, spent, slow, end in per_round:
        factor = slow if scaled else 1.0
        rates.append(ops / spent * factor)
        latency.extend(value / factor for value in latency_ns[begin:end])
        begin = end
    latency.sort()
    return {
        "ops_per_s": statistics.median(rates),
        "op_us.p50": _percentile(latency, 0.50) / 1e3,
        "op_us.p99": _percentile(latency, 0.99) / 1e3,
        "setup_s": statistics.median(setup_s),
    }


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    Linux's ``VmHWM`` covers this address space only; ``ru_maxrss``
    can carry a high-water mark from before ``exec`` (the launcher's),
    so it is only the fallback."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(folded: dict, before: dict, after: dict,
                  virtual_ms: float, charged_units: int, vm) -> dict:
    """The per-layer metrics of a traced window: span folds plus the
    deltas of the program's own counters across the window (names and
    units are listed in ``run.py``)."""
    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    metrics = {}
    for layer, stats in folded["layers"].items():
        metrics[f"{layer}.calls"] = stats["calls"]
        metrics[f"{layer}.self_ms"] = stats["self_ns"] / 1e6
        metrics[f"{layer}.errors"] = stats["errors"]
    span_ms = {name: function["span_ns"] / 1e6
               for name, function in folded["functions"].items()}
    faults = delta("fault.read") + delta("fault.write")
    metrics.update({
        "hardware.tlb_hit_ratio": _ratio(
            delta("tlb.hit"), delta("tlb.hit") + delta("tlb.miss")),
        "hardware.mmu_walks": delta("mmu.walk_level1"),
        "hardware.vbus_fast_frac": _ratio(
            delta("vbus.fast"), delta("vbus.fast") + delta("vbus.fallback")),
        "kernel.charged_units": charged_units,
        "kernel.virtual_ms": virtual_ms,
        "engine.faults": faults,
        "engine.cluster_saved_frac": _ratio(
            delta("engine.cluster.faults_saved"), faults),
        "engine.inflight_wait_ms": span_ms["InFlightTable.join"],
        # The main thread blocks in flush and in reads, which first force
        # any queued write-behind they overlap.
        "engine.io_wait_ms": (span_ms["IoScheduler.flush"]
                              + span_ms["IoScheduler.read_segment"]),
        "engine.io_coalesce_rate": after.get("io.queue.coalesce_rate", 0.0),
        "cache.hit_ratio": _ratio(
            delta("cache.hit"), delta("cache.hit") + delta("cache.miss")),
        "cache.evictions": delta("cache.evict"),
        "cache.pushouts": delta("push_out"),
        "cache.writeback_stall_frac": _ratio(
            delta("writeback.stall"),
            delta("writeback.stall") + delta("writeback.deferred")),
        "segments.read_bytes": delta("space.pull_bytes"),
        "segments.write_bytes": delta("space.push_bytes"),
        "pvm.cow_copies": delta("bcopy_page"),
        "pvm.zero_fills": delta("bzero_page"),
        "pvm.history_hops": delta("history_lookup"),
        # Live at the end of the window: a leak shows as growth.
        "pvm.history_objects": sum(1 for cache in vm.caches()
                                   if cache.is_history),
        "pressure.suspensions": delta("balancer.suspend"),
        "pressure.refaults": delta("ws.refaults"),
        "pressure.psi_full_ms": delta("psi.memory.full.total_ms"),
    })
    return metrics


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        setups: int) -> dict:
    from perfbench.workloads import (
        CONFIG, WORKLOADS, OpLog, close_system,
        zero_fill_write_survives_eviction,
    )
    from perfbench.hostspeed import slowdown
    from repro.fastpath import get_numpy

    recorder = None
    if traced:
        from perfbench import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    workload = WORKLOADS[workload_name](seed)
    log = OpLog()

    # Set up several times and keep the median; every setup of one
    # seed must leave the modelled system in the same virtual state.
    setup_s = []
    setup_scaled = []
    setup_states = set()
    while True:
        speed_before = slowdown()
        start = time.perf_counter()
        state = workload.setup()
        setup_s.append(time.perf_counter() - start)
        setup_scaled.append(setup_s[-1] * 2 / (speed_before + slowdown()))
        clock = state["clock"]
        setup_states.add((clock.now(), tuple(sorted(
            clock.snapshot().items()))))
        if len(setup_s) >= setups and (
                sum(setup_s) >= SETUP_MIN_S or len(setup_s) >= SETUP_MAX):
            break
        # Free this system before building the next, so two are never
        # alive at once (peak memory is one system's).
        close_system(state)
        del state, clock
        gc.collect()
    if len(setup_states) != 1:
        log.fail(f"{len(setup_states)} distinct virtual states after "
                 f"{setups} setups of one seed", op=False)

    prepare = getattr(workload, "prepare", None)
    if prepare is not None:
        prepare(state)
    vm, clock = state["vm"], state["clock"]
    vm.io.flush()
    before = _counts(vm)
    charged_before = sum(clock.snapshot().values())
    gc.collect()
    if recorder is not None:
        recorder.threads.clear()
        log.on_op = recorder.set_op
    reference_rounds = workload.REFERENCE_ROUNDS
    virtual_start = clock.now()
    rounds = 0
    busy = 0.0
    #: per round: (ops, host seconds, host slowdown, end of its latencies)
    per_round = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        ops = workload.run_round(state, log)
        spent = time.perf_counter() - round_start
        busy += spent
        rounds += 1
        per_round.append((ops, spent, slowdown(), len(log.latency_ns)))
        if rounds == reference_rounds:
            sim_ms = clock.now() - virtual_start
            reference_ops = log.attempted
            reference_ops_per_s = reference_ops / busy * statistics.median(
                row[2] for row in per_round)
            # Peak memory through setup and a fixed amount of work: a
            # leak shows, but a faster host running more rounds in the
            # same seconds does not read as one.
            peak_rss_mb = _peak_rss_mb()
            if traced:
                break
        if rounds >= reference_rounds \
                and time.perf_counter() - start >= seconds \
                and len(log.latency_ns) >= MIN_OPS:
            break
    vm.io.flush()

    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "rounds": rounds,
        "attempted": log.attempted,
        "failed": log.failed,
        "busy_s": busy,
        "reference_ops": reference_ops,
        # Scaled by the host slowdown, like every host-time figure.
        "reference_ops_per_s": reference_ops_per_s,
        "sim_ms": sim_ms,
        "setups": len(setup_s),
        "op_unit": workload.op_unit,
        "engine": "numpy" if get_numpy() is not None else "python",
        "numpy": _numpy_version(),
        "config": CONFIG,
    }
    if recorder is not None:
        log.on_op = None
        folded = tracer.fold(recorder)
        result["spans"] = recorder.span_count()
        recorder.write(os.path.join(ROOT, ".perfbench_out",
                                    f"spans-{workload_name}-{seed}"))
        metrics = layer_metrics(folded, before, _counts(vm), sim_ms,
                                sum(clock.snapshot().values())
                                - charged_before, vm)
        result["layers"] = metrics
        result["calls"] = {name: function["calls"] for name, function
                           in folded["functions"].items()}
    verify = getattr(workload, "verify", None)
    if verify is not None:
        verify(state, log)
        result["failed"] = log.failed
    close_system(state)
    if workload_name == "overcommit_mix":
        # Reported, not counted: the workload's first touch keeps its
        # measured phase off this path (see OvercommitMix).
        result["zero_fill_write_kept"] = zero_fill_write_survives_eviction()

    result["raw"] = summarize(per_round, log.latency_ns, setup_s,
                              scaled=False)
    result["scaled"] = summarize(per_round, log.latency_ns, setup_scaled,
                                 scaled=True)
    result.update({
        "host_slowdown": statistics.median(row[2] for row in per_round),
        "latency_samples": len(log.latency_ns),
        "peak_rss_mb": peak_rss_mb,
        "errors": log.errors,
    })
    if workload_name == "replay_zipf":
        result["accesses_per_op"] = workload.CHUNK
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setups", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    result = run(args.workload, args.seed, args.seconds, args.traced,
                 args.setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
