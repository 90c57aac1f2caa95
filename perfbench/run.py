"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/repro``.  Each run
starts in fresh worker processes (``perfbench/worker.py``), so one
workload's peak memory cannot leak into another's and the tracer's
wrappers never touch an untraced run.

``--trace 0`` prints the end-to-end metrics, measured with tracing
off.  ``--trace 1`` runs the workload's reference window twice, once
untraced and once with the layer wrappers installed, and prints the
per-layer metrics plus ``trace.overhead_frac``.

The lines before the last are a human-readable report (every
end-to-end metric with its unit, including ``sim_ms`` and
``ops_failed_frac``) and a host/configuration fingerprint.  The last
line is the JSON result.  The exit code is 1 when any operation failed
or disagreed with its reference model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("overcommit_mix", "replay_zipf", "fork_exec")

#: Gated end-to-end metrics (the ``end_to_end`` list of BENCHMARK.json).
#: ``op_us.p99``, ``sim_ms`` and ``ops_failed_frac`` are reported but
#: not gated: on a shared host the tail spreads by up to a quarter
#: between seeds, and the other two are 0 on some workloads.
END_TO_END = {
    "ops_per_s": "op/s",
    "op_us.p50": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers in the order ``repro.tools.check_layers`` stacks them, plus
#: the nucleus and mix layers the workloads drive.
LAYERS = ("hardware", "extents", "kernel", "engine", "cache", "segments",
          "pvm", "pressure", "obs", "nucleus", "mix")

#: Per-layer metrics beyond ``<layer>.calls/self_ms/errors``.
LAYER_EXTRAS = {
    "hardware.tlb_hit_ratio": "ratio",
    "hardware.mmu_walks": "count",
    "hardware.vbus_fast_frac": "ratio",
    "kernel.charged_units": "count",
    "kernel.virtual_ms": "ms",
    "engine.faults": "count",
    "engine.cluster_saved_frac": "ratio",
    "engine.inflight_wait_ms": "ms",
    "engine.io_wait_ms": "ms",
    "engine.io_coalesce_rate": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.pushouts": "count",
    "cache.writeback_stall_frac": "ratio",
    "segments.read_bytes": "bytes",
    "segments.write_bytes": "bytes",
    "pvm.cow_copies": "count",
    "pvm.zero_fills": "count",
    "pvm.history_hops": "count",
    "pvm.history_objects": "count",
    "pressure.suspensions": "count",
    "pressure.refaults": "count",
    "pressure.psi_full_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.errors"] = "count"
    units.update(LAYER_EXTRAS)
    return units


#: A worker must finish well inside the benchmark's own time limit.
WORKER_TIMEOUT_S = 170


def run_worker(args) -> dict:
    """Run ``worker.py`` with *args*; return its JSON result.

    Raises ``RuntimeError`` if it fails, times out or prints no result."""
    command = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out: {' '.join(args)}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed ({done.returncode}): "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def fingerprint(result: dict, seed: int) -> dict:
    """Host and configuration facts that every result is tied to."""
    return {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "engine": result["engine"],
        "repro_no_numpy": os.environ.get("REPRO_NO_NUMPY", "") not in
        ("", "0"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "config": result["config"],
    }


def report(result: dict, out) -> None:
    """The human-readable lines: every end-to-end metric with its unit,
    scaled to the nominal host and as the host clock read it."""
    scaled, raw = result["scaled"], result["raw"]
    ops, unit = result["attempted"], result["op_unit"]
    rows = [(name, scaled[name], raw[name], unit)
            for name, unit in (("ops_per_s", "op/s"), ("op_us.p50", "us"),
                               ("op_us.p99", "us"), ("setup_s", "s"))]
    rows += [
        ("sim_ms", result["sim_ms"], None, "ms"),
        ("peak_rss_mb", result["peak_rss_mb"], None, "MB"),
        ("ops_failed_frac", result["failed"] / ops, None, "ratio"),
    ]
    print(f"  {'metric':<16}{'scaled':>14}{'raw':>14}  unit", file=out)
    for name, value, raw_value, metric_unit in rows:
        raw_text = "" if raw_value is None else f"{raw_value:.6g}"
        print(f"  {name:<16}{value:>14.6g}{raw_text:>14}  {metric_unit}",
              file=out)
    plural = unit + ("es" if unit.endswith("s") else "s")
    print(f"  {ops} {plural}, {result['failed']} failed, {result['rounds']} "
          f"rounds in {result['busy_s']:.2f} s; host slowdown "
          f"{result['host_slowdown']:.3f}; rate is the median over "
          f"rounds, p50 and p99 over the {result['latency_samples']} "
          f"timed ops, each scaled by its round; sim_ms over the first "
          f"{result['reference_ops']} ops; setup_s median of "
          f"{result['setups']}", file=out)
    if "zero_fill_write_kept" in result:
        kept = result["zero_fill_write_kept"]
        print("  known program defect (not counted as a failed op): a "
              "write to a page zero-filled by a read fault is "
              + ("kept" if kept else "LOST") + " when the page is evicted",
              file=out)
    if "accesses_per_op" in result:
        per_op = result["accesses_per_op"]
        print(f"  accesses_per_s {scaled['ops_per_s'] * per_op:.6g} scaled, "
              f"{raw['ops_per_s'] * per_op:.6g} raw", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the PVM (see README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            # The reference window only: seconds=0 stops the untraced
            # run as early as the traced one may stop.
            plain = run_worker(base + ["--seconds", "0", "--setups", "1"])
            traced = run_worker(base + ["--seconds", "0", "--setups", "1",
                                        "--traced"])
            runs = [plain, traced]
        else:
            plain = run_worker(base + ["--seconds", str(args.seconds)])
            runs = [plain]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    report(plain, sys.stdout)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    errors = [error for run in runs for error in run["errors"]]
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = 1.0 - (
            traced["reference_ops_per_s"] / plain["reference_ops_per_s"])
        units = per_layer_units()
        if traced["sim_ms"] != plain["sim_ms"]:
            failed += 1
            errors.append(f"tracing moved virtual time: "
                          f"{traced['sim_ms']!r} vs {plain['sim_ms']!r}")
    else:
        metrics = dict(plain["scaled"], peak_rss_mb=plain["peak_rss_mb"])
        units = END_TO_END
    for error in errors:
        print(f"mismatch: {error}", file=sys.stderr)
    print("fingerprint " + json.dumps(fingerprint(plain, args.seed)))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
