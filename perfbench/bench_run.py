"""One benchmark run: repeated set-up, the closed loop, checks, and metrics.

With tracing off the run reports the end-to-end metrics. With tracing on it
runs the set-up once under the tracer, then alternates untraced and traced
operations (the gap between the two is the tracing overhead), and reports
the per-layer metrics, the layer microbenchmarks included.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import asdict

import numpy as np
import scipy

import bench_layers
from bench_trace import Tracer
from bench_workloads import FAILURES, FULL, WORKLOADS, Sizes
from patchcc import network

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_s": "1/s",
    "step_s_p50": "s",
}

# per-layer self times in the result line: per traced operation, the layers
# every workload's operations reach
TRACED_TIMES = (
    "patches.tile", "patches.stretch", "network.conv_fwd", "network.pool_fwd",
    "network.fc_fwd", "network.out_fwd", "evaluation",
)
# and totals of the one traced set-up, the layers every set-up reaches
SETUP_TIMES = ("image.decode", "image.encode", "dataset.synth", "dataset.load")
TRACED_COUNTS = (
    "patches.count", "network.fwd_patches", "network.bwd_patches",
    "evaluation.calls", "localmap.filled_cells",
)


def layer_metric_name(layer: str) -> str:
    return f"{layer}_s" if "." in layer else f"{layer}.s"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {layer_metric_name(layer): "s" for layer in TRACED_TIMES}
    units.update({f"setup.{layer_metric_name(layer)}": "s" for layer in SETUP_TIMES})
    units.update({name: "count" for name in TRACED_COUNTS})
    units.update({
        "patches.degenerate_ratio": "ratio",
        "estimator.direction_free_ratio": "ratio",
        "benchmark.worker_busy_share": "ratio",
        "network.gflop": "GFLOP",
        "network.gb_moved": "GB",
        "accuracy.err_deg": "deg",
        "trace.overhead_share": "ratio",
    })
    for tag in bench_layers.CONFIGS:
        for layer in ("conv", "pool", "fc", "out"):
            prefix = f"layer.{tag}.{layer}"
            units.update({f"{prefix}.fwd_s": "s", f"{prefix}.bwd_s": "s",
                          f"{prefix}.gflop": "GFLOP", f"{prefix}.mb_moved": "MiB"})
        units[f"layer.{tag}.pool.fwd_nocache_s"] = "s"
    return units


class Lap:
    """Context manager that stores its elapsed seconds under `key`."""

    def __init__(self, record: dict, key: str):
        self.record, self.key = record, key

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        if exc[0] is None:
            self.record[self.key] = self.seconds


def blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            getter = getattr(lib, "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        getter.restype, getter.argtypes = ctypes.c_int, []
        return getter()
    return None


def run_facts(root, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.exists(os.path.join(str(root), ".git")):  # a plain checkout has none
        try:
            proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join(str(root), "src", "patchcc", "*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
        "src_patchcc_lines": src_lines,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _operate(workload, index: int, counts: dict, failures: list):
    """One operation; a failure is counted, anything else propagates."""
    times: dict = {}
    counts["attempted"] += 1
    try:
        result = workload.operation(index, lambda key: Lap(times, key))
    except FAILURES as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
        return None
    result.update(times)
    return result


def run(workload_name: str, seed: int, seconds: float, trace: bool, root,
        sizes: Sizes = FULL, work_dir=None) -> dict:
    """Run one workload and return the full report; `report["line"]` is the
    result object printed last."""
    workload = WORKLOADS[workload_name](seed, sizes)
    work_dir = work_dir or os.path.join(str(root), "perfbench", "work",
                                        f"{workload_name}-{seed}-{os.getpid()}")
    tracer = Tracer() if trace else None
    counts = {"attempted": 0}
    failures: list[str] = []
    ops: list[dict] = []
    op_walls = {False: [], True: []}
    try:
        setup_times = []
        for _ in range(1 if trace else sizes.setup_repeats):
            shutil.rmtree(work_dir, ignore_errors=True)
            os.makedirs(work_dir)
            if tracer:
                tracer.install()
            start = time.perf_counter()
            try:
                workload.setup(work_dir)
            finally:
                setup_times.append(time.perf_counter() - start)
                if tracer:
                    tracer.uninstall()

        # the warm-up counts as set-up: it is time spent before the first result
        counts["attempted"] += 1
        start = time.perf_counter()
        try:
            workload.warm_up()
        except FAILURES as exc:
            failures.append(f"warm-up: {type(exc).__name__}: {exc}")
        warm_up_s = time.perf_counter() - start
        if tracer:
            tracer.phase = "ops"
        loop_start = time.perf_counter()
        index = 0
        while True:
            # traced runs pair an untraced and a traced operation on one input
            op_index = index // 2 if trace else index
            if op_index >= workload.min_ops and time.perf_counter() - loop_start >= seconds:
                if not trace or index % 2 == 0:
                    break
            traced = trace and index % 2 == 1
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                result = _operate(workload, op_index, counts, failures)
            finally:
                wall = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            if result is not None:
                ops.append(result)
                op_walls[traced].append(wall)
            index += 1
        peak_rss = _peak_rss_mb()

        if not ops:
            raise SystemExit(f"error: every {workload_name} operation failed: {failures[:3]}")
        try:
            results, problems = workload.finish(ops, work_dir)
        except FAILURES as exc:
            results, problems = {}, [f"{workload_name}: output check could not run: {exc}"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = {
        "workload": workload_name,
        "trace": int(trace),
        "facts": run_facts(root, seed),
        "sizes": asdict(sizes),
        "attempted": counts["attempted"],
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "setup_s_samples": setup_times,
        "warm_up_s": warm_up_s,
        "op_wall_s": {"untraced": op_walls[False], "traced": op_walls[True]},
        "op_seconds": [{k: v for k, v in op.items() if k.endswith("_s")} for op in ops],
        "results": results,
    }
    if trace:
        metrics, layers = _per_layer(tracer, len(op_walls[True]), workload, results,
                                     op_walls, sizes)
        report["layers"] = layers
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) + warm_up_s,
            "peak_rss_mb": peak_rss,
            "throughput_per_s": results.get("throughput_per_s", float("nan")),
            "step_s_p50": results.get("step_s_p50", float("nan")),
        }
        units = END_TO_END
    report["line"] = {
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return report


def _per_layer(tracer: Tracer, traced_ops: int, workload, results: dict, op_walls: dict,
               sizes: Sizes):
    """Per-layer metrics (operation figures per traced operation, set-up
    figures as totals) and the full per-layer, per-phase self-time table."""
    selfs = tracer.layer_self_seconds()
    n = max(traced_ops, 1)
    c = tracer.counters["ops"]
    metrics = {layer_metric_name(layer): selfs[layer].get("ops", 0.0) / n for layer in TRACED_TIMES}
    metrics.update({f"setup.{layer_metric_name(layer)}": selfs[layer].get("setup", 0.0)
                    for layer in SETUP_TIMES})
    metrics.update({name: c.get(name, 0.0) / n for name in TRACED_COUNTS})
    stretched = c.get("patches.stretched", 0.0)
    forwarded = c.get("estimator.forwarded", 0.0)
    overhead = (statistics.median(op_walls[True]) / statistics.median(op_walls[False]) - 1.0
                if op_walls[True] and op_walls[False] else float("nan"))
    metrics.update({
        "patches.degenerate_ratio": c.get("patches.degenerate", 0.0) / stretched if stretched else 0.0,
        "estimator.direction_free_ratio":
            c.get("estimator.direction_free", 0.0) / forwarded if forwarded else 0.0,
        "benchmark.worker_busy_share": tracer.worker_busy_share(getattr(workload, "workers", 1)),
        "network.gflop": c.get("network.flop", 0.0) / n / 1e9,
        "network.gb_moved": c.get("network.bytes", 0.0) / n / 1e9,
        "accuracy.err_deg": results.get("err_deg", float("nan")),
        "trace.overhead_share": overhead,
    })
    metrics.update(bench_layers.run_layers(network, repeats=sizes.layer_repeats))
    layers = {
        layer_metric_name(layer): {phase: round(v, 9) for phase, v in phases.items()}
        for layer, phases in selfs.items()
    }
    layers["_counters"] = tracer.counters
    layers["_traced_ops"] = traced_ops
    return metrics, layers


