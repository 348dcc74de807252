"""Tests of the benchmark itself, at a smoke size.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench_run  # noqa: E402
import bench_workloads  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_workloads import SMOKE, WORKLOADS, check_table, check_unit_vectors, run_cli  # noqa: E402
from patchcc.errors import DegenerateEstimateError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload, tmp_path, trace=False, seconds=0.01):
    return bench_run.run(workload, 3, seconds, trace, ROOT, sizes=SMOKE,
                         work_dir=str(tmp_path / "work"))


def names_and_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_line_matches_benchmark_json(workload, tmp_path):
    line = smoke_run(workload, tmp_path)["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == names_and_units("end_to_end")
    assert all(np.isfinite(v["value"]) and v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_line_matches_benchmark_json(workload, tmp_path):
    report = smoke_run(workload, tmp_path, trace=True)
    line = report["line"]
    assert line["correct"] and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == names_and_units("per_layer")
    assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
    assert report["op_wall_s"]["traced"] and report["op_wall_s"]["untraced"]
    # operation figures leave the set-up out; set-up figures are its totals
    layers, metrics = report["layers"], line["metrics"]
    for name in ("network.conv_fwd_s", "patches.stretch_s"):
        per_op = layers[name].get("ops", 0.0) / layers["_traced_ops"]
        assert metrics[name]["value"] == pytest.approx(per_op, abs=1e-8)
    assert metrics["setup.dataset.synth_s"]["value"] == pytest.approx(
        layers["dataset.synth_s"]["setup"], abs=1e-8)
    assert metrics["setup.dataset.synth_s"]["value"] > 0


def test_self_times_are_bounded_by_their_spans(tmp_path):
    workload = bench_workloads.InferWorkload(3, SMOKE)
    workload.threads = 2  # exercise the thread pool even on one core
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(str(tmp_path))
        tracer.phase = "ops"
        workload.operation(0, lambda key: bench_run.Lap({}, key))
    finally:
        tracer.uninstall()
    spans = {s.id: s for s in tracer.spans}
    selfs = tracer.self_times()
    assert {"benchmark", "cli", "network.conv_fwd", "minkowski.smooth"} <= {s.name for s in spans.values()}
    for s in spans.values():
        assert -1e-9 <= selfs[s.id] <= s.duration + 1e-9
        if s.parent is not None:
            parent = spans[s.parent]
            assert selfs[s.id] <= parent.duration + 1e-9
            assert parent.start <= s.start and s.end <= parent.end
    # per-image work on the pool's threads hangs under the benchmark span
    assert any(spans[s.parent].name == "benchmark" for s in spans.values()
               if s.parent is not None and s.name == "estimator.estimate")
    assert 0 < tracer.worker_busy_share(2) <= 1.0 + 1e-9


def test_uninstall_restores_every_binding():
    import patchcc.estimator
    import patchcc.network

    original = patchcc.network.forward
    tracer = Tracer()
    tracer.install()
    assert patchcc.estimator.forward is not original
    assert patchcc.estimator.forward is patchcc.network.forward
    tracer.uninstall()
    assert patchcc.network.forward is original and patchcc.estimator.forward is original


class FlakyWorkload:
    """Fails its first operation with a PipelineError, then succeeds."""

    name = "flaky"
    min_ops = 2

    def __init__(self, seed, sizes):
        pass

    def setup(self, work_dir):
        pass

    def warm_up(self):
        pass

    def operation(self, index, timer):
        with timer("op_s"):
            if index == 0:
                raise DegenerateEstimateError("forced failure")
        return {}

    def finish(self, ops, work_dir):
        return {"throughput_per_s": 1.0, "step_s_p50": 1.0}, []


def test_forced_failure_is_counted(tmp_path, monkeypatch):
    monkeypatch.setitem(bench_run.WORKLOADS, "flaky", FlakyWorkload)
    report = smoke_run("flaky", tmp_path)
    assert report["line"]["failed"] == 1 and report["line"]["attempted"] >= 3  # warm-up + 2
    assert "forced failure" in report["failures"][0]


def test_cli_exit_1_is_a_failure(tmp_path):
    with pytest.raises(bench_workloads.OperationFailed):
        run_cli(["estimate", "--image", tmp_path / "missing.ppm", "--algo", "GW"])


def test_perturbed_infer_table_fails_the_check(tmp_path, monkeypatch):
    evaluate = bench_workloads.InferWorkload._evaluate

    def perturbed(self, threads, prefix):
        evaluate(self, threads, prefix)
        if threads != 1:
            csv = Path(prefix + ".csv")
            lines = csv.read_text().splitlines()
            name, first, *rest = lines[-1].split(",")
            lines[-1] = ",".join([name, f"{float(first) + 1e-6:.6f}", *rest])
            csv.write_text("\n".join(lines) + "\n")

    monkeypatch.setattr(bench_workloads.InferWorkload, "_evaluate", perturbed)
    report = smoke_run("infer", tmp_path)
    assert not report["line"]["correct"]
    assert any("--threads 1 reference" in p for p in report["problems"])


def test_check_table_flags_out_of_range_values():
    header = "algorithm,min,prc10,median,mean,prc90,max\n"
    good = (header + "GW,1.0,2.0,3.0,3.0,4.0,5.0\n", "")
    assert check_table(good, good) == []
    bad = (header + "GW,1.0,2.0,nan,3.0,4.0,5.0\n", "")
    assert any("outside" in p for p in check_table(bad, bad))


def test_nondeterministic_training_fails_the_check(tmp_path, monkeypatch):
    digests = iter(range(1000))
    monkeypatch.setattr(bench_workloads, "_params_digest", lambda *models: next(digests))
    report = smoke_run("train", tmp_path)
    assert not report["line"]["correct"]


@pytest.mark.parametrize("rows", [
    [[1.0, 0.0, 0.1]],
    [[-0.1, 0.7, 0.7]],
    [[np.nan, 0.0, 1.0]],
])
def test_bad_estimates_fail_the_unit_check(rows):
    assert check_unit_vectors(rows, 1e-5, "x")
    assert check_unit_vectors([[0.6, 0.8, 0.0]], 1e-5, "x") == []


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
