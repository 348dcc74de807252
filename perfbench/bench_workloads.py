"""The three benchmark workloads: set-up, one operation, and output checks.

Every workload runs closed loop from one client: operations run back to
back in this process until the measuring time is up. Inputs come from
`SynthConfig` keyed by the workload seed, so the same seed gives the same
inputs. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics
from dataclasses import dataclass, replace

import numpy as np

from patchcc import cli, dataset, estimator, image, localmap, network
from patchcc.errors import PipelineError

ALGOS = "DN,GW,WP,SoG,gGW,GE1,GE2,cnn-patch,cnn-average,cnn-median"
UNIT_TOLERANCE = 1e-5  # `estimate` prints six decimals
MAP_UNIT_TOLERANCE = 1e-7  # map CSVs carry nine decimals

# the acceptance suite's learning configuration
ACCEPTANCE_SYNTH = dict(ill_red_range=(0.25, 1.35), ill_blue_range=(0.25, 1.35), saturation=0.40)
TRAIN_HYPER = network.HyperParams(
    patch_size=32, kernel_count=32, pool_size=8, fc_units=16,
    learning_rate=0.02, momentum=0.9, weight_decay=5e-4,
    batch_size=64, epochs=4, patience=4, patches_per_image=150, dtype="float32",
)
FINETUNE_HYPER = network.HyperParams(
    patch_size=32, kernel_count=32, pool_size=8, fc_units=16,
    learning_rate=3e-5, momentum=0.0, weight_decay=0.0, epochs=4, dtype="float32",
)
TEST_FOLD = 0
PATCH_SIZE = 32  # the CLI default, used by every command here
# large scenes per infer and localmap run: one K=240 forward pass over such a
# scene peaks near 2 GB, and `evaluate` runs one pass per worker thread
BIG_IMAGES = 2


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes; `FULL` is the benchmark, `SMOKE` its tests."""

    train_count: int = 60
    train_side: int = 160
    train_epochs: int = 4
    big_width: int = 1800
    big_height: int = 1200
    kernel_count: int = 240
    fc_units: int = 40
    model_train_count: int = 9
    model_train_side: int = 256
    model_epochs: int = 2
    setup_repeats: int = 3
    layer_repeats: int = 5


FULL = Sizes()
SMOKE = Sizes(
    train_count=9, train_side=64, train_epochs=1, big_width=192, big_height=128,
    kernel_count=8, fc_units=4, model_train_count=6, model_train_side=64,
    model_epochs=1, setup_repeats=2, layer_repeats=1,
)


class OperationFailed(Exception):
    """A CLI command exited 1: the program reported a `PipelineError`."""


FAILURES = (PipelineError, OperationFailed)


def run_cli(argv) -> str:
    """Run one `patchcc` command in process; return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OperationFailed(f"patchcc {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def untimed(key):
    """A stand-in for the per-operation timer during the warm-up."""
    return contextlib.nullcontext()


def check_unit_vectors(rows, tolerance: float, what: str) -> list[str]:
    """Problems with estimates that must be finite, non-negative and unit."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    problems = []
    if not np.all(np.isfinite(rows)):
        problems.append(f"{what}: non-finite estimate")
    elif np.any(rows < 0):
        problems.append(f"{what}: negative estimate component")
    elif np.any(np.abs(np.linalg.norm(rows, axis=1) - 1.0) > tolerance):
        problems.append(f"{what}: estimate not unit length")
    return problems


def _synth(out_dir, seed: int, count: int, width: int, height: int, **kw) -> str:
    config = dataset.SynthConfig(count=count, width=width, height=height, seed=seed, **kw)
    return dataset.generate_dataset(out_dir, config)


def _params_digest(*models) -> str:
    h = hashlib.sha256()
    for params in models:
        for name in network.PARAM_LAYERS:
            h.update(np.ascontiguousarray(getattr(params, name)).tobytes())
    return h.hexdigest()


def _paper_model(work_dir, seed: int, sizes: Sizes) -> str:
    """Train a paper-shape model briefly on small scenes; save it as the
    model of every fold. Returns the model directory."""
    manifest = _synth(
        os.path.join(work_dir, "model_scenes"), 2 * seed + 1,
        sizes.model_train_count, sizes.model_train_side, sizes.model_train_side,
        **ACCEPTANCE_SYNTH,
    )
    samples = dataset.load_samples(dataset.load_manifest(manifest))
    hyper = network.HyperParams(
        kernel_count=sizes.kernel_count, fc_units=sizes.fc_units, learning_rate=0.02,
        epochs=sizes.model_epochs, patience=sizes.model_epochs,
        patches_per_image=100, seed=seed, dtype="float32",
    )
    model = estimator.train(samples, [0], hyper).models[0]
    model_dir = os.path.join(work_dir, "models")
    os.makedirs(model_dir, exist_ok=True)
    for fold in range(3):
        network.save_params(model, os.path.join(model_dir, f"fold{fold}.ccnn"))
    return model_dir


# --------------------------------------------------------------------------
# train: cross-validated patch training plus angular fine-tuning


class TrainWorkload:
    name = "train"
    min_ops = 2  # the repeat is what the bit-identical check compares

    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.train_hyper = replace(
            TRAIN_HYPER, seed=seed, epochs=sizes.train_epochs, patience=sizes.train_epochs
        )
        self.finetune_hyper = replace(FINETUNE_HYPER, seed=seed)

    def setup(self, work_dir):
        manifest = _synth(
            os.path.join(work_dir, "scenes"), 2 * self.seed, self.sizes.train_count,
            self.sizes.train_side, self.sizes.train_side, **ACCEPTANCE_SYNTH,
        )
        self.samples = dataset.load_samples(dataset.load_manifest(manifest))

    def warm_up(self):
        """One operation: the first runs markedly slower than the rest."""
        self.operation(0, untimed)

    def _fold(self, offset: int):
        return [s for s in self.samples if s.fold == (TEST_FOLD + offset) % 3]

    def operation(self, index: int, timer) -> dict:
        with timer("train_s"):
            result = estimator.train(self.samples, [TEST_FOLD], self.train_hyper)
        model = result.models[TEST_FOLD]
        with timer("finetune_s"):
            tuned = estimator.fine_tune(
                model, self._fold(1), self.finetune_hyper, pooling="median",
                val_dataset=self._fold(2),
            )
        val = [r["angular_mean"] for r in result.log
               if r["fold"] == TEST_FOLD and r["split"] == "val"]
        return {"digest": _params_digest(model, tuned), "val_err_deg": min(val)}

    def finish(self, ops: list[dict], work_dir) -> tuple[dict, list[str]]:
        problems = []
        if len({op["digest"] for op in ops}) > 1:
            problems.append("train: repeated seeded runs gave different weights")
        if not all(math.isfinite(op["val_err_deg"]) for op in ops):
            problems.append("train: non-finite validation error")
        x_tr, _ = estimator.training_patch_arrays(self._fold(1), self.train_hyper)
        epoch_patches = len(x_tr) * self.train_hyper.epochs
        steps = len(self._fold(1)) * self.finetune_hyper.epochs
        results = {
            "train_patches_per_s": statistics.median(epoch_patches / op["train_s"] for op in ops),
            "finetune_images_per_s": statistics.median(steps / op["finetune_s"] for op in ops),
            "val_err_deg": ops[0]["val_err_deg"],
            "training_patches": len(x_tr),
        }
        results["throughput_per_s"] = results["train_patches_per_s"]
        results["step_s_p50"] = statistics.median(op["finetune_s"] / steps for op in ops)
        results["err_deg"] = results["val_err_deg"]
        return results, problems


# --------------------------------------------------------------------------
# infer: the benchmark table plus single-image estimates on large scenes


def read_table(csv_text: str) -> dict[str, list[float]]:
    """Algorithm -> six summary numbers from an `evaluate` CSV."""
    rows = {}
    for line in csv_text.strip().splitlines()[1:]:
        name, *values = line.split(",")
        rows[name] = [float(v) for v in values]
    return rows


def check_table(report: tuple[str, str], reference: tuple[str, str]) -> list[str]:
    """An `evaluate` report (summary and per-image CSV) must hold angles in
    [0, 180] degrees and equal the --threads 1 reference byte for byte."""
    problems = []
    rows = read_table(report[0])
    values = np.array([v for row in rows.values() for v in row])
    if not rows or not np.all(np.isfinite(values)) or np.any(values < 0) or np.any(values > 180):
        problems.append("infer: table holds values outside [0, 180] degrees")
    if report != reference:
        problems.append("infer: report differs from the --threads 1 reference")
    return problems


class InferWorkload:
    name = "infer"
    min_ops = 2

    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.threads = len(os.sched_getaffinity(0))
        # `evaluate` maps one algorithm's images at a time, so no more
        # workers than images are ever busy
        self.workers = min(self.threads, BIG_IMAGES)

    def setup(self, work_dir):
        self.work_dir, self.reference = work_dir, None
        self.manifest = _synth(
            os.path.join(work_dir, "scenes"), 2 * self.seed, BIG_IMAGES,
            self.sizes.big_width, self.sizes.big_height,
        )
        self.model_dir = _paper_model(work_dir, self.seed, self.sizes)
        entries = dataset.load_manifest(self.manifest).entries
        self.images = [(os.path.join(os.path.dirname(self.manifest), e.image_path), e.fold)
                       for e in entries]

    def _evaluate(self, threads: int, prefix: str):
        run_cli(["evaluate", "--manifest", self.manifest, "--algos", ALGOS,
                 "--model-dir", self.model_dir, "--threads", threads, "--out-prefix", prefix])

    @staticmethod
    def _report(prefix: str) -> tuple[str, str]:
        """The summary CSV and the per-image CSV."""
        with open(prefix + ".csv", encoding="utf-8") as fh:
            table = fh.read()
        with open(prefix + "_per_image.csv", encoding="utf-8") as fh:
            return table, fh.read()

    def operation(self, index: int, timer) -> dict:
        prefix = os.path.join(self.work_dir, "report")
        with timer("evaluate_s"):
            self._evaluate(self.threads, prefix)
        report = self._report(prefix)
        estimates, times = [], []
        for path, fold in self.images:
            model = os.path.join(self.model_dir, f"fold{fold}.ccnn")
            with timer("estimate_s") as t:
                out = run_cli(["estimate", "--image", path, "--algo", "cnn",
                               "--model", model, "--pooling", "median"])
            times.append(t.seconds)
            estimates.append([float(v) for v in out.split()])
        return {"report": report, "estimates": estimates, "estimate_times": times}

    def _run_reference(self):
        prefix = os.path.join(self.work_dir, "reference")
        self._evaluate(1, prefix)
        self.reference = self._report(prefix)

    def warm_up(self):
        """The `evaluate --threads 1` run whose report every operation's
        must equal; it also takes the first, slower pass over each image."""
        self._run_reference()

    def finish(self, ops: list[dict], work_dir) -> tuple[dict, list[str]]:
        if self.reference is None:  # the warm-up failed
            self._run_reference()
        reference = self.reference
        problems = []
        for op in ops:
            problems += check_table(op["report"], reference)
            problems += check_unit_vectors(op["estimates"], UNIT_TOLERANCE, "infer estimate")
        if any(op["estimates"] != ops[0]["estimates"] for op in ops):
            problems.append("infer: repeated estimates differ")
        n_images = len(self.images)
        estimate_times = [t for op in ops for t in op["estimate_times"]]
        results = {
            "evaluate_images_per_s": statistics.median(n_images / op["evaluate_s"] for op in ops),
            "estimate_s_p50": statistics.median(estimate_times),
            "estimate_samples": len(estimate_times),
            "cnn_median_err_deg": read_table(reference[0])["cnn-median"][2],
            "threads": self.threads,
        }
        results["throughput_per_s"] = results["evaluate_images_per_s"]
        results["step_s_p50"] = results["estimate_s_p50"]
        results["err_deg"] = results["cnn_median_err_deg"]
        return results, sorted(set(problems))


# --------------------------------------------------------------------------
# localmap: per-patch illuminant maps of two-illuminant scenes


def read_map_csv(csv_text: str) -> np.ndarray:
    """(gh, gw, 3) estimates from a `local-map` CSV."""
    data = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, ndmin=2)
    gw, gh = int(data[:, 0].max()) + 1, int(data[:, 1].max()) + 1
    grid = np.zeros((gh, gw, 3))
    grid[data[:, 1].astype(int), data[:, 0].astype(int)] = data[:, 2:5]
    return grid


class LocalMapWorkload:
    name = "localmap"
    min_ops = BIG_IMAGES  # every image at least once

    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes

    def setup(self, work_dir):
        self.work_dir = work_dir
        manifest = _synth(
            os.path.join(work_dir, "scenes"), 2 * self.seed, BIG_IMAGES,
            self.sizes.big_width, self.sizes.big_height, two_illuminant=True,
        )
        base = os.path.dirname(manifest)
        self.images = [(os.path.join(base, e.image_path), os.path.join(base, e.gt_map_path))
                       for e in dataset.load_manifest(manifest).entries]
        self.model = os.path.join(_paper_model(work_dir, self.seed, self.sizes), "fold0.ccnn")

    def warm_up(self):
        """One operation: the first pass over a large image runs slower than the rest."""
        self.operation(0, untimed)

    def operation(self, index: int, timer) -> dict:
        which = index % len(self.images)
        path, gt_path = self.images[which]
        prefix = os.path.join(self.work_dir, f"map{which}")
        with timer("localmap_s"):
            out = run_cli(["local-map", "--image", path, "--model", self.model,
                           "--out-prefix", prefix, "--filter", "median", "--gt-map", gt_path])
        with open(prefix + ".csv", encoding="utf-8") as fh:
            csv_text = fh.read()
        printed_median = float(out.split("med ")[1].split()[0])
        return {"image": which, "csv": csv_text, "printed_median": printed_median}

    def finish(self, ops: list[dict], work_dir) -> tuple[dict, list[str]]:
        problems, errors = [], []
        first = {}
        for op in ops:
            first.setdefault(op["image"], op)
            if op["csv"] != first[op["image"]]["csv"]:
                problems.append("localmap: repeated maps of one image differ")
        for which, op in sorted(first.items()):
            grid = read_map_csv(op["csv"])
            problems += check_unit_vectors(grid, MAP_UNIT_TOLERANCE, "localmap estimate")
            gt = localmap.grid_ground_truth(
                image.load_illuminant_map_ppm(self.images[which][1]), PATCH_SIZE
            )
            cell_errors = localmap.angular_error_map(localmap.IlluminantMap(grid, PATCH_SIZE), gt)[1]
            if abs(float(np.median(cell_errors)) - op["printed_median"]) > 0.006:
                problems.append("localmap: printed median disagrees with the written map")
            errors += cell_errors
        times = [op["localmap_s"] for op in ops]
        results = {
            "localmap_images_per_s": len(times) / sum(times),
            "localmap_s_p50": statistics.median(times),
            "localmap_err_deg": float(np.median(errors)),
        }
        results["throughput_per_s"] = results["localmap_images_per_s"]
        results["step_s_p50"] = results["localmap_s_p50"]
        results["err_deg"] = results["localmap_err_deg"]
        return results, sorted(set(problems))


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload, LocalMapWorkload)}
