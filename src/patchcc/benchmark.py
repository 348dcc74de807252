"""Cross-validated benchmark: one angular-error summary row per estimator."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .estimator import POOLINGS, prepared_patches, unit_estimates
from .evaluation import STAT_NAMES, angular_error_many, summarize
from .lanes import spread
from .minkowski import ESTIMATORS

STAT_ALGOS = tuple(ESTIMATORS)
# cnn row -> (model set, pooling); a set is named by its flag, --model-dir or
# --finetuned-dir, and cnn-patch, unpooled, scores every patch's estimate
CNN_ROWS = {
    "cnn-patch": ("model", None),
    "cnn-average": ("model", "average"),
    "cnn-median": ("model", "median"),
    "cnn-finetuned": ("finetuned", "median"),
}
ALL_ALGOS = STAT_ALGOS + tuple(CNN_ROWS)


@dataclass
class BenchmarkReport:
    """Summary rows plus the raw per-image (or per-patch) error dumps."""

    rows: dict
    per_image: dict

    def render_text(self) -> str:
        lines = [f"{'Algorithm':<14} {'Min':>7} {'10th':>7} {'Med':>7} "
                 f"{'Avg':>7} {'90th':>7} {'Max':>7}"]
        for name, stats in self.rows.items():
            cells = " ".join(f"{v:7.2f}" for v in stats.as_row())
            lines.append(f"{name:<14} {cells}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", *STAT_NAMES])
            for name, stats in self.rows.items():
                writer.writerow([name] + [f"{v:.6f}" for v in stats.as_row()])

    def write_per_image_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["image_id", "estimator", "degrees"])
            for name, errors in self.per_image.items():
                for image_id, err in errors:
                    writer.writerow([image_id, name, f"{err:.6f}"])


def _model_for(sample, fold_models, algo):
    if sample.fold not in fold_models:
        raise ParameterError(f"no fold-{sample.fold} model available for {algo}")
    return fold_models[sample.fold]


def check_threads(threads: int):
    """Raise `ParameterError` unless `threads` is a lane count `benchmark`
    takes, so that a caller can reject it before decoding any image."""
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")


def check_algos(algos, fold_models, finetuned_models) -> int | None:
    """Raise `ParameterError` unless `algos` is a nonempty list of distinct
    known estimators whose cnn rows have models, all of one patch size,
    before any image is decoded. Returns that patch size, or None when no
    cnn row is named."""
    if not algos:
        raise ParameterError("no estimator named")
    sizes = {}
    for i, algo in enumerate(algos):
        if algo in algos[:i]:
            raise ParameterError(f"estimator {algo!r} named twice")
        if algo not in ALL_ALGOS:
            raise ParameterError(f"unknown estimator {algo!r}; valid: {', '.join(ALL_ALGOS)}")
        name = CNN_ROWS.get(algo, (None,))[0]
        if name:
            models = {"model": fold_models, "finetuned": finetuned_models}[name]
            if not models:
                raise ParameterError(f"{algo} needs --{name}-dir models")
            for model in models.values():
                sizes.setdefault(model.patch_size, name)
    if len(sizes) > 1:
        raise ParameterError("the cnn rows' models differ in patch size: " + ", ".join(
            f"{size} px (--{name}-dir)" for size, name in sizes.items()))
    return next(iter(sizes), None)


def benchmark(
    samples,
    algos=ALL_ALGOS,
    fold_models=None,
    finetuned_models=None,
    threads: int = 1,
) -> BenchmarkReport:
    """Evaluate estimators over a labeled dataset.

    Statistical rows run on every image. Network rows read one batch per
    image, at the patch size all their models share and in the dtype they
    compute in (float64 if any of them does, else float32), and one
    `unit_estimates` call per model set the rows use, with the model of the
    image's fold; cnn-patch scores every patch.

    The images go through `lanes.spread` in `threads` lanes, so `threads`
    caps the images in flight, and the CPUs cap the threads; the results and
    the error raised are those of one image after another.
    """
    check_threads(threads)
    patch_size = check_algos(algos, fold_models, finetuned_models)
    samples = list(samples)
    if not samples:
        raise ParameterError("benchmark needs at least one image")
    sets = {"model": fold_models, "finetuned": finetuned_models}
    # the first row that reads each set names it in a missing-fold error
    readers = {}
    for algo in algos:
        if algo in CNN_ROWS:
            readers.setdefault(CNN_ROWS[algo][0], algo)
    # the cnn rows' patches are stretched into the dtype their models compute
    # in, float64 if any of them does
    dtypes = [m.dtype for name in readers for m in sets[name].values()]
    dtype = np.result_type(*dtypes) if dtypes else None

    def image_errors(s) -> dict[str, list[float]]:
        if readers:
            batch = prepared_patches(s.image, patch_size, dtype=dtype)
            units = {name: unit_estimates(_model_for(s, models, readers[name]), batch)[1]
                     for name, models in sets.items() if name in readers}
            batch = None  # not held while the statistical rows run
        errors = {}
        for algo in algos:
            if algo in ESTIMATORS:
                estimates = ESTIMATORS[algo](s.image).rgb
            else:
                name, pooling = CNN_ROWS[algo]
                estimates = units[name] if pooling is None else POOLINGS[pooling](units[name]).rgb
            errors[algo] = angular_error_many(estimates.reshape(-1, 3), s.illuminant.rgb).tolist()
        return errors

    results = spread(image_errors, samples, threads)
    per_image = {
        algo: [(s.image_id, err) for s, errors in zip(samples, results) for err in errors[algo]]
        for algo in algos
    }
    rows = {algo: summarize([e for _, e in pairs]) for algo, pairs in per_image.items()}
    return BenchmarkReport(rows=rows, per_image=per_image)
