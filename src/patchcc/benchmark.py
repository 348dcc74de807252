"""Cross-validated benchmark: one angular-error summary row per estimator."""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import ParameterError
from .estimator import estimate_image, pool_average, pool_median, prepared_patches, unit_estimates
from .evaluation import angular_error, summarize
from .minkowski import ESTIMATORS

STAT_ALGOS = tuple(ESTIMATORS)
SHARED_FORWARD_ALGOS = ("cnn-patch", "cnn-average", "cnn-median")
CNN_ALGOS = SHARED_FORWARD_ALGOS + ("cnn-finetuned",)
ALL_ALGOS = STAT_ALGOS + CNN_ALGOS


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
            writer.writerow(["algorithm", "min", "prc10", "median", "mean", "prc90", "max"])
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
    if fold_models is None or sample.fold not in fold_models:
        raise ParameterError(f"no fold-{sample.fold} model available for {algo}")
    return fold_models[sample.fold]


def benchmark(
    samples,
    algos=ALL_ALGOS,
    fold_models=None,
    finetuned_models=None,
    patch_size: int = 32,
    threads: int = 1,
) -> BenchmarkReport:
    """Evaluate estimators over a labeled dataset.

    Statistical rows run on every image; network rows evaluate each image
    with the model of its own fold. The cnn-patch, cnn-average and
    cnn-median rows share one `unit_estimates` call per image. The cnn-patch
    row pools the errors of every patch of every image into one sample.
    """
    samples = list(samples)
    if not samples:
        raise ParameterError("benchmark needs at least one image")
    for algo in algos:
        if algo not in ALL_ALGOS:
            raise ParameterError(f"unknown estimator {algo!r}; valid: {', '.join(ALL_ALGOS)}")
    shared = [a for a in algos if a in SHARED_FORWARD_ALGOS]

    def image_errors(s) -> dict[str, list[float]]:
        if shared:
            model = _model_for(s, fold_models, shared[0])
            _, _, units = unit_estimates(model, prepared_patches(s.image, patch_size))
        errors = {}
        for algo in algos:
            if algo in ESTIMATORS:
                estimates = [ESTIMATORS[algo](s.image)]
            elif algo == "cnn-patch":
                estimates = units
            elif algo == "cnn-average":
                estimates = [pool_average(units)]
            elif algo == "cnn-median":
                estimates = [pool_median(units)]
            else:
                model = _model_for(s, finetuned_models, algo)
                estimates = [estimate_image(model, s.image, "median", patch_size).illuminant]
            errors[algo] = [angular_error(e, s.illuminant) for e in estimates]
        return errors

    if threads <= 1:
        results = [image_errors(s) for s in samples]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(image_errors, samples))
    per_image = {
        algo: [(s.image_id, err) for s, errors in zip(samples, results) for err in errors[algo]]
        for algo in algos
    }
    rows = {algo: summarize([e for _, e in pairs]) for algo, pairs in per_image.items()}
    return BenchmarkReport(rows=rows, per_image=per_image)
