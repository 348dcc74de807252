"""Image-level illuminant estimation by pooling per-patch network outputs,
plus the training and fine-tuning loops.

Training fits the network per patch with half squared error against the
image's ground truth; fine-tuning then optimizes the image-level angular
error, backpropagating through the pooling step (median pooling routes each
channel's gradient to the estimate(s) realizing the median, average pooling
spreads it 1/N).

Image estimation, fine-tuning, local maps and the benchmark's cnn rows take
their patches from `prepared_patches` (tile, then stretch) and make each
raw network output a unit estimate with `rectified_units` (through
`unit_estimates` for all but fine-tuning, which keeps the forward cache);
training takes its patches from `training_patch_arrays` (sample, then
stretch). `fold_split` holds the cross-validation convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledImage
from .errors import (
    DegenerateEstimateError,
    EstimationImpossibleError,
    ParameterError,
)
from .evaluation import angular_error, angular_error_many
from .image import Illuminant, LinearImage, normalize
from .network import (
    HyperParams,
    NetworkGrads,
    NetworkParams,
    angular_loss,
    backward,
    euclidean_loss,
    forward,
    forward_cache,
    init_params,
    sgd_step,
    zero_momentum,
)
from .patches import PatchBatch, extract_grid_patches, histogram_stretch, resize_max_side, sample_random_patches

RESIZE_TARGET = 1200
POOLINGS = ("average", "median")
DIRECTION_FREE_NORM = 1e-9  # a shorter rectified network output has no direction

# training validates on at most this many patches, drawn with the run's seed
VAL_PATCH_CAP = 1024

# a fine-tuning checkpoint must beat the best validation median by more than
# this many degrees to displace it
MIN_IMPROVEMENT_DEG = 0.1


@dataclass(frozen=True, eq=False)
class PooledEstimate:
    """An image-level estimate with its per-patch provenance.

    Row i of `origins` (M, 2), `raw` (M, 3) and `units` (M, 3) holds a
    patch's origin (x, y), raw network output and normalized estimate, for
    every patch that was neither flat nor direction-free;
    `degenerate_skipped` counts the patches that were left out.
    """

    illuminant: Illuminant
    origins: np.ndarray
    raw: np.ndarray
    units: np.ndarray
    degenerate_skipped: int = 0


def rectified_units(raw: np.ndarray) -> tuple[np.ndarray, ...]:
    """Clamp raw network outputs (N, 3) at zero and scale each row to unit
    length: a light color has no negative component.

    Returns the mask of the rows whose rectified output has a direction, and
    those rows' norms (M,) and unit estimates (M, 3). Raises when no row has
    one. Each norm is one row's dot product, as `np.linalg.norm` of a single
    vector computes it.
    """
    clamped = np.maximum(raw, 0.0)
    norms = np.sqrt(np.vecdot(clamped, clamped))
    keep = norms >= DIRECTION_FREE_NORM
    if not keep.any():
        raise EstimationImpossibleError("every patch estimate is direction-free")
    norms = norms[keep]
    return keep, norms, clamped[keep] / norms[:, None]


def _nonempty(units: np.ndarray) -> np.ndarray:
    if not len(units):
        raise ParameterError("cannot pool an empty estimate array")
    return units


def pool_average(units: np.ndarray) -> Illuminant:
    """Channel-wise arithmetic mean of (M, 3) unit estimates, renormalized."""
    return normalize(_nonempty(units).mean(axis=0))


def pool_median(units: np.ndarray) -> Illuminant:
    """Channel-wise median of (M, 3) unit estimates, renormalized.

    Even counts take the mean of the two middle values per channel.
    """
    med = np.median(_nonempty(units), axis=0)
    if not np.any(med > 0):
        raise DegenerateEstimateError("channel-wise median is the zero vector")
    return normalize(med)


def prepared_patches(
    img: LinearImage, patch_size: int, resize_target: int | None = RESIZE_TARGET
) -> PatchBatch:
    """Resize (unless `resize_target` is None), tile, and contrast-normalize.

    The batch holds the usable patches; its `degenerate` counts the flat
    ones that were dropped. Raises when no patch is usable.
    """
    if resize_target is not None:
        img = resize_max_side(img, resize_target)
    batch = histogram_stretch(extract_grid_patches(img, patch_size))
    if not len(batch):
        raise EstimationImpossibleError("no usable patches in image")
    return batch


def unit_estimates(params: NetworkParams, batch: PatchBatch) -> tuple[np.ndarray, ...]:
    """The mask of the batch rows whose rectified network output has a
    direction, and those rows' raw outputs and unit estimates, each (M, 3)."""
    raw = forward(params, batch.data)
    keep, _, units = rectified_units(raw)
    return keep, raw[keep], units


def estimate_image(
    params: NetworkParams,
    img: LinearImage,
    pooling: str = "median",
    patch_size: int = 32,
) -> PooledEstimate:
    """Grid-patch the image and pool the per-patch network estimates."""
    if pooling not in POOLINGS:
        raise ParameterError(f"pooling must be one of {POOLINGS}, got {pooling!r}")
    batch = prepared_patches(img, patch_size)
    keep, raw, units = unit_estimates(params, batch)
    return PooledEstimate(
        illuminant=(pool_median if pooling == "median" else pool_average)(units),
        origins=batch.origins[keep],
        raw=raw,
        units=units,
        degenerate_skipped=batch.degenerate + int(len(keep) - keep.sum()),
    )


# --------------------------------------------------------------------------
# training


def fold_split(k: int) -> tuple[int, int]:
    """The (training, validation) folds for test fold k."""
    return (k + 1) % 3, (k + 2) % 3


def fold_samples(samples, fold: int) -> list[LabeledImage]:
    """The samples of one cross-validation fold, in order."""
    return [s for s in samples if s.fold == fold]


def training_patch_arrays(samples, hyper: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    """Random stretched patches and their per-image illuminant labels.

    Every patch of an image carries that image's ground truth. Each image
    gets its own generator seeded by (seed, position in the full list), so
    the extraction is order-stable and reproducible.
    """
    xs, ys = [], []
    for idx, sample in enumerate(samples):
        img = resize_max_side(sample.image, RESIZE_TARGET)
        batch = histogram_stretch(sample_random_patches(
            img, hyper.patch_size, hyper.patches_per_image,
            mask=sample.mask, seed=[hyper.seed, idx],
        ))
        xs.append(batch.data)
        ys.append(np.broadcast_to(sample.illuminant.rgb, (len(batch), 3)))
    if not any(len(x) for x in xs):
        raise EstimationImpossibleError("no usable training patches")
    return np.concatenate(xs), np.concatenate(ys)


@dataclass
class TrainResult:
    models: dict
    log: list


def train(dataset, folds, hyper: HyperParams) -> TrainResult:
    """Three-fold cross-validated patch training with half-squared-error loss.

    For each requested test fold k the model trains on the first fold of
    `fold_split(k)` and early-stops on the patch-level angular error of the
    second, keeping the best validation checkpoint.
    """
    samples = list(dataset)
    present = {s.fold for s in samples}
    log: list[dict] = []
    models: dict[int, NetworkParams] = {}
    for k in folds:
        train_fold, val_fold = fold_split(k)
        for f in (k, train_fold, val_fold):
            if f not in present:
                raise ParameterError(f"dataset has no images in fold {f}")
        dtype = np.dtype(hyper.dtype)
        x_tr, y_tr = training_patch_arrays(fold_samples(samples, train_fold), hyper)
        x_val, y_val = training_patch_arrays(fold_samples(samples, val_fold), hyper)
        x_tr, y_tr = x_tr.astype(dtype), y_tr.astype(dtype)
        if len(x_val) > VAL_PATCH_CAP:
            keep = np.random.default_rng([hyper.seed, k, 2]).choice(
                len(x_val), size=VAL_PATCH_CAP, replace=False
            )
            x_val, y_val = x_val[keep], y_val[keep]
        x_val = x_val.astype(dtype)
        params = init_params(hyper, seed=[hyper.seed, k])
        state = zero_momentum(params)
        shuffle_rng = np.random.default_rng([hyper.seed, k, 1])
        best_params, best_err, best_epoch = params, float("inf"), -1
        for epoch in range(hyper.epochs):
            order = shuffle_rng.permutation(len(x_tr))
            total, seen = 0.0, 0
            for start in range(0, len(order), hyper.batch_size):
                sel = order[start : start + hyper.batch_size]
                est, cache = forward_cache(params, x_tr[sel])
                loss, grad = euclidean_loss(est, y_tr[sel])
                grads = backward(params, cache, grad)
                params, state = sgd_step(params, grads, hyper, state)
                total += loss * len(sel)
                seen += len(sel)
            val_err = float(np.mean(angular_error_many(forward(params, x_val), y_val)))
            log.append({
                "fold": k, "epoch": epoch, "split": "train",
                "loss": total / max(seen, 1),
            })
            log.append({
                "fold": k, "epoch": epoch, "split": "val",
                "angular_mean": val_err,
            })
            if val_err < best_err:
                best_params, best_err, best_epoch = params, val_err, epoch
            elif epoch - best_epoch >= hyper.patience:
                log.append({"fold": k, "epoch": epoch, "split": "early_stop",
                            "best_epoch": best_epoch, "angular_mean": best_err})
                break
        models[k] = best_params
    return TrainResult(models=models, log=log)


# --------------------------------------------------------------------------
# fine-tuning through the pooling step


def _median_routing(rows: np.ndarray) -> np.ndarray:
    """Per-channel subgradient weights of the median over axis 0.

    Odd counts give the realizing row weight 1; even counts split 0.5/0.5
    between the two middle rows (stable sort order breaks ties).
    """
    n = rows.shape[0]
    weights = np.zeros_like(rows)
    order = np.argsort(rows, axis=0, kind="stable")
    cols = np.arange(rows.shape[1])
    if n % 2 == 1:
        weights[order[n // 2], cols] = 1.0
    else:
        weights[order[n // 2 - 1], cols] += 0.5
        weights[order[n // 2], cols] += 0.5
    return weights


def image_level_loss(
    params: NetworkParams,
    img: LinearImage,
    gt: Illuminant,
    pooling: str = "median",
    patch_size: int = 32,
) -> tuple[float, NetworkGrads]:
    """Angular loss (radians) of the pooled estimate, with exact parameter
    gradients through pooling, per-patch normalization, and the network."""
    if pooling not in POOLINGS:
        raise ParameterError(f"pooling must be one of {POOLINGS}, got {pooling!r}")
    batch = prepared_patches(img, patch_size)
    raw, cache = forward_cache(params, batch.data)
    keep, norms, units = rectified_units(raw)
    if pooling == "median":
        pooled = np.median(units, axis=0)
        routing = _median_routing(units)
    else:
        pooled = units.mean(axis=0)
        routing = np.full_like(units, 1.0 / len(units))
    loss, grad_pooled = angular_loss(pooled, gt)
    grad_units = routing * grad_pooled[None, :]
    # d(unit)/d(clamped) = (I - unit unit^T) / norm, then the clamp mask
    along = (grad_units * units).sum(axis=1, keepdims=True)
    grad_clamped = (grad_units - along * units) / norms[:, None]
    grad_raw = np.zeros_like(raw)
    grad_raw[keep] = grad_clamped * (raw[keep] > 0)
    return loss, backward(params, cache, grad_raw)


def fine_tune(
    params: NetworkParams,
    dataset,
    hyper: HyperParams,
    pooling: str = "median",
    val_dataset=None,
    log: list | None = None,
) -> NetworkParams:
    """Continue training on the image-level angular loss, one image per step.

    When a validation set is given, the checkpoint with the lowest pooled
    median error is returned; a checkpoint only displaces the current best
    (initially the input parameters) when it wins by more than
    `MIN_IMPROVEMENT_DEG` degrees, so small-sample validation noise cannot hand
    back something worse than the starting point.
    """
    samples = list(dataset)
    if not samples:
        raise ParameterError("fine_tune needs at least one image")
    state = zero_momentum(params)
    shuffle_rng = np.random.default_rng([hyper.seed, 7])

    def val_median(p: NetworkParams) -> float:
        errs = [
            angular_error(
                estimate_image(p, s.image, pooling, hyper.patch_size).illuminant,
                s.illuminant,
            )
            for s in val_dataset
        ]
        return float(np.median(errs))

    best_params, best_err = params, val_median(params) if val_dataset else float("inf")
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(len(samples))
        for i in order:
            s = samples[i]
            loss, grads = image_level_loss(params, s.image, s.illuminant, pooling, hyper.patch_size)
            params, state = sgd_step(params, grads, hyper, state)
            if log is not None:
                log.append({
                    "epoch": epoch, "image": s.image_id,
                    "loss_rad": loss, "loss_deg": float(np.degrees(loss)),
                })
        if val_dataset:
            err = val_median(params)
            if log is not None:
                log.append({"epoch": epoch, "split": "val", "pooled_median": err})
            if err < best_err - MIN_IMPROVEMENT_DEG:
                best_params, best_err = params, err
    return best_params if val_dataset else params
