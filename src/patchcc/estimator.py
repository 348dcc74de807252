"""Image-level illuminant estimation by pooling per-patch network outputs,
plus the training and fine-tuning loops.

Training fits the network per patch with half squared error against the
image's ground truth; fine-tuning then optimizes the image-level angular
error, backpropagating through the pooling step (median pooling routes each
channel's gradient to the estimate(s) realizing the median, average pooling
spreads it 1/N).

Image estimation, fine-tuning, local maps and the benchmark's cnn rows take
their patches from `prepared_patches` (tile, then stretch), at the patch
size the model carries (`NetworkParams.patch_size`), and make each
raw network output a unit estimate with `rectified_units` (through
`unit_estimates` for all but fine-tuning's steps, which keep the forward
cache). Fine-tuning's training images drop the tiles that touch their
exclusion rectangles, mapped onto the resized image (`_tuning_patches`).
`estimate_image` pools the unit estimates into an `Illuminant`, the type
every statistical estimator returns; the mask from `unit_estimates` picks
the batch rows, and so the `origins`, of the estimates. Training draws an
image's random patches in one place, `_drawn_patches`: the image resized
to at most `RESIZE_TARGET` px, sampled clear of its exclusion rectangles
mapped onto the resized image. `training_patch_arrays` stretches the fresh
samples in place, straight into their rows of one array allocated for the
whole fold; the validation patches come from `validation_patch_arrays`,
which keeps only each image's patch origins, at every image size, and
stretches only the `VAL_PATCH_CAP` patches it draws, cut from the image
resized again. The stretch writes patches in
`hyper.dtype` (float32 by default) for training and in the weights' dtype
for fine-tuning and inference, so the network casts none of them; raw
outputs are widened to float64, and so is all after them.
`fold_split` holds the cross-validation convention.
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
from .evaluation import angular_error_many
from .image import Illuminant, LinearImage, normalize, vector_norms
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
from .patches import (
    PatchBatch,
    has_contrast,
    patches_at,
    resize_max_side,
    sample_random_patches,
    stretch_into,
    stretched_grid_patches,
)

RESIZE_TARGET = 1200
DIRECTION_FREE_NORM = 1e-9  # a shorter rectified network output has no direction

# training validates on at most this many patches, drawn with the run's seed
VAL_PATCH_CAP = 1024

# a fine-tuning checkpoint must beat the best validation median by more than
# this many degrees to displace it
MIN_IMPROVEMENT_DEG = 0.1


def rectified_units(raw: np.ndarray) -> tuple[np.ndarray, ...]:
    """Clamp raw network outputs (N, 3) at zero and scale each row to unit
    length: a light color has no negative component.

    Returns the mask of the rows whose rectified output has a direction, and
    those rows' norms (M,) and unit estimates (M, 3); raises if there are none.
    """
    clamped = np.maximum(raw, 0.0)
    norms = vector_norms(clamped)
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


POOLINGS = {"average": pool_average, "median": pool_median}


def _pooling_function(pooling: str):
    """The pooling function named `pooling`; raises on an unknown name."""
    if not isinstance(pooling, str) or pooling not in POOLINGS:
        raise ParameterError(f"pooling must be one of {tuple(POOLINGS)}, got {pooling!r}")
    return POOLINGS[pooling]


def prepared_patches(
    img: LinearImage, patch_size: int, resize_target: int | None = RESIZE_TARGET, dtype=np.float64
) -> PatchBatch:
    """Resize (unless `resize_target` is None), tile, and contrast-normalize to `dtype`.

    The batch holds the usable patches; its `degenerate` counts the flat
    ones that were dropped. Raises when no patch is usable.
    """
    if resize_target is not None:
        img = resize_max_side(img, resize_target)
    batch = stretched_grid_patches(img, patch_size, dtype)
    if not len(batch):
        raise EstimationImpossibleError("no usable patches in image")
    return batch


def unit_estimates(params: NetworkParams, batch: PatchBatch) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the batch rows whose rectified network output has a
    direction, and those rows' unit estimates (M, 3).

    The forward pass runs in the weights' dtype, in which the package's
    callers prepare the batch; the raw outputs are widened to float64
    before they are rectified, so everything downstream is float64 whatever
    the weights' precision.
    """
    keep, _, units = rectified_units(forward(params, batch.data).astype(np.float64, copy=False))
    return keep, units


def estimate_image(params: NetworkParams, img: LinearImage, pooling: str = "median") -> Illuminant:
    """Grid-patch the image at the model's patch size and pool the
    per-patch network estimates."""
    pool = _pooling_function(pooling)
    batch = prepared_patches(img, params.patch_size, dtype=params.dtype)
    return pool(unit_estimates(params, batch)[1])


# --------------------------------------------------------------------------
# training


def fold_split(k: int) -> tuple[int, int]:
    """The (training, validation) folds for test fold k, one of 0, 1 and 2."""
    if k not in (0, 1, 2):
        raise ParameterError(f"fold must be 0, 1 or 2, got {k}")
    return (k + 1) % 3, (k + 2) % 3


def fold_samples(samples, fold: int) -> list[LabeledImage]:
    """The samples of one cross-validation fold, in order."""
    return [s for s in samples if s.fold == fold]


def _drawn_patches(sample: LabeledImage, idx: int, hyper: HyperParams) -> PatchBatch:
    """The random patches training draws from `sample`, the `idx`-th of its
    images: `hyper.patches_per_image` of them, sampled from the image
    resized to at most `RESIZE_TARGET` px by a generator seeded with
    (seed, idx), each clear of the sample's exclusion rectangles mapped
    onto the resized image."""
    img = resize_max_side(sample.image, RESIZE_TARGET)
    return sample_random_patches(img, hyper.patch_size, hyper.patches_per_image,
                                 mask=sample.mask.resampled(sample.image, img),
                                 seed=[hyper.seed, idx])


def training_patch_arrays(samples, hyper: HyperParams) -> tuple[np.ndarray, np.ndarray]:
    """Random stretched patches in `hyper.dtype` and their float64 labels.

    Every patch of an image carries that image's ground truth. Each image
    gets its own generator seeded by (seed, position in the full list), so
    the extraction is order-stable and reproducible. Both arrays are
    allocated once, with a row for every patch drawn; each image's fresh
    samples are stretched straight into their rows, and the rows that flat
    patches leave unused are cut off the end.
    """
    size = hyper.patch_size
    x = np.empty((len(samples) * hyper.patches_per_image, size, size, 3), hyper.dtype)
    y = np.empty((len(x), 3))
    n = 0
    for idx, sample in enumerate(samples):
        # no name holds the samples, so they are freed before the next gather
        kept = stretch_into(_drawn_patches(sample, idx, hyper).data, x[n:])
        y[n : n + kept] = sample.illuminant.rgb
        n += kept
    if not n:
        raise EstimationImpossibleError("no usable training patches")
    return x[:n], y[:n]


def validation_patch_arrays(samples, hyper: HyperParams, cap: int,
                            seed) -> tuple[np.ndarray, np.ndarray]:
    """`training_patch_arrays(samples, hyper)` with at most `cap` of its rows,
    drawn without replacement by a generator seeded with `seed` when there
    are more: the same bits, but only the drawn patches are stretched.

    The draw needs the count of patches with contrast, so every image is
    sampled and its patches' joint ranges taken; of each image only the
    (N, 2) origins of those patches are kept, at every image size. The
    drawn ones are then copied out of the image again, resized the same
    way, so an image resized for training that has a drawn row is resized
    twice. Each image's drawn patches are stretched together, in place,
    and then copied to their rows, so no float64 array of all the drawn
    patches is made.
    """
    size = hyper.patch_size
    kept = []  # per image: the (N, 2) origins of its patches with contrast
    for idx, sample in enumerate(samples):
        batch = _drawn_patches(sample, idx, hyper)
        kept.append(batch.origins[has_contrast(batch.data)])
    starts = np.cumsum([0] + [len(origins) for origins in kept])
    if not starts[-1]:
        raise EstimationImpossibleError("no usable training patches")
    rows = np.arange(starts[-1])
    if len(rows) > cap:
        rows = np.random.default_rng(seed).choice(len(rows), size=cap, replace=False)
    image = np.searchsorted(starts, rows, side="right") - 1
    x = np.empty((len(rows), size, size, 3), hyper.dtype)
    for i in np.unique(image):
        at = np.flatnonzero(image == i)
        # no name holds the resized image, so it is freed before the next resize
        data = patches_at(resize_max_side(samples[i].image, RESIZE_TARGET),
                          kept[i][rows[at] - starts[i]], size)
        stretch_into(data, data)
        x[at] = data
    return x, np.array([sample.illuminant.rgb for sample in samples])[image]


@dataclass
class TrainResult:
    models: dict
    log: list


def train(dataset, folds, hyper: HyperParams) -> TrainResult:
    """Three-fold cross-validated patch training with half-squared-error loss.

    For each requested test fold k the model trains on the first fold of
    `fold_split(k)` and early-stops on the patch-level angular error of the
    second, keeping the best validation checkpoint. Repeated folds raise.
    """
    samples = list(dataset)
    present = {s.fold for s in samples}
    for i, k in enumerate(folds):
        if k in folds[:i]:
            raise ParameterError(f"fold {k} named twice")
        for f in (k, *fold_split(k)):
            if f not in present:
                raise ParameterError(f"dataset has no images in fold {f}")
    log: list[dict] = []
    models: dict[int, NetworkParams] = {}
    for k in folds:
        train_fold, val_fold = fold_split(k)
        x_tr, y_tr = training_patch_arrays(fold_samples(samples, train_fold), hyper)
        x_val, y_val = validation_patch_arrays(fold_samples(samples, val_fold), hyper,
                                               VAL_PATCH_CAP, [hyper.seed, k, 2])
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
    batch: PatchBatch,
    gt: Illuminant,
    pooling: str = "median",
) -> tuple[float, NetworkGrads]:
    """Angular loss (radians) of the pooled estimate of an image's
    `prepared_patches`, with exact parameter gradients through pooling,
    per-patch normalization, and the network.

    As in `unit_estimates`, the network runs in the weights' dtype and its
    outputs are widened to float64 before they are rectified and pooled.
    """
    _pooling_function(pooling)
    out, cache = forward_cache(params, batch.data)
    raw = out.astype(np.float64, copy=False)
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
    grad_raw = np.zeros_like(out)
    grad_raw[keep] = grad_clamped * (raw[keep] > 0)
    return loss, backward(params, cache, grad_raw)


def _tuning_patches(sample: LabeledImage, patch_size: int, dtype) -> PatchBatch:
    """The `prepared_patches` fine-tuning trains on from `sample`: the tiles
    of the image resized to at most `RESIZE_TARGET` px, less those whose
    footprint touches the sample's exclusion rectangles mapped onto the
    resized image, as training's random patches avoid them. Raises when no
    tile is left."""
    img = resize_max_side(sample.image, RESIZE_TARGET)
    batch = prepared_patches(img, patch_size, resize_target=None, dtype=dtype)
    clear = ~sample.mask.resampled(sample.image, img).intersects(batch.origins, patch_size)
    if clear.all():
        return batch
    if not clear.any():
        raise EstimationImpossibleError(
            f"every usable patch of {sample.image_id} touches its exclusion rectangles")
    return PatchBatch(batch.data[clear], batch.origins[clear], batch.degenerate)


def fine_tune(
    params: NetworkParams,
    dataset,
    hyper: HyperParams,
    pooling: str = "median",
    val_dataset=None,
    log: list | None = None,
) -> NetworkParams:
    """Continue training on the image-level angular loss, one image per step.

    The network computes in the dtype of the weights it is given, and the
    result has that dtype: a model loaded from a weights file is tuned in
    its float32. Each image's patches are prepared once per call, at the
    model's patch size, stretched into that dtype too. A training image
    drops the tiles that touch its exclusion rectangles (`_tuning_patches`);
    a validation image keeps every tile, as inference does. Of `hyper`,
    only the learning settings, epochs and seed are read.

    When a validation set is given, the checkpoint with the lowest pooled
    median error is returned; a checkpoint only displaces the current best
    (initially the input parameters) when it wins by more than
    `MIN_IMPROVEMENT_DEG` degrees, so small-sample validation noise cannot hand
    back something worse than the starting point.
    """
    samples = list(dataset)
    if not samples:
        raise ParameterError("fine_tune needs at least one image")
    pool = _pooling_function(pooling)
    state = zero_momentum(params)
    shuffle_rng = np.random.default_rng([hyper.seed, 7])
    batches = [_tuning_patches(s, params.patch_size, params.dtype) for s in samples]
    val_batches = [(prepared_patches(s.image, params.patch_size, dtype=params.dtype), s.illuminant)
                   for s in val_dataset or ()]

    def val_median(p: NetworkParams) -> float:
        pooled = [pool(unit_estimates(p, batch)[1]).rgb for batch, _ in val_batches]
        return float(np.median(angular_error_many(pooled, [gt.rgb for _, gt in val_batches])))

    best_params, best_err = params, val_median(params) if val_batches else float("inf")
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(len(samples))
        for i in order:
            s = samples[i]
            loss, grads = image_level_loss(params, batches[i], s.illuminant, pooling)
            params, state = sgd_step(params, grads, hyper, state)
            if log is not None:
                log.append({
                    "epoch": epoch, "image": s.image_id,
                    "loss_rad": loss, "loss_deg": float(np.degrees(loss)),
                })
        if val_batches:
            err = val_median(params)
            if log is not None:
                log.append({"epoch": epoch, "split": "val", "pooled_median": err})
            if err < best_err - MIN_IMPROVEMENT_DEG:
                best_params, best_err = params, err
    return best_params if val_batches else params
