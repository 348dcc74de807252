"""Per-patch illuminant maps for spatially varying light from `unit_estimates`,
with 3x3 spatial filtering of the estimate grid and per-cell error maps.

The ground truth of a map is a per-pixel map gridded by majority, either
from unit vectors in memory (`grid_ground_truth`) or straight from a map
file's 16-bit samples (`load_grid_ground_truth`), with the same bytes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .estimator import DIRECTION_FREE_NORM, prepared_patches, unit_estimates
from .evaluation import angular_error_many
from .image import (
    LinearImage,
    map_sample_units,
    read_map_samples,
    save_illuminant_map_ppm,
    vector_norms,
)
from .network import NetworkParams

# sigma, in cells, of the 3x3 Gaussian map filter
MAP_GAUSSIAN_SIGMA = 0.8


@dataclass(frozen=True, eq=False)
class IlluminantMap:
    """A patch-grid of unit illuminant estimates.

    estimates[gy, gx] is the light color of the patch whose origin is
    (gx * patch_size, gy * patch_size) in the source image.
    """

    estimates: np.ndarray
    patch_size: int

    def __post_init__(self):
        est = np.array(self.estimates, dtype=np.float64)
        if est.ndim != 3 or est.shape[2] != 3:
            raise ShapeMismatchError(f"estimates must be (gh, gw, 3), got {est.shape}")
        if not np.allclose(vector_norms(est), 1.0, atol=1e-9):
            raise ShapeMismatchError("all map estimates must be unit length")
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)

    @property
    def grid_w(self) -> int:
        return self.estimates.shape[1]

    @property
    def grid_h(self) -> int:
        return self.estimates.shape[0]


def estimate_local_map(params: NetworkParams, img: LinearImage) -> IlluminantMap:
    """Per-cell normalized estimates on the non-overlapping grid of the
    model's patch size.

    Flat cells, and cells whose network output has no positive component
    (direction-free), borrow the estimate of the nearest usable cell
    (Euclidean grid distance; ties prefer the leftmost, then the uppermost
    candidate). Raises `EstimationImpossibleError` when no cell is usable.
    """
    patch_size = params.patch_size
    # the cells must stay aligned with the source pixels, so no resize
    batch = prepared_patches(img, patch_size, resize_target=None, dtype=params.dtype)
    keep, units = unit_estimates(params, batch)
    cells = np.zeros((img.height // patch_size, img.width // patch_size, 3))
    filled = np.zeros(cells.shape[:2], dtype=bool)
    gx, gy = (batch.origins[keep] // patch_size).T
    cells[gy, gx] = units
    filled[gy, gx] = True
    if not filled.all():
        # candidates sorted by (x, y), so argmin's first hit breaks distance ties
        good_y, good_x = np.nonzero(filled.T)[::-1]
        empty_y, empty_x = np.nonzero(~filled)
        dist = (good_x - empty_x[:, None]) ** 2 + (good_y - empty_y[:, None]) ** 2
        nearest = dist.argmin(axis=1)
        cells[empty_y, empty_x] = cells[good_y[nearest], good_x[nearest]]
    return IlluminantMap(estimates=cells, patch_size=patch_size)


def _renormalize(cells: np.ndarray) -> np.ndarray:
    """Unit cells by an add-reduce norm, not `vector_norms`: map files hold its bits."""
    return cells / np.linalg.norm(cells, axis=2, keepdims=True)


def _neighborhoods(cells: np.ndarray) -> np.ndarray:
    """Stack of the nine 3x3-shifted copies of the grid, reflect padded."""
    padded = np.pad(cells, ((1, 1), (1, 1), (0, 0)), mode="reflect")
    gh, gw = cells.shape[:2]
    return np.stack([
        padded[dy : dy + gh, dx : dx + gw] for dy in range(3) for dx in range(3)
    ])


def gaussian_3x3_kernel() -> np.ndarray:
    """3x3 taps sampled from a Gaussian of `MAP_GAUSSIAN_SIGMA`, normalized
    to sum 1."""
    xs = np.array([-1.0, 0.0, 1.0])
    k1 = np.exp(-(xs * xs) / (2.0 * MAP_GAUSSIAN_SIGMA * MAP_GAUSSIAN_SIGMA))
    k = np.outer(k1, k1)
    return k / k.sum()


def filter_gaussian_3x3(ill_map: IlluminantMap) -> IlluminantMap:
    """Smooth the grid per channel with a 3x3 Gaussian, then renormalize."""
    kernel = gaussian_3x3_kernel().reshape(9, 1, 1, 1)
    blurred = (_neighborhoods(ill_map.estimates) * kernel).sum(axis=0)
    return IlluminantMap(_renormalize(blurred), ill_map.patch_size)


def filter_median_3x3(ill_map: IlluminantMap) -> IlluminantMap:
    """Channel-wise 3x3 median over the grid, then renormalize.

    A channel-wise median need not be a direction: nine rectified unit
    estimates such as (1, 0, 0), (0, 1, 0) and (0, 0, 1) give (0, 0, 0). A
    cell whose median is shorter than `DIRECTION_FREE_NORM` (by
    `vector_norms`, as the estimator drops rows) keeps its unfiltered
    estimate; every other cell is its median renormalized.
    """
    med = np.median(_neighborhoods(ill_map.estimates), axis=0)
    # `_renormalize`'s norm, whose bits map files hold; a kept cell is divided by 1
    norms = np.linalg.norm(med, axis=2, keepdims=True)
    free = vector_norms(med) < DIRECTION_FREE_NORM
    med[free] = ill_map.estimates[free]
    norms[free] = 1.0
    return IlluminantMap(med / norms, ill_map.patch_size)


def angular_error_map(est: IlluminantMap, gt: IlluminantMap) -> tuple[np.ndarray, list[float]]:
    """Per-cell angular error in degrees, plus the flattened list."""
    if est.estimates.shape != gt.estimates.shape:
        raise ShapeMismatchError(
            f"grid shapes differ: {est.estimates.shape} vs {gt.estimates.shape}"
        )
    grid = angular_error_many(est.estimates, gt.estimates)
    return grid, grid.ravel().tolist()


def _cell_blocks(pixels: np.ndarray, patch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, uniform) of a per-pixel (H, W, 3) map on the patch grid.

    blocks is a view, blocks[gy, :, gx] the cell (gy, gx); the border outside
    the grid is left out. A cell is uniform when each of its rows equals its
    first row and that row is constant.
    """
    gh = pixels.shape[0] // patch_size
    gw = pixels.shape[1] // patch_size
    if gh < 1 or gw < 1:
        raise ShapeMismatchError("ground-truth map smaller than one patch")
    blocks = pixels[: gh * patch_size, : gw * patch_size].reshape(
        gh, patch_size, gw, patch_size, 3)
    first_rows = blocks[:, 0]
    # the row axis is reduced on its own: all() over axes (1, 3) at once is far slower
    uniform = (
        (blocks == first_rows[:, None]).all(axis=1).all(axis=(2, 3))
        & (first_rows == first_rows[:, :, :1]).all(axis=(2, 3))
    )
    return blocks, uniform


def _majority(first_idx: np.ndarray, counts: np.ndarray) -> int:
    """Which of a cell's distinct values wins its vote: the most pixels, and
    on a tie the value met first in row-major cell order."""
    candidates = np.flatnonzero(counts == counts.max())
    return candidates[np.argmin(first_idx[candidates])]


def grid_ground_truth(gt_pixels: np.ndarray, patch_size: int) -> IlluminantMap:
    """Downsample a per-pixel illuminant map to the patch grid by majority.

    Ties take the value of the earliest pixel in row-major cell order, i.e.
    a cell split exactly in half by a vertical boundary keeps the left light.
    Only the cells that are not uniform are voted on.
    """
    blocks, uniform = _cell_blocks(np.asarray(gt_pixels, dtype=np.float64), patch_size)
    cells = blocks[:, 0, :, 0].copy()
    for gy, gx in zip(*np.nonzero(~uniform)):
        values, first_idx, counts = np.unique(
            blocks[gy, :, gx].reshape(-1, 3), axis=0, return_index=True, return_counts=True
        )
        cells[gy, gx] = values[_majority(first_idx, counts)]
    return IlluminantMap(_renormalize(cells), patch_size)


def load_grid_ground_truth(path, patch_size: int) -> IlluminantMap:
    """`grid_ground_truth(load_illuminant_map_ppm(path), patch_size)`, with
    its bytes and errors, from the file's 16-bit samples.

    Only the pixels that decide a cell become unit vectors. Uniformity is
    tested on the raw samples; a uniform cell takes its first pixel. A mixed
    cell counts its distinct samples, then merges those whose unit vectors
    are equal, as (1, 1, 1) and (2, 2, 2) are, before the vote.
    """
    samples = read_map_samples(path)
    # native 16-bit words: the mask and the keys need only their equality,
    # which does not depend on byte order
    blocks, uniform = _cell_blocks(samples.view(np.uint16), patch_size)
    values = blocks.view(samples.dtype)
    cells = map_sample_units(values[:, 0, :, 0])
    for gy, gx in zip(*np.nonzero(~uniform)):
        words = blocks[gy, :, gx].reshape(-1, 3).astype(np.uint64)
        keys = (words[:, 0] << 32) | (words[:, 1] << 16) | words[:, 2]
        _, first_idx, key_of = np.unique(keys, return_index=True, return_inverse=True)
        units = map_sample_units(values[gy, :, gx].reshape(-1, 3)[first_idx])
        merged, unit_of_key = np.unique(units, axis=0, return_inverse=True)
        # numpy 2.0.0 gives the inverse of an axis unique as a column
        _, first_idx, counts = np.unique(
            unit_of_key.reshape(-1)[key_of], return_index=True, return_counts=True)
        cells[gy, gx] = merged[_majority(first_idx, counts)]
    return IlluminantMap(_renormalize(cells), patch_size)


def save_map_ppm(ill_map: IlluminantMap, path):
    """Write the grid with `save_illuminant_map_ppm`, one cell per patch."""
    save_illuminant_map_ppm(ill_map.estimates, path, cell_size=ill_map.patch_size)


def save_map_csv(ill_map: IlluminantMap, path):
    """One row per cell in row-major grid order: grid_x, grid_y and the
    estimate to nine decimals, under a grid_x,grid_y,r,g,b header. The text
    is built whole and written once, with the bytes `csv.writer` would
    write: no field needs quoting, and every row ends in CR LF."""
    rows = "".join(f"{gx},{gy},{r:.9f},{g:.9f},{b:.9f}\r\n"
                   for gy, row in enumerate(ill_map.estimates.tolist())
                   for gx, (r, g, b) in enumerate(row))
    with open(path, "w", newline="") as fh:
        fh.write("grid_x,grid_y,r,g,b\r\n" + rows)
