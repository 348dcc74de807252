"""Per-patch illuminant maps for spatially varying light, with 3x3 spatial
filtering of the estimate grid and per-cell error maps."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .estimator import _usable_output_rows, prepared_patches, rectified_unit
from .evaluation import angular_error_many
from .image import LinearImage, save_ppm16, ILLUMINANT_MAP_SCALE
from .network import NetworkParams, forward
from .patches import grid_tiles


@dataclass(frozen=True, eq=False)
class IlluminantMap:
    """A patch-grid of unit illuminant estimates.

    estimates[gy, gx] is the light color of the patch whose origin is
    (gx * patch_size, gy * patch_size) in the source image.
    """

    estimates: np.ndarray
    patch_size: int

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=np.float64)
        if est.ndim != 3 or est.shape[2] != 3:
            raise ShapeMismatchError(f"estimates must be (gh, gw, 3), got {est.shape}")
        norms = np.linalg.norm(est, axis=2)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ShapeMismatchError("all map estimates must be unit length")
        est = est.copy()
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)

    @property
    def grid_w(self) -> int:
        return self.estimates.shape[1]

    @property
    def grid_h(self) -> int:
        return self.estimates.shape[0]


def estimate_local_map(params: NetworkParams, img: LinearImage, patch_size: int) -> IlluminantMap:
    """Per-cell normalized estimates on the non-overlapping patch grid.

    Flat cells, and cells whose network output has no positive component
    (direction-free), borrow the estimate of the nearest usable cell
    (Euclidean grid distance; ties prefer the leftmost, then the uppermost
    candidate). Raises `EstimationImpossibleError` when no cell is usable.
    """
    # the cells must stay aligned with the source pixels, so no resize
    batch = prepared_patches(img, patch_size, resize_target=None)
    raw = forward(params, batch.data)
    keep = _usable_output_rows(raw)
    cells = np.zeros((img.height // patch_size, img.width // patch_size, 3))
    filled = np.zeros(cells.shape[:2], dtype=bool)
    gx, gy = (batch.origins[keep] // patch_size).T
    # row by row: a vectorized norm differs from rectified_unit's in the last bit
    cells[gy, gx] = np.stack([rectified_unit(row) for row in raw[keep]])
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
    return cells / np.linalg.norm(cells, axis=2, keepdims=True)


def _neighborhoods(cells: np.ndarray) -> np.ndarray:
    """Stack of the nine 3x3-shifted copies of the grid, reflect padded."""
    padded = np.pad(cells, ((1, 1), (1, 1), (0, 0)), mode="reflect")
    gh, gw = cells.shape[:2]
    return np.stack([
        padded[dy : dy + gh, dx : dx + gw] for dy in range(3) for dx in range(3)
    ])


def gaussian_3x3_kernel(sigma: float = 0.8) -> np.ndarray:
    """3x3 taps sampled from a Gaussian, normalized to sum 1."""
    xs = np.array([-1.0, 0.0, 1.0])
    k1 = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    k = np.outer(k1, k1)
    return k / k.sum()


def filter_gaussian_3x3(ill_map: IlluminantMap) -> IlluminantMap:
    """Smooth the grid per channel with a 3x3 Gaussian, then renormalize."""
    kernel = gaussian_3x3_kernel().reshape(9, 1, 1, 1)
    blurred = (_neighborhoods(ill_map.estimates) * kernel).sum(axis=0)
    return IlluminantMap(_renormalize(blurred), ill_map.patch_size)


def filter_median_3x3(ill_map: IlluminantMap) -> IlluminantMap:
    """Channel-wise 3x3 median over the grid, then renormalize."""
    med = np.median(_neighborhoods(ill_map.estimates), axis=0)
    return IlluminantMap(_renormalize(med), ill_map.patch_size)


def angular_error_map(est: IlluminantMap, gt: IlluminantMap) -> tuple[np.ndarray, list[float]]:
    """Per-cell angular error in degrees, plus the flattened list."""
    if est.estimates.shape != gt.estimates.shape:
        raise ShapeMismatchError(
            f"grid shapes differ: {est.estimates.shape} vs {gt.estimates.shape}"
        )
    flat = angular_error_many(
        est.estimates.reshape(-1, 3), gt.estimates.reshape(-1, 3)
    )
    grid = flat.reshape(est.estimates.shape[:2])
    return grid, [float(v) for v in flat]


def grid_ground_truth(gt_pixels: np.ndarray, patch_size: int) -> IlluminantMap:
    """Downsample a per-pixel illuminant map to the patch grid by majority.

    Ties take the value of the earliest pixel in row-major cell order, i.e.
    a cell split exactly in half by a vertical boundary keeps the left light.
    """
    gt_pixels = np.asarray(gt_pixels, dtype=np.float64)
    gh = gt_pixels.shape[0] // patch_size
    gw = gt_pixels.shape[1] // patch_size
    if gh < 1 or gw < 1:
        raise ShapeMismatchError("ground-truth map smaller than one patch")
    blocks = grid_tiles(gt_pixels, patch_size).reshape(gh * gw, patch_size * patch_size, 3)
    cells = blocks[:, 0].copy()
    mixed = np.flatnonzero(~(blocks == blocks[:, :1]).all(axis=(1, 2)))
    for i in mixed:
        values, first_idx, counts = np.unique(
            blocks[i], axis=0, return_index=True, return_counts=True
        )
        candidates = np.flatnonzero(counts == counts.max())
        cells[i] = values[candidates[np.argmin(first_idx[candidates])]]
    return IlluminantMap(_renormalize(cells.reshape(gh, gw, 3)), patch_size)


def save_map_ppm(ill_map: IlluminantMap, path):
    """Render the grid as a PPM, each cell upscaled to patch_size pixels and
    scaled by 1/sqrt(3) like all stored illuminant maps."""
    up = np.repeat(np.repeat(ill_map.estimates, ill_map.patch_size, axis=0),
                   ill_map.patch_size, axis=1)
    save_ppm16(
        LinearImage(up * ILLUMINANT_MAP_SCALE), path,
        comment="illuminant map: unit RGB scaled by 65535/sqrt(3)",
    )


def save_map_csv(ill_map: IlluminantMap, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grid_x", "grid_y", "r", "g", "b"])
        for gy in range(ill_map.grid_h):
            for gx in range(ill_map.grid_w):
                r, g, b = ill_map.estimates[gy, gx]
                writer.writerow([gx, gy, f"{r:.9f}", f"{g:.9f}", f"{b:.9f}"])
