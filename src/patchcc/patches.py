"""Resizing, patch extraction, exclusion masks, and contrast normalization.

Patches travel as one `PatchBatch` per image: an (N, S, S, 3) data array
with the (N, 2) origins, so tiling, sampling and stretching are array
operations rather than per-patch Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SamplingImpossibleError
from .image import LinearImage

DEGENERATE_RANGE = 1e-12
MAX_REJECTIONS_PER_PATCH = 10_000
MAX_COORDINATE = 2**31  # keeps rectangle edge sums exact in int64


@dataclass(frozen=True, eq=False)
class PatchBatch:
    """N square windows of one image: `data` is (N, S, S, 3) and `origins`
    (N, 2) holds each window's source origin (x, y).

    After histogram stretching every patch's joint min over all channels is
    0 and its joint max is 1; `degenerate` counts the patches without
    contrast that the stretch dropped.
    """

    data: np.ndarray
    origins: np.ndarray
    degenerate: int = 0

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class ExclusionMask:
    """Axis-aligned rectangles (x, y, w, h) that patches must not touch."""

    rects: tuple[tuple[int, int, int, int], ...] = ()

    def __post_init__(self):
        if any(abs(v) > MAX_COORDINATE for r in self.rects for v in r):
            raise ParameterError(f"exclusion rectangle values must lie within +-{MAX_COORDINATE}")

    @staticmethod
    def from_rects(rects) -> "ExclusionMask":
        return ExclusionMask(tuple(tuple(int(v) for v in r) for r in rects))

    def intersects(self, origins: np.ndarray, size: int) -> np.ndarray:
        """Per origin (x, y) of an (N, 2) array: does its size x size
        footprint touch any rectangle?"""
        x, y = origins[:, :1], origins[:, 1:]
        rx, ry, rw, rh = np.asarray(self.rects, dtype=np.int64).reshape(-1, 4).T
        return ((x < rx + rw) & (rx < x + size) & (y < ry + rh) & (ry < y + size)).any(axis=1)


def resize_max_side(img: LinearImage, target: int) -> LinearImage:
    """Downscale so the longer side equals `target`; never upscales.

    Bilinear interpolation on the linear values, pixel centers aligned
    (source coordinate = (i + 0.5) * scale - 0.5).
    """
    if target < 1:
        raise ParameterError(f"target must be >= 1, got {target}")
    longest = max(img.width, img.height)
    if longest <= target:
        return img
    scale = target / longest
    out_w = max(1, int(np.floor(img.width * scale + 0.5)))
    out_h = max(1, int(np.floor(img.height * scale + 0.5)))
    return LinearImage(_bilinear(img.data, out_h, out_w))


def _bilinear(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = data.shape[:2]
    src_y = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    src_x = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    y0 = np.clip(np.floor(src_y).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(src_x).astype(int), 0, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    fy = np.clip(src_y - y0, 0.0, 1.0)[:, None, None]
    fx = np.clip(src_x - x0, 0.0, 1.0)[None, :, None]
    top = data[y0][:, x0] * (1 - fx) + data[y0][:, x1] * fx
    bottom = data[y1][:, x0] * (1 - fx) + data[y1][:, x1] * fx
    return top * (1 - fy) + bottom * fy


def extract_grid_patches(img: LinearImage, size: int) -> PatchBatch:
    """Non-overlapping tiles from (0, 0) in row-major order.

    Partial border tiles are discarded, so the count is
    floor(w/size) * floor(h/size); an image smaller than one patch yields an
    empty batch.
    """
    if size < 1:
        raise ParameterError(f"patch size must be >= 1, got {size}")
    data = grid_tiles(img.data, size)
    gy, gx = np.divmod(np.arange(len(data)), img.width // size)
    return PatchBatch(data, np.stack([gx, gy], axis=1) * size)


def grid_tiles(data: np.ndarray, size: int) -> np.ndarray:
    """The non-overlapping size x size tiles of an (H, W, C) array as
    (N, size, size, C), row-major; partial border tiles are discarded."""
    rows, cols, channels = data.shape[0] // size, data.shape[1] // size, data.shape[2]
    return (
        data[: rows * size, : cols * size]
        .reshape(rows, size, cols, size, channels)
        .swapaxes(1, 2)
        .reshape(rows * cols, size, size, channels)
    )


def sample_random_patches(
    img: LinearImage,
    size: int,
    count: int,
    mask: ExclusionMask | None = None,
    seed=0,
) -> PatchBatch:
    """Sample `count` patch origins uniformly at random, with replacement.

    Origins are drawn as (x, y) pairs from one generator; those whose
    size x size footprint touches the exclusion mask are rejected, and more
    than 10,000 rejections in a row raise. Deterministic for a given seed.
    """
    if size < 1:
        raise ParameterError(f"patch size must be >= 1, got {size}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    if img.width < size or img.height < size:
        raise SamplingImpossibleError(
            f"image {img.width}x{img.height} cannot fit a {size}x{size} patch"
        )
    mask = mask or ExclusionMask()
    rng = np.random.default_rng(seed)
    high = [img.width - size + 1, img.height - size + 1]
    origins = np.empty((0, 2), dtype=np.int64)
    streak = 0  # rejected draws since the last kept origin
    while len(origins) < count:
        # surplus draws are harmless: the generator is private to this call
        draws = rng.integers(0, high, size=(max(count - len(origins), 1024), 2))
        kept = np.flatnonzero(~mask.intersects(draws, size))[: count - len(origins)]
        origins = np.concatenate([origins, draws[kept]])
        # rejections before each kept draw, then after the last one
        runs = np.diff(kept, prepend=-1, append=len(draws)) - 1
        runs[0] += streak
        streak = runs[-1]
        if runs[:-1].max(initial=0) > MAX_REJECTIONS_PER_PATCH or (
            len(origins) < count and streak > MAX_REJECTIONS_PER_PATCH
        ):
            raise SamplingImpossibleError(
                f"no mask-free {size}x{size} origin found after "
                f"{MAX_REJECTIONS_PER_PATCH} rejections"
            )
    offsets = np.arange(size)
    data = img.data[
        origins[:, 1, None, None] + offsets[:, None], origins[:, 0, None, None] + offsets
    ]
    return PatchBatch(data, origins)


def histogram_stretch(batch: PatchBatch) -> PatchBatch:
    """Affinely rescale each patch to [0, 1] using the joint min/max of its
    three channels.

    One global affine map per patch keeps the relative contributions of the
    channels intact; per-channel stretching would destroy the chromatic
    signal. Patches with joint range below 1e-12 are dropped and counted in
    `degenerate`.
    """
    lo = batch.data.min(axis=(1, 2, 3), keepdims=True)
    span = batch.data.max(axis=(1, 2, 3), keepdims=True) - lo
    keep = span.reshape(-1) >= DEGENERATE_RANGE
    data = (batch.data[keep] - lo[keep]) / span[keep]
    return PatchBatch(data, batch.origins[keep], degenerate=int(len(keep) - keep.sum()))
