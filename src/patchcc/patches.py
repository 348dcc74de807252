"""Resizing, patch extraction, exclusion masks, and contrast normalization.

Patches travel as one `PatchBatch` per image: an (N, S, S, 3) data array
with the (N, 2) origins, so tiling, sampling and stretching are array
operations rather than per-patch Python loops. Grid tiles are read through
a view of the image and random samples copied out of a window view, each
patch once; `stretch_into` stretches fresh samples in place into a
caller's array, for training.

Resizing runs in strips of output rows, spread over the CPUs with
`lanes.spread`, so its temporaries stay in cache. Each output element
takes the same rounded operations in the same order as the full-size gather
form, interpolating along x first and then along y, so the bytes are those
of that form on any number of CPUs. The grid stretch runs in strips of tile
rows through `spread` as well, in two passes (the joint ranges, then the
kept tiles written at each strip's offset into one array of the requested
dtype), with the bits of the single-pass stretch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, SamplingImpossibleError
from .image import LANE_STRIP_ROWS, LinearImage
from .lanes import spread

DEGENERATE_RANGE = 1e-12
MAX_REJECTIONS_PER_PATCH = 10_000
MAX_COORDINATE = 2**31  # keeps rectangle edge sums exact in int64
# output rows per `_bilinear` strip. At 1800 -> 1200 px a strip's four
# float64 temporaries take about 2.4 MB, near a core's L2 cache: 8 to 32 rows
# ran within 5% of each other on a 2 MB-L2 core, 128 rows 10-25% slower
RESIZE_STRIP_ROWS = 16


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

    def resampled(self, src: LinearImage, dst: LinearImage) -> "ExclusionMask":
        """The rectangles, given in `src`'s pixels, on `dst`, its
        `resize_max_side`; the mask itself when `dst` is `src`.

        A patch of `dst` at (ox, oy) touches a mapped rectangle exactly when
        the span of source pixels it reads touches the rectangle: columns
        lo(ox) to hi(ox + S - 1) of `_source_taps`, and rows alike. The span
        takes in the pixels between two taps too, so even a rectangle that
        no output pixel reads keeps patches from straddling it.
        """
        if dst is src:
            return self
        x, y, w, h = np.asarray(self.rects, dtype=np.int64).reshape(-1, 4).T
        lo_x, hi_x, _ = _source_taps(src.width, dst.width)
        lo_y, hi_y, _ = _source_taps(src.height, dst.height)
        # the first output pixel reading at or after a rectangle's start, and
        # the one after the last reading at or before its end
        x0, y0 = np.searchsorted(hi_x, x), np.searchsorted(hi_y, y)
        x1 = np.searchsorted(lo_x, x + w - 1, side="right")
        y1 = np.searchsorted(lo_y, y + h - 1, side="right")
        return ExclusionMask.from_rects(np.stack([x0, y0, x1 - x0, y1 - y0], axis=1))


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
    """Bilinear resampling of a float64 (H, W, C) array to (out_h, out_w, C).

    Works in strips of `RESIZE_STRIP_ROWS` output rows, run through
    `spread`. A strip interpolates the source rows it reads along x once, in
    place, then picks each output row's top and bottom rows from them, scales
    them in place and adds them into its rows of one preallocated output.
    Every element goes through the rounded operations of the gather form
    `(d[y0, x0] * (1 - fx) + d[y0, x1] * fx) * (1 - fy) + (...) * fy` in the
    same order, so the bits depend on neither the strip height nor the CPU
    count; the temporaries of a strip stay in a core's cache.
    """
    y0, y1, fy = _source_taps(data.shape[0], out_h)
    x0, x1, fx = _source_taps(data.shape[1], out_w)
    fy, fx = fy[:, None, None], fx[:, None]
    gy, gx = 1 - fy, 1 - fx
    out = np.empty((out_h, out_w, data.shape[2]))

    def strip(first: int):
        rows = slice(first, min(first + RESIZE_STRIP_ROWS, out_h))
        lo = y0[first]
        # y0 and y1 never decrease, so the strip reads source rows lo..y1[last]
        src = data[lo : y1[rows.stop - 1] + 1]
        h = np.take(src, x0, axis=1)
        h *= gx
        t = np.take(src, x1, axis=1)
        t *= fx
        h += t
        top = h[y0[rows] - lo]
        top *= gy[rows]
        bottom = h[y1[rows] - lo]
        bottom *= fy[rows]
        np.add(top, bottom, out=out[rows])

    spread(strip, range(0, out_h, RESIZE_STRIP_ROWS))
    return out


def _source_taps(n_in: int, n_out: int) -> tuple[np.ndarray, ...]:
    """The source pixels `_bilinear` reads along an axis of `n_in` pixels
    resampled to `n_out`: output pixel i reads pixels lo[i] and hi[i], the
    latter with weight frac[i], around the source coordinate
    (i + 0.5) * n_in / n_out - 0.5. Neither lo nor hi ever decreases."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    lo = np.clip(np.floor(src).astype(int), 0, n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, np.clip(src - lo, 0.0, 1.0)


def extract_grid_patches(img: LinearImage, size: int) -> PatchBatch:
    """Non-overlapping tiles from (0, 0) in row-major order.

    Partial border tiles are discarded, so the count is
    floor(w/size) * floor(h/size); an image smaller than one patch yields an
    empty batch.
    """
    tiles = grid_tiles(img.data, size)
    return PatchBatch(tiles.reshape(-1, size, size, tiles.shape[-1]), _grid_origins(tiles, size))


def stretched_grid_patches(img: LinearImage, size: int, dtype=np.float64) -> PatchBatch:
    """`histogram_stretch(extract_grid_patches(img, size), dtype)`, the same
    bits, without a copy of every tile: the min and max are read through the
    `grid_tiles` view and only the kept tiles are copied, a strip of
    max(1, `LANE_STRIP_ROWS` // size) tile rows at a time, over the CPUs."""
    tiles = grid_tiles(img.data, size)
    return _stretched(tiles, _grid_origins(tiles, size), dtype, max(1, LANE_STRIP_ROWS // size))


def grid_tiles(data: np.ndarray, size: int) -> np.ndarray:
    """The non-overlapping size x size tiles of an (H, W, C) array as a
    (rows, cols, size, size, C) view; partial border tiles are discarded."""
    if size < 1:
        raise ParameterError(f"patch size must be >= 1, got {size}")
    rows, cols, channels = data.shape[0] // size, data.shape[1] // size, data.shape[2]
    return (
        data[: rows * size, : cols * size]
        .reshape(rows, size, cols, size, channels)
        .swapaxes(1, 2)
    )


def _grid_origins(tiles: np.ndarray, size: int) -> np.ndarray:
    """The (x, y) origins of a `grid_tiles` view's tiles, row-major, (N, 2)."""
    gy, gx = np.divmod(np.arange(tiles.shape[0] * tiles.shape[1]), tiles.shape[1])
    return np.stack([gx, gy], axis=1) * size


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
    return PatchBatch(patches_at(img, origins, size), origins)


def patches_at(img: LinearImage, origins: np.ndarray, size: int) -> np.ndarray:
    """A fresh (N, size, size, 3) copy of the windows of `img` at the (N, 2)
    (x, y) `origins`."""
    # one copy per patch, row by row: each window row is S*3 contiguous values
    windows = sliding_window_view(img.data, (size, size, 3))
    return windows[origins[:, 1], origins[:, 0], 0]


def histogram_stretch(batch: PatchBatch, dtype=np.float64) -> PatchBatch:
    """Affinely rescale each patch to [0, 1] using the joint min/max of its
    three channels, into patches of `dtype`.

    One global affine map per patch keeps the relative contributions of the
    channels intact; per-channel stretching would destroy the chromatic
    signal. Patches with joint range below 1e-12 are dropped and counted in
    `degenerate`.
    """
    return _stretched(batch.data[None], batch.origins, dtype, 1)


def _stretched(tiles: np.ndarray, origins: np.ndarray, dtype, step: int) -> PatchBatch:
    """`histogram_stretch` of the (rows, cols) patches of `tiles`, (rows,
    cols, S, S, C), whose origins are `origins` in row-major order, in strips
    of `step` rows through `spread`.

    Two passes: the first takes each strip's joint ranges, which give every
    strip's count of kept patches and so its offset in one array of `dtype`
    allocated for them all; the second writes each strip's kept patches
    there, a row at a time. A row subtracts into those rows of the result,
    or into a temporary of the tiles' dtype when `dtype` differs, and
    divides into the result, rounding once to `dtype`. So the bits are those
    of the stretch in the tiles' dtype and `astype` after it, whatever the
    strips and the CPUs, and a stretch in the tiles' dtype copies only the
    rows that hold flat patches."""
    strips = [tiles[i : i + step] for i in range(0, len(tiles), step)]
    ranges = spread(_joint_ranges, strips)
    starts = np.cumsum([0] + [int(keep.sum()) for _, _, keep in ranges])
    out = np.empty((starts[-1],) + tiles.shape[2:], dtype)

    def write(j: int):
        at = starts[j]
        for row, lo, span, keep in zip(strips[j], *ranges[j]):
            if not keep.all():
                row, lo, span = row[keep], lo[keep], span[keep]
            dst = out[at : at + len(row)]
            data = dst if dst.dtype == row.dtype else np.empty(row.shape, row.dtype)
            np.subtract(row, lo, out=data)
            np.divide(data, span, out=dst)
            at += len(row)

    spread(write, range(len(strips)))
    keep = np.concatenate([keep.reshape(-1) for _, _, keep in ranges] or [np.zeros(0, bool)])
    return PatchBatch(out, origins[keep], degenerate=int(keep.size - keep.sum()))


def stretch_into(data: np.ndarray, out: np.ndarray) -> int:
    """`histogram_stretch` of the patches of a fresh (N, S, S, 3) float64
    array, written into the first rows of `out` in its dtype; returns how
    many were kept.

    `data` is overwritten: the stretch subtracts in place and divides
    into `out`, with the bits of `histogram_stretch` and `astype`. Only
    when some patches are flat are the kept ones copied first.
    """
    lo, span, keep = _joint_ranges(data)
    if not keep.all():
        data, lo, span = data[keep], lo[keep], span[keep]
    data -= lo
    np.divide(data, span, out=out[: len(data)])
    return len(data)


def has_contrast(data: np.ndarray) -> np.ndarray:
    """Per patch of an (N, S, S, 3) array: is its joint range wide enough
    for `histogram_stretch` to keep it?"""
    return _joint_ranges(data)[2]


def _joint_ranges(tiles: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each patch's joint min and its range (max - min), shaped to broadcast
    against `tiles`, and the mask of the patches with contrast."""
    # each tile row is contiguous, also in the tile view: over (rows, row)
    # numpy reduces the view about twice as fast as over the three axes
    tile_rows = tiles.reshape(tiles.shape[:-2] + (tiles.shape[-2] * tiles.shape[-1],))
    lo = tile_rows.min(axis=(-2, -1))[..., None, None, None]
    span = tile_rows.max(axis=(-2, -1))[..., None, None, None] - lo
    return lo, span, span[..., 0, 0, 0] >= DEGENERATE_RANGE
