"""Independent reference implementations used to check the fast paths.

Everything here is deliberately structured differently from the library:
dense 2-D convolution instead of separable passes, per-pixel Python loops
instead of vectorized reductions, and sorting-based statistics. The
exceptions are `padded_gaussian_smooth` and `wrapped_minkowski_response`,
the forms the Minkowski stages had before they passed plain arrays, and
`block_conv1x1_pool_forward` / `block_conv1x1_pool_backward`, the form the
fused layer had before its training and inference went pixel-outer, with
`contiguous_taps` and `block_conv_pool_forward`, the tap copy a k x k
network made for it before it took the network's own kernels, and
`loop_rectified_units`, the per-row form of the estimator's rectify step,
and the full-resolution forms of the pixel path before each stage made one
pass with one new array (`row_gather_bilinear`, `repeat_then_quantize_map`,
`linear_image_illuminant_map`, `tile_copy_grid_ground_truth`,
`two_temporary_histogram_stretch`), the whole-array forms of the 16-bit
scaling and the grid stretch before they ran in strips over the CPUs
(`whole_array_scaled_samples`, `single_pass_grid_stretch`), and
`concatenate_then_cast_training_patches`,
the form training's patch arrays had before the stretch wrote them in the
network's dtype, with `fancy_index_patches`, the gather random sampling had
before it read a window view, `stretch_all_then_draw_validation_patches`,
the form training's validation patches had before only the drawn ones were
stretched, and `csv_writer_map_csv`, the row-by-row `csv.writer` form of the
map CSV: kept so the tests can check that each rewrite changed no bit.
"""

import csv
import math

import numpy as np

from patchcc.errors import EstimationImpossibleError, FormatError, SamplingImpossibleError
from patchcc.estimator import DIRECTION_FREE_NORM, RESIZE_TARGET, training_patch_arrays
from patchcc.image import ILLUMINANT_MAP_SCALE, LinearImage, load_ppm16
from patchcc.minkowski import EdgeFrameworkParams, gaussian_kernel
from patchcc.patches import grid_tiles, resize_max_side, sample_random_patches


def dense_gaussian_2d(data: np.ndarray, sigma: float) -> np.ndarray:
    """Direct (non-separable) 2-D Gaussian convolution with reflect padding."""
    radius = math.ceil(3 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(xs[:, None] ** 2 + xs[None, :] ** 2) / (2 * sigma * sigma))
    kernel /= kernel.sum()
    padded = np.pad(data, ((radius, radius), (radius, radius), (0, 0)), mode="reflect")
    out = np.zeros_like(data)
    for dy in range(kernel.shape[0]):
        for dx in range(kernel.shape[1]):
            h, w = data.shape[:2]
            out += kernel[dy, dx] * padded[dy : dy + h, dx : dx + w, :]
    return out


def pixel_loop_derivative(data: np.ndarray, n: int) -> np.ndarray:
    """Scalar stencil loops over every pixel, replicate borders."""
    if n == 0:
        return np.abs(data)
    h, w = data.shape[:2]

    def at(y, x, c):
        return data[min(max(y, 0), h - 1), min(max(x, 0), w - 1), c]

    out = np.zeros_like(data)
    for y in range(h):
        for x in range(w):
            for c in range(3):
                if n == 1:
                    dx = 0.5 * (at(y, x + 1, c) - at(y, x - 1, c))
                    dy = 0.5 * (at(y + 1, x, c) - at(y - 1, x, c))
                    out[y, x, c] = math.sqrt(dx * dx + dy * dy)
                else:
                    dxx = at(y, x + 1, c) - 2 * at(y, x, c) + at(y, x - 1, c)
                    dyy = at(y + 1, x, c) - 2 * at(y, x, c) + at(y - 1, x, c)
                    dxy = 0.25 * (
                        at(y + 1, x + 1, c) - at(y + 1, x - 1, c)
                        - at(y - 1, x + 1, c) + at(y - 1, x - 1, c)
                    )
                    out[y, x, c] = math.sqrt(dxx * dxx + dyy * dyy + 2 * dxy * dxy)
    return out


def brute_force_response(img: LinearImage, params: EdgeFrameworkParams) -> np.ndarray:
    """Per-pixel loop implementation of the full estimator response."""
    data = img.data
    if params.sigma > 0:
        data = dense_gaussian_2d(data, params.sigma)
    response = pixel_loop_derivative(data, params.n)
    out = np.zeros(3)
    n_pixels = response.shape[0] * response.shape[1]
    for c in range(3):
        if math.isinf(params.p):
            out[c] = max(response[y, x, c] for y in range(response.shape[0])
                         for x in range(response.shape[1]))
        else:
            acc = 0.0
            for y in range(response.shape[0]):
                for x in range(response.shape[1]):
                    acc += abs(response[y, x, c]) ** params.p
            out[c] = (acc / n_pixels) ** (1.0 / params.p)
    return out


def padded_gaussian_smooth(data: np.ndarray, sigma: float) -> np.ndarray:
    """Separable smoothing in its reflect-pad form: pad by the kernel radius,
    correlate with zero fill outside the padding, crop back (sigma > 0)."""
    from scipy import ndimage

    kernel = gaussian_kernel(sigma)
    radius = (len(kernel) - 1) // 2
    padded = np.pad(data, ((radius, radius), (radius, radius), (0, 0)), mode="reflect")
    out = ndimage.correlate1d(padded, kernel, axis=0, mode="constant")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="constant")
    out = out[radius:-radius, radius:-radius, :]
    # Gaussian taps are nonnegative, so any negative output is roundoff noise.
    return np.maximum(out, 0.0)


def wrapped_minkowski_response(img: LinearImage, params: EdgeFrameworkParams) -> np.ndarray:
    """The full response with every stage's output wrapped in a `LinearImage`
    (copied, checked finite and nonnegative), the derivative by out-of-place
    expressions and n = 0 as np.abs."""
    if params.sigma > 0:
        img = LinearImage(padded_gaussian_smooth(img.data, params.sigma))
    if params.n == 0:
        img = LinearImage(np.abs(img.data))
    else:
        p = np.pad(img.data, ((1, 1), (1, 1), (0, 0)), mode="edge")
        c = p[1:-1, 1:-1]
        up, down = p[:-2, 1:-1], p[2:, 1:-1]
        left, right = p[1:-1, :-2], p[1:-1, 2:]
        if params.n == 1:
            dx = 0.5 * (right - left)
            dy = 0.5 * (down - up)
            img = LinearImage(np.sqrt(dx * dx + dy * dy))
        else:
            dxx = right - 2.0 * c + left
            dyy = down - 2.0 * c + up
            dxy = 0.25 * (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2])
            img = LinearImage(np.sqrt(dxx * dxx + dyy * dyy + 2.0 * dxy * dxy))
    flat = img.data.reshape(-1, 3)
    if math.isinf(params.p):
        return flat.max(axis=0)
    powered = flat if params.p == 1.0 else np.power(flat, params.p)
    return np.power(powered.mean(axis=0), 1.0 / params.p)


def sort_oracle_stats(values):
    """Independent percentile oracle: sort, then interpolate between ranks."""
    data = sorted(values)
    n = len(data)

    def percentile(p):
        rank = p / 100 * (n - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, n - 1)
        frac = rank - lo
        return data[lo] + (data[hi] - data[lo]) * frac

    return (
        data[0],
        percentile(10),
        percentile(50),
        sum(data) / n,
        percentile(90),
        data[-1],
    )


def loop_sample_patches(data, size, count, rects=(), seed=0, max_rejections=10_000):
    """One origin at a time from scalar draws (x, then y), each redrawn while
    its footprint touches a rectangle; returns (origins, patches)."""
    rng = np.random.default_rng(seed)
    h, w = data.shape[:2]
    origins, patches = [], []
    for _ in range(count):
        for _attempt in range(max_rejections + 1):
            x = int(rng.integers(0, w - size + 1))
            y = int(rng.integers(0, h - size + 1))
            if not any(x < rx + rw and rx < x + size and y < ry + rh and ry < y + size
                       for rx, ry, rw, rh in rects):
                break
        else:
            raise SamplingImpossibleError(f"{max_rejections} rejections in a row")
        origins.append((x, y))
        patches.append(data[y : y + size, x : x + size])
    return origins, patches


def loop_histogram_stretch(patch):
    """Stretch one patch to [0, 1] by its joint min/max; None when flat."""
    lo = float(patch.min())
    hi = float(patch.max())
    if hi - lo < 1e-12:
        return None
    return (patch - lo) / (hi - lo)


def loop_grid_ground_truth(gt_pixels, patch_size):
    """Per-cell majority vote over every cell, unnormalized; ties go to the
    value met first in row-major pixel order."""
    gh, gw = gt_pixels.shape[0] // patch_size, gt_pixels.shape[1] // patch_size
    cells = np.zeros((gh, gw, 3))
    for gy in range(gh):
        for gx in range(gw):
            block = gt_pixels[gy * patch_size : (gy + 1) * patch_size,
                              gx * patch_size : (gx + 1) * patch_size].reshape(-1, 3)
            counts, first = {}, {}
            for i, px in enumerate(map(tuple, block)):
                counts[px] = counts.get(px, 0) + 1
                first.setdefault(px, i)
            top = max(counts.values())
            cells[gy, gx] = min((px for px in counts if counts[px] == top), key=first.get)
    return cells


def loop_nearest_filled(filled):
    """Each unfilled cell (gy, gx) -> the filled cell nearest to it; ties
    prefer the smaller x, then the smaller y."""
    gh, gw = filled.shape
    good = [(gx, gy) for gy in range(gh) for gx in range(gw) if filled[gy, gx]]
    out = {}
    for gy in range(gh):
        for gx in range(gw):
            if not filled[gy, gx]:
                bx, by = min(good, key=lambda c: ((c[0] - gx) ** 2 + (c[1] - gy) ** 2, c[0], c[1]))
                out[gy, gx] = (by, bx)
    return out


def loop_rectified_units(raw):
    """(keep, norms, units) of raw network outputs (N, 3), one
    `np.linalg.norm` per clamped row."""
    keep, norms, units = [], [], []
    for row in raw:
        clamped = np.maximum(row, 0.0)
        norm = float(np.linalg.norm(clamped))
        keep.append(norm >= DIRECTION_FREE_NORM)
        if keep[-1]:
            norms.append(norm)
            units.append(clamped / norm)
    if not norms:
        raise EstimationImpossibleError("every row is direction-free")
    return np.array(keep), np.array(norms), np.stack(units)


def block_conv1x1_pool_forward(x, w, b, pool, need_cache=True):
    """The fused 1x1-conv + max-pool layer in block layout, over C input
    channels: the responses W @ xb^T as (..., G, G, K, pool*pool) with the
    bias added, a last-axis `argmax` and `take_along_axis`; the cache is
    (xb, idx), or None without `need_cache`."""
    lead = x.shape[:-3]
    nl = len(lead)
    g = x.shape[-3] // pool
    c = x.shape[-1]
    axes = tuple(range(nl)) + (nl, nl + 2, nl + 1, nl + 3, nl + 4)
    xb = x.reshape(*lead, g, pool, g, pool, c).transpose(axes).reshape(*lead, g, g, pool * pool, c)
    resp = w[:, 0, 0, :] @ xb.swapaxes(-1, -2)
    resp += b[:, None]
    idx = resp.argmax(axis=-1)
    out = np.take_along_axis(resp, idx[..., None], axis=-1)[..., 0]
    return out, (xb, idx) if need_cache else None


def contiguous_taps(x, kw):
    """Each pixel's zero same-padded kw x kw x C taps of a (B, S, S, C)
    batch as a contiguous (B, S, S, kw*kw*C) copy, in the weights' (dy, dx,
    c) order; the pixels themselves when kw = 1."""
    if kw == 1:
        return x
    lo, hi = (kw - 1) // 2, kw // 2
    xpad = np.pad(x, [(0, 0), (lo, hi), (lo, hi), (0, 0)])
    windows = np.lib.stride_tricks.sliding_window_view(xpad, (kw, kw), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(x.shape[:3] + (kw * kw * x.shape[3],))


def block_conv_pool_forward(x, w, b, pool, need_cache=True):
    """The fused layer's block-layout form for (K, kw, kw, C) kernels over a
    (B, S, S, C) batch: `block_conv1x1_pool_forward` over its
    `contiguous_taps`, with the kernels viewed as (K, 1, 1, kw*kw*C). Its
    cache is that function's, for `block_conv1x1_pool_backward`."""
    k, kw = w.shape[:2]
    return block_conv1x1_pool_forward(contiguous_taps(x, kw), w.reshape(k, 1, 1, -1), b, pool,
                                      need_cache)


def block_conv1x1_pool_backward(grad_out, cache):
    """Weight and bias gradients from the block-layout cache: gather each
    window's argmax pixel, (windows, K, C), and sum with `einsum`."""
    xb, idx = cache
    k = idx.shape[-1]
    flat_idx = idx.reshape(-1, k)
    rows = np.arange(flat_idx.shape[0])[:, None]
    x_sel = xb.reshape(-1, xb.shape[-2], xb.shape[-1])[rows, flat_idx]
    flat_g = grad_out.reshape(-1, k)
    grad_w = np.einsum("nk,nkc->kc", flat_g, x_sel)
    return grad_w[:, None, None, :], flat_g.sum(axis=0)


def row_gather_bilinear(data, out_h, out_w):
    """Bilinear resampling whose gathers copy whole source rows, then pick
    columns: `data[y0][:, x0]`."""
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


def repeat_then_quantize_map(gt_map, cell_size):
    """The PPM bytes of a map of unit illuminants repeated to
    cell_size x cell_size blocks first, then wrapped in a `LinearImage`,
    scaled and quantized at full size."""
    up = np.repeat(np.repeat(np.asarray(gt_map, dtype=np.float64), cell_size, axis=0),
                   cell_size, axis=1)
    img = LinearImage(up * ILLUMINANT_MAP_SCALE)
    samples = np.floor(np.clip(img.data, 0.0, 1.0) * 65535 + 0.5).astype(">u2")
    header = b"P6\n# illuminant map: unit RGB scaled by 65535/sqrt(3)\n"
    header += f"{img.width} {img.height}\n65535\n".encode("ascii")
    return header + samples.tobytes()


def linear_image_illuminant_map(path):
    """Read a map through `load_ppm16` (a `LinearImage`), then divide and
    renormalize out of place with `np.linalg.norm`."""
    data = load_ppm16(path).data / ILLUMINANT_MAP_SCALE
    norms = np.linalg.norm(data, axis=2, keepdims=True)
    if np.any(norms == 0):
        raise FormatError("illuminant map contains zero vectors")
    return data / norms


def tile_copy_grid_ground_truth(gt_pixels, patch_size):
    """Majority vote on a copy of every tile, each tile tested for
    uniformity against its first pixel, then renormalized."""
    gh, gw = gt_pixels.shape[0] // patch_size, gt_pixels.shape[1] // patch_size
    blocks = grid_tiles(gt_pixels, patch_size).reshape(gh * gw, patch_size * patch_size, 3)
    cells = blocks[:, 0].copy()
    mixed = np.flatnonzero(~(blocks == blocks[:, :1]).all(axis=(1, 2)))
    for i in mixed:
        values, first_idx, counts = np.unique(
            blocks[i], axis=0, return_index=True, return_counts=True
        )
        candidates = np.flatnonzero(counts == counts.max())
        cells[i] = values[candidates[np.argmin(first_idx[candidates])]]
    cells = cells.reshape(gh, gw, 3)
    return cells / np.linalg.norm(cells, axis=2, keepdims=True)


def two_temporary_histogram_stretch(data):
    """(stretched, keep) of an (N, S, S, 3) batch: select the patches with
    contrast, subtract and divide out of place."""
    lo = data.min(axis=(1, 2, 3), keepdims=True)
    span = data.max(axis=(1, 2, 3), keepdims=True) - lo
    keep = span.reshape(-1) >= 1e-12
    return (data[keep] - lo[keep]) / span[keep], keep


def whole_array_scaled_samples(samples):
    """16-bit samples scaled to [0, 1]: one float64 copy of the whole array,
    divided in place."""
    data = samples.astype(np.float64)
    data /= 65535
    return data


def single_pass_grid_stretch(data, size, dtype):
    """(stretched, origins, degenerate) of the size x size grid tiles of an
    (H, W, 3) array: the joint ranges of every tile, then one copy of all
    kept tiles, subtracted in place and divided into an array of `dtype`."""
    tiles = grid_tiles(data, size)
    lo = tiles.min(axis=(2, 3, 4), keepdims=True)
    span = tiles.max(axis=(2, 3, 4), keepdims=True) - lo
    keep = span[..., 0, 0, 0] >= 1e-12
    kept = tiles[keep]
    kept -= lo[keep]
    out = np.empty(kept.shape, dtype)
    np.divide(kept, span[keep], out=out)
    gy, gx = np.nonzero(keep)
    return out, np.stack([gx, gy], axis=1) * size, int(keep.size - keep.sum())


def fancy_index_patches(data, origins, size):
    """The size x size windows of an (H, W, C) array at the (x, y) rows of
    `origins`, gathered through (N, size, size) row and column index arrays."""
    offsets = np.arange(size)
    return data[origins[:, 1, None, None] + offsets[:, None], origins[:, 0, None, None] + offsets]


def concatenate_then_cast_training_patches(samples, hyper):
    """(x, y) of training: each image resized, sampled (the library's
    origins, gathered by `fancy_index_patches`) and stretched in float64, the
    float64 arrays concatenated, then x cast to `hyper.dtype`; y stays
    float64."""
    xs, ys = [], []
    for idx, sample in enumerate(samples):
        img = resize_max_side(sample.image, RESIZE_TARGET)
        origins = sample_random_patches(img, hyper.patch_size, hyper.patches_per_image,
                                        mask=sample.mask, seed=[hyper.seed, idx]).origins
        patches = fancy_index_patches(img.data, origins, hyper.patch_size)
        data, _ = two_temporary_histogram_stretch(patches)
        xs.append(data)
        ys.append(np.broadcast_to(sample.illuminant.rgb, (len(data), 3)))
    return np.concatenate(xs).astype(hyper.dtype), np.concatenate(ys)


def stretch_all_then_draw_validation_patches(samples, hyper, cap, seed):
    """(x, y) of training's validation fold: every sampled patch stretched by
    `training_patch_arrays`, then at most `cap` rows drawn without
    replacement by a generator seeded with `seed`."""
    x, y = training_patch_arrays(samples, hyper)
    if len(x) > cap:
        keep = np.random.default_rng(seed).choice(len(x), size=cap, replace=False)
        x, y = x[keep], y[keep]
    return x, y


def csv_writer_map_csv(ill_map, path):
    """The map CSV written through `csv.writer`, one `writerow` per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grid_x", "grid_y", "r", "g", "b"])
        for gy in range(ill_map.grid_h):
            for gx in range(ill_map.grid_w):
                r, g, b = ill_map.estimates[gy, gx]
                writer.writerow([gx, gy, f"{r:.9f}", f"{g:.9f}", f"{b:.9f}"])
