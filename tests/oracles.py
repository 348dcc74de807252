"""Independent reference implementations used to check the fast paths.

Everything here is deliberately structured differently from the library:
dense 2-D convolution instead of separable passes, per-pixel Python loops
instead of vectorized reductions, and sorting-based statistics. The
exceptions are `padded_gaussian_smooth` and `wrapped_minkowski_response`,
the forms the Minkowski stages had before they passed plain arrays, and
`block_conv1x1_pool_forward` / `block_conv1x1_pool_backward`, the form the
fused layer's training path had before it went pixel-outer, and
`loop_rectified_units`, the per-row form of the estimator's rectify step:
kept so the tests can check that each rewrite changed no bit.
"""

import math

import numpy as np

from patchcc.errors import EstimationImpossibleError, SamplingImpossibleError
from patchcc.estimator import DIRECTION_FREE_NORM
from patchcc.image import LinearImage
from patchcc.minkowski import EdgeFrameworkParams, gaussian_kernel
from patchcc.network import _as_float


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
    """The fused 1x1-conv + max-pool training path in block layout: the
    responses W @ xb^T as (..., G, G, K, pool*pool) with the bias added, a
    last-axis `argmax` and `take_along_axis`; the cache is (xb, idx), or
    None without `need_cache`."""
    x, w, b = _as_float(x), _as_float(w), _as_float(b)
    lead = x.shape[:-3]
    nl = len(lead)
    g = x.shape[-3] // pool
    axes = tuple(range(nl)) + (nl, nl + 2, nl + 1, nl + 3, nl + 4)
    xb = x.reshape(*lead, g, pool, g, pool, 3).transpose(axes).reshape(*lead, g, g, pool * pool, 3)
    resp = w[:, 0, 0, :] @ xb.swapaxes(-1, -2)
    resp = resp.astype(np.result_type(resp, b), copy=False)
    resp += b[:, None]
    idx = resp.argmax(axis=-1)
    out = np.take_along_axis(resp, idx[..., None], axis=-1)[..., 0]
    return out, (xb, idx) if need_cache else None


def block_conv1x1_pool_backward(grad_out, cache):
    """Weight and bias gradients from the block-layout cache: gather each
    window's argmax pixel, (windows, K, 3), and sum with `einsum`."""
    xb, idx = cache
    k = idx.shape[-1]
    flat_idx = idx.reshape(-1, k)
    rows = np.arange(flat_idx.shape[0])[:, None]
    x_sel = xb.reshape(-1, xb.shape[-2], 3)[rows, flat_idx]
    flat_g = _as_float(grad_out).reshape(-1, k)
    grad_w = np.einsum("nk,nkc->kc", flat_g, x_sel)
    return grad_w[:, None, None, :], flat_g.sum(axis=0)
