"""A minimal dense-tensor network for per-patch illuminant regression.

Architecture: a convolution over RGB (1x1 kernels by default, k x k with zero
same-padding for the width sweep), max pooling, one fully connected ReLU
layer, and a linear 3-output regression head. Everything is plain numpy with
exact analytic gradients, checked against central finite differences. The
network (`forward`, `forward_cache`, `backward`) takes (B, S, S, 3) batches
only; a lone patch is a batch of one.

The weights hold one dtype, float32 or float64 (`NetworkParams.dtype`), and
weights files store float32, which `load_params` keeps. Training makes
float32 weights by default (`HyperParams.dtype`); only `gradient_check`
computes in float64, on a widened copy. The network computes in the dtype of
its weights: `forward` and `forward_cache` cast the patches to it, so callers
pass patches of any float dtype and get outputs of the weights' dtype. The
package's own callers stretch their patches straight into that dtype, so the
cast copies nothing for them.

A model carries its pool size (`NetworkParams.pool_size`), which weights
files store, so it knows its own patch side, `patch_size` = G * pool_size;
the network rejects patches of any other side.

Layer inputs may carry a leading batch axis; channels are always the last
axis. The flatten between pooling and the FC layer is row-major with channel
fastest: flat[(y * G + x) * K + k].

Every network runs the convolution and the max pooling as one fused layer
(`conv1x1_pool_forward` / `conv1x1_pool_backward`), which takes the
network's own (K, kw, kw, 3) kernels at every width. The reference layers
`conv_forward`, `maxpool_forward`, `maxpool_backward` and `conv_backward`
take one loop over the kernel taps for every width. The network does not
run them; they are the tests' reference for the fused layer, at every
width.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateEstimateError,
    FormatError,
    NumericFaultError,
    ParameterError,
    ShapeMismatchError,
)
from .image import vector_norms
from .lanes import spread

WEIGHTS_MAGIC = b"CCNN"
WEIGHTS_VERSION = 2
PARAM_LAYERS = ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b")

ANGULAR_COS_CLAMP = 1.0 - 1e-7

# bytes of responses per block of the fused layer's training path (17 8x8
# pool windows at K=240 float64, 256 at K=32 float32): small enough to stay
# in a core's L2 cache
FUSED_BLOCK_BYTES = 2 << 20

# bytes of one pixel's responses per block of the fused layer's inference
# path, which folds the pixels of a pool window into a running max (273
# windows at K=240 float32): the running max and the response folded into it
# stay in a core's L2 cache
RUNNING_MAX_BYTES = 256 << 10

# patches per `forward` pass over a large batch; it fixes the FC layer's
# matrix shapes, and so the last bit of its sums
FORWARD_CHUNK = 512

# patches per piece of the FC weight gradient, which is summed piece by piece
# in order. The package pins the OpenBLAS numpy bundles to one thread; this
# guards a BLAS it cannot pin, which may split a long inner dimension across
# its threads and so round by the CPU count. 512-row pieces are too long for
# two OpenBLAS threads; 256-row pieces gave the same bits at every size
# tried, 1 to 3,000
BACKWARD_CHUNK = 256

# central-difference step of `gradient_check`
GRADCHECK_STEP = 1e-4


@dataclass(frozen=True)
class HyperParams:
    """Network shape and training knobs.

    `patch_size` must be divisible by `pool_size`; the pooled grid side is
    G = patch_size / pool_size and the FC input is G*G*kernel_count wide.
    Every `kernel_width` runs the one fused conv-pool layer over each
    pixel's kernel_width^2 * 3 taps; training feeds batches of `batch_size`.
    The learning rate and weight decay must be finite and >= 0, and the
    momentum in [0, 1).

    `dtype` is the precision `init_params` draws the weights in and
    `estimator.training_patch_arrays` stretches the patches in: float32, the
    precision weights files store. No command sets it; the field stays
    because the benchmark harness passes it.
    """

    patch_size: int = 32
    kernel_count: int = 240
    kernel_width: int = 1
    pool_size: int = 8
    fc_units: int = 40
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 64
    epochs: int = 20
    patience: int = 5
    patches_per_image: int = 100
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("patch_size", "kernel_count", "kernel_width", "pool_size", "fc_units",
                     "batch_size", "epochs", "patches_per_image", "patience", "seed"):
            low = 0 if name in ("patience", "seed") else 1
            if getattr(self, name) < low:
                raise ParameterError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be finite and >= 0, got {value}")
        if not 0 <= self.momentum < 1:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.patch_size % self.pool_size != 0:
            raise ParameterError(
                f"patch_size {self.patch_size} not divisible by pool_size {self.pool_size}"
            )
        if self.dtype not in ("float64", "float32"):
            raise ParameterError(f"dtype must be float64 or float32, got {self.dtype}")

    @property
    def pooled_side(self) -> int:
        return self.patch_size // self.pool_size


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """The five-layer network's weights and its pool size.

    conv_w: (K, kw, kw, 3), conv_b: (K,), fc_w: (H, G*G*K), fc_b: (H,),
    out_w: (3, H), out_b: (3,). The pooled side G is implied by the shapes:
    G = sqrt(fc_w.shape[1] / K). `pool_size` (>= 1) is the side of a max
    pooling window, so the network reads patches of side
    `patch_size` = G * pool_size.

    All six arrays share one `dtype`: float32 when every array given is
    float32, float64 otherwise (a mixed set is widened whole).
    """

    conv_w: np.ndarray
    conv_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    pool_size: int

    def __post_init__(self):
        if not isinstance(self.pool_size, int) or self.pool_size < 1:
            raise ParameterError(f"pool_size must be an integer >= 1, got {self.pool_size!r}")
        given = [np.asarray(getattr(self, name)) for name in PARAM_LAYERS]
        single = all(a.dtype.kind == "f" and a.dtype.itemsize == 4 for a in given)
        dtype = np.float32 if single else np.float64
        arrays = {}
        for name, arr in zip(PARAM_LAYERS, given):
            arr = arr.astype(dtype)
            if not np.all(np.isfinite(arr)):
                raise NumericFaultError(f"non-finite values in {name}")
            arrays[name] = arr
        conv_w, fc_w = arrays["conv_w"], arrays["fc_w"]
        if conv_w.ndim != 4 or conv_w.shape[3] != 3 or conv_w.shape[1] != conv_w.shape[2]:
            raise ShapeMismatchError(f"conv_w must be (K, kw, kw, 3), got {conv_w.shape}")
        if fc_w.ndim != 2:
            raise ShapeMismatchError(f"fc_w must be (H, G*G*K), got {fc_w.shape}")
        if 0 in conv_w.shape + fc_w.shape:
            raise ShapeMismatchError(
                f"conv_w {conv_w.shape} and fc_w {fc_w.shape} need every dimension >= 1"
            )
        k = conv_w.shape[0]
        if arrays["conv_b"].shape != (k,):
            raise ShapeMismatchError("conv_b length must match kernel count")
        h, d = fc_w.shape
        if d % k != 0:
            raise ShapeMismatchError(f"fc input width {d} not a multiple of kernel count {k}")
        g = int(round((d // k) ** 0.5))
        if g * g * k != d:
            raise ShapeMismatchError(f"fc input width {d} is not G*G*{k} for integer G")
        if arrays["fc_b"].shape != (h,):
            raise ShapeMismatchError("fc_b length must match fc unit count")
        if arrays["out_w"].shape != (3, h):
            raise ShapeMismatchError(f"out_w must be (3, {h}), got {arrays['out_w'].shape}")
        if arrays["out_b"].shape != (3,):
            raise ShapeMismatchError("out_b must have 3 components")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dtype(self) -> np.dtype:
        return self.conv_w.dtype

    @property
    def kernel_count(self) -> int:
        return self.conv_w.shape[0]

    @property
    def kernel_width(self) -> int:
        return self.conv_w.shape[1]

    @property
    def fc_units(self) -> int:
        return self.fc_w.shape[0]

    @property
    def pooled_side(self) -> int:
        return int(round((self.fc_w.shape[1] // self.kernel_count) ** 0.5))

    @property
    def patch_size(self) -> int:
        return self.pooled_side * self.pool_size


@dataclass
class NetworkGrads:
    conv_w: np.ndarray
    conv_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray


# --------------------------------------------------------------------------
# layers


def _conv_pads(kw: int) -> tuple[int, int]:
    # zero same-padding; for even widths the extra tap goes on the right/bottom
    return (kw - 1) // 2, kw // 2


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """k x k convolution over the channel axis with zero same-padding.

    x: (..., S, S, 3), w: (K, kw, kw, 3), b: (K,) -> (..., S, S, K), summed
    in the wider of x's and w's dtypes.
    """
    if x.shape[-1] != w.shape[3] or b.shape != (w.shape[0],):
        raise ShapeMismatchError(f"conv shapes inconsistent: x{x.shape} w{w.shape} b{b.shape}")
    kw = w.shape[1]
    s1, s2 = x.shape[-3], x.shape[-2]
    lo, hi = _conv_pads(kw)
    pad = [(0, 0)] * (x.ndim - 3) + [(lo, hi), (lo, hi), (0, 0)]
    xpad = np.pad(x, pad)
    out = np.zeros(x.shape[:-1] + (w.shape[0],), dtype=np.result_type(x, w))
    for dy in range(kw):
        for dx in range(kw):
            out += xpad[..., dy : dy + s1, dx : dx + s2, :] @ w[:, dy, dx, :].T
    out += b
    return out, (x, w, xpad)


def conv_backward(grad_out: np.ndarray, cache):
    """Gradients of `conv_forward` w.r.t. input, weights, and bias."""
    x, w, xpad = cache
    kw = w.shape[1]
    sum_axes = tuple(range(grad_out.ndim - 1))
    grad_b = grad_out.sum(axis=sum_axes)
    s1, s2 = x.shape[-3], x.shape[-2]
    grad_w = np.zeros_like(w)
    grad_xpad = np.zeros_like(xpad)
    flat_g = grad_out.reshape(-1, w.shape[0])
    for dy in range(kw):
        for dx in range(kw):
            window = xpad[..., dy : dy + s1, dx : dx + s2, :]
            grad_w[:, dy, dx, :] = flat_g.T @ window.reshape(-1, 3)
            grad_xpad[..., dy : dy + s1, dx : dx + s2, :] += grad_out @ w[:, dy, dx, :]
    lo, hi = _conv_pads(kw)
    sl = slice(lo, -hi if hi else None)
    grad_x = grad_xpad[..., sl, sl, :]
    return grad_x, grad_w, grad_b


def maxpool_forward(x: np.ndarray, pool: int, need_cache: bool = True):
    """Block max over pool x pool windows per channel, stride = pool.

    x: (..., S, S, K) with S divisible by pool -> (..., S/pool, S/pool, K).
    Ties go to the first occurrence in row-major block order. Pass
    need_cache=False for inference to skip the argmax bookkeeping.
    """
    s1, s2, k = x.shape[-3], x.shape[-2], x.shape[-1]
    if s1 != s2 or s1 % pool != 0:
        raise ShapeMismatchError(f"spatial size {s1}x{s2} not divisible by pool {pool}")
    lead = x.shape[:-3]
    nl = len(lead)
    g = s1 // pool
    blocks = x.reshape(*lead, g, pool, g, pool, k)
    if not need_cache:
        return blocks.max(axis=(nl + 1, nl + 3)), None
    axes = tuple(range(nl)) + (nl, nl + 2, nl + 4, nl + 1, nl + 3)
    flat_blocks = blocks.transpose(axes).reshape(*lead, g, g, k, pool * pool)
    idx = flat_blocks.argmax(axis=-1)
    out = np.take_along_axis(flat_blocks, idx[..., None], axis=-1)[..., 0]
    return out, (x.shape, pool, idx)


def maxpool_backward(grad_out: np.ndarray, cache):
    """Route each pooled gradient entirely to its argmax position."""
    x_shape, pool, idx = cache
    lead = x_shape[:-3]
    nl = len(lead)
    s, k = x_shape[-3], x_shape[-1]
    g = s // pool
    grad_blocks = np.zeros(lead + (g, g, k, pool * pool), dtype=grad_out.dtype)
    np.put_along_axis(grad_blocks, idx[..., None], grad_out[..., None], axis=-1)
    grad_blocks = grad_blocks.reshape(*lead, g, g, k, pool, pool)
    axes = tuple(range(nl)) + (nl, nl + 2, nl + 4, nl + 1, nl + 3)
    return grad_blocks.transpose(np.argsort(axes)).reshape(x_shape)


def _window_responses(block: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """The responses (P^2, s, K) of a pixel-outer block (P^2, s, T) of T
    taps a pixel, one window at a time. numpy calls gemv where K = 1, P = 1
    or s = 1, and gemv rounds by operand shape and layout: going window by
    window keeps the bits of the block-layout form (tests/oracles.py)."""
    return (np.ascontiguousarray(block.swapaxes(0, 1)) @ wt).swapaxes(0, 1)


def _window_step(k: int, t: int, p2: int, itemsize: int, need_cache: bool) -> int:
    """Pool windows per block of `conv1x1_pool_forward` over t taps a pixel:
    FUSED_BLOCK_BYTES of every pixel's responses with the cache, and without
    it RUNNING_MAX_BYTES of one pixel's, up to 27 taps. Above 27, BLAS
    may round a sum by the gemm's row count, so the running max takes the
    cached branch's step and both branches make every gemm alike."""
    if need_cache or t > 27:
        return max(1, FUSED_BLOCK_BYTES // (p2 * k * itemsize))
    return max(1, RUNNING_MAX_BYTES // (k * itemsize))


def conv1x1_pool_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, pool: int,
                         need_cache: bool = True):
    """k x k convolution with zero same-padding and pool x pool max pooling
    in one layer.

    x: (..., S, S, C), w: (K, kw, kw, C), b: (K,) -> (..., S/pool, S/pool,
    K), the values and argmax of
    `maxpool_forward(conv_forward(x, w, b)[0], pool)`. x, w and b share one
    dtype, which the layer computes and returns in; a mixed call raises
    `ParameterError`. Each response is one dot product over the pixel's
    T = kw*kw*C taps, its zero same-padded kw x kw x C neighbourhood in the
    weights' (dy, dx, c) order, by the same kind of BLAS call as
    `conv_forward` (gemv when K = 1, gemm otherwise); the kernel OpenBLAS
    then runs can depend on the matrix size, and `conv_forward` sums a
    k x k kernel tap by tap, so inexact sums may differ from the reference
    layers in the last bits.

    The taps are copied once, pixel-outer, straight from a window view of
    the padded input: xp (pool*pool, windows, T). The windows are taken a
    block at a time, so no full-size response array is built. Where numpy
    would call gemv (K = 1, pool 1, a one-window block), a block goes window
    by window (`_window_responses`), with the transposed view W^T of the
    (K, T) kernel matrix; the gemms take a C-contiguous copy of W^T in
    float32 and the view in float64.

    With the cache (training), a block of s windows holds FUSED_BLOCK_BYTES
    of responses, xp_block @ W^T as (pool*pool, s, K), and their max over the
    pixel axis goes straight into the pooled output. The bias is added
    before the max, because fl(a + b) can make distinct responses tie and
    the argmax must see those ties. The argmax is the smallest p whose
    response equals the max, P^2 - max_p(eq_p * (P^2 - p)) on an integer
    mask: `argmax`'s first-index rule. The cache is (xp, idx); a window
    whose responses are all NaN gets the out-of-range idx P^2, but the
    network raises on its non-finite output before any backward pass.

    Pass need_cache=False for inference. It keeps a running max: the first
    pixel's gemm of a block writes straight into the pooled output, and each
    other pixel's is folded in with `np.maximum`, so a block makes one gemm
    of s rows per pixel into one reused buffer. The bias is added once,
    after the max: rounding is monotone, so max_p fl(a_p + b) =
    fl(max_p a_p + b). Up to 27 taps a block holds RUNNING_MAX_BYTES of
    one pixel's responses, (s, K), and each entry of a gemm takes the same
    bits whatever the call's row count (the tests check both paths against
    the block-layout form at each block boundary); above 27, the blocks are
    the cached path's (`_window_step`), so every gemm has the same row count
    in both. NaN propagates through both maxima, so the values are the same
    bits as with the cache at every kernel width.
    """
    if not x.dtype == w.dtype == b.dtype:
        raise ParameterError(
            f"conv1x1 dtypes differ: x {x.dtype}, w {w.dtype}, b {b.dtype}")
    c = x.shape[-1]
    if (w.ndim != 4 or w.shape[2:] != (w.shape[1], c) or w.shape[1] < 1
            or b.shape != (w.shape[0],)):
        raise ShapeMismatchError(f"conv1x1 shapes inconsistent: x{x.shape} w{w.shape} b{b.shape}")
    s1, s2 = x.shape[-3], x.shape[-2]
    if s1 != s2 or s1 % pool != 0:
        raise ShapeMismatchError(f"spatial size {s1}x{s2} not divisible by pool {pool}")
    lead = x.shape[:-3]
    nl = len(lead)
    g = s1 // pool
    k, kw = w.shape[:2]
    t = kw * kw * c
    p2 = pool * pool
    wt = w.reshape(k, t).T
    # float32 gemms take a C-contiguous (T, K) copy of the kernel matrix,
    # which OpenBLAS packs faster than the transposed view. float64 keeps the
    # view: with the copy, some 27-tap double sums rounded by the gemm's row
    # count, so the two paths differed in the last bits
    wc = np.ascontiguousarray(wt) if x.dtype == np.float32 else wt
    if kw > 1:
        lo, hi = _conv_pads(kw)
        x = np.pad(x, [(0, 0)] * nl + [(lo, hi), (lo, hi), (0, 0)])
    # (..., S, S, C, kw, kw) -> (py, px, ..., gy, gx, dy, dx, C)
    windows = sliding_window_view(x, (kw, kw), axis=(nl, nl + 1))
    axes = (nl + 1, nl + 3) + tuple(range(nl)) + (nl, nl + 2, nl + 5, nl + 6, nl + 4)
    xp = windows.reshape(*lead, g, pool, g, pool, c, kw, kw).transpose(axes).reshape(p2, -1, t)
    n = xp.shape[1]
    out = np.empty((n, k), dtype=x.dtype)
    step = _window_step(k, t, p2, x.itemsize, need_cache)
    if not need_cache:
        resp = np.empty((min(n, step), k), x.dtype)
        for i in range(0, n, step):
            block = xp[:, i : i + step]
            s = block.shape[1]
            top = out[i : i + s]
            if k > 1 and p2 > 1 and s > 1:
                np.matmul(block[0], wc, out=top)
                for pixel in block[1:]:
                    np.maximum(top, np.matmul(pixel, wc, out=resp[:s]), out=top)
            else:
                np.max(_window_responses(block, wt), axis=0, out=top)
        out += b
        return out.reshape(*lead, g, g, k), None
    resp_buf = np.empty((p2, min(n, step), k), x.dtype)
    idx = np.empty((n, k), dtype=np.intp)
    bias = np.broadcast_to(b, resp_buf.shape[1:]).copy()
    # P^2 - p at pixel p: over the pixels whose response equals the max,
    # the largest marks the first one
    rank = np.arange(p2, 0, -1, dtype=np.min_scalar_type(p2))[:, None, None]
    mask = np.empty(resp_buf.shape, rank.dtype)
    for i in range(0, n, step):
        block = xp[:, i : i + step]
        s = block.shape[1]
        if k > 1 and p2 > 1 and s > 1:
            resp = np.matmul(block, wc, out=resp_buf[:, :s])
        else:
            resp = _window_responses(block, wt)
        resp += bias[:s]
        top = np.max(resp, axis=0, out=out[i : i + s])
        first = np.equal(resp, top, out=mask[:, :s])
        np.multiply(first, rank, out=first)
        np.subtract(p2, np.max(first, axis=0), out=idx[i : i + s])
    return out.reshape(*lead, g, g, k), (xp, idx.reshape(*lead, g, g, k))


def conv1x1_pool_backward(grad_out: np.ndarray, cache):
    """Weight and bias gradients of `conv1x1_pool_forward`.

    Only the argmax pixel of each pool window gets a gradient, so this
    gathers those pixels' T taps from the pixel-outer cache,
    xp[idx, window], as (windows, K, T) in window order, and builds no
    full-resolution map. Returns (grad_w (K, 1, 1, T), grad_b (K,)): the
    kernel gradient over the taps, in the weights' (dy, dx, c) order, so
    `grad_w.reshape(w.shape)` at every width. The network needs no gradient
    with respect to its input.
    """
    xp, idx = cache
    k = idx.shape[-1]
    flat_idx = idx.reshape(-1, k)
    windows = np.arange(flat_idx.shape[0])[:, None]
    x_sel = xp[flat_idx, windows]
    flat_g = grad_out.reshape(-1, k)
    grad_w = np.einsum("nk,nkc->kc", flat_g, x_sel)
    return grad_w[:, None, None, :], flat_g.sum(axis=0)


def fc_relu_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Fully connected layer with ReLU: out = max(0, w @ x + b)."""
    if x.shape[-1] != w.shape[1]:
        raise ShapeMismatchError(f"fc input width {x.shape[-1]} != weight width {w.shape[1]}")
    pre = x @ w.T + b
    return np.maximum(pre, 0.0), (x, w, pre)


def fc_relu_backward(grad_out: np.ndarray, cache):
    """Gradient is zeroed wherever the pre-activation was <= 0. The weight
    gradient sums over the patches `BACKWARD_CHUNK` rows at a time, in order,
    so its bits do not depend on the CPU count."""
    x, w, pre = cache
    grad_pre = np.asarray(grad_out) * (pre > 0)
    grad_x = grad_pre @ w
    flat_g = grad_pre.reshape(-1, w.shape[0])
    flat_x = x.reshape(-1, w.shape[1])
    grad_w = flat_g[:BACKWARD_CHUNK].T @ flat_x[:BACKWARD_CHUNK]
    for i in range(BACKWARD_CHUNK, len(flat_g), BACKWARD_CHUNK):
        grad_w += flat_g[i : i + BACKWARD_CHUNK].T @ flat_x[i : i + BACKWARD_CHUNK]
    return grad_x, grad_w, flat_g.sum(axis=0)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    return x @ w.T + b, (x, w)


def linear_backward(grad_out: np.ndarray, cache):
    x, w = cache
    grad_out = np.asarray(grad_out)
    grad_x = grad_out @ w
    flat_g = grad_out.reshape(-1, w.shape[0])
    flat_x = x.reshape(-1, w.shape[1])
    return grad_x, flat_g.T @ flat_x, flat_g.sum(axis=0)


# --------------------------------------------------------------------------
# full network


def _forward(params: NetworkParams, x: np.ndarray, need_cache: bool):
    """The network over (B, S, S, 3) patches, S the model's `patch_size`,
    cast to the weights' dtype: the fused conv-pool layer with the model's
    kernels, then the FC ReLU and linear layers, checked finite. Returns
    (estimates (B, 3), `backward`'s cache if need_cache else None)."""
    x = np.asarray(x, dtype=params.dtype)
    if x.ndim != 4 or x.shape[-1] != 3 or x.shape[1] != x.shape[2]:
        raise ShapeMismatchError(f"expected (B, S, S, 3) patches, got {x.shape}")
    if x.shape[1] != params.patch_size:
        raise ShapeMismatchError(
            f"patch side {x.shape[1]} is not the model's patch size {params.patch_size}")
    pool_out, conv_cache = conv1x1_pool_forward(x, params.conv_w, params.conv_b,
                                                params.pool_size, need_cache=need_cache)
    flat = pool_out.reshape(pool_out.shape[0], params.fc_w.shape[1])
    fc_out, fc_cache = fc_relu_forward(flat, params.fc_w, params.fc_b)
    est, out_cache = linear_forward(fc_out, params.out_w, params.out_b)
    if not np.all(np.isfinite(est)):
        raise NumericFaultError("non-finite network output")
    cache = (conv_cache, pool_out.shape, fc_cache, out_cache) if need_cache else None
    return est, cache


def forward(params: NetworkParams, patch: np.ndarray) -> np.ndarray:
    """Raw (unnormalized) illuminant estimates (B, 3), in the weights'
    dtype, for a (B, S, S, 3) batch of side `params.patch_size`; a lone
    patch is a batch of one, and an empty batch gives (0, 3).

    The batch goes through `lanes.spread` in chunks of `FORWARD_CHUNK`
    patches: a lane runs its chunk from cast to output, and the caller only
    concatenates the estimates in order. The chunk bounds each lane's copies
    of the input, pooled maps and FC input. As a constant it fixes the FC
    layer's matrix shapes, so the output is the same bits for any CPU count,
    and up to one chunk the bits of `forward_cache`'s at every kernel width.
    An empty batch, or an array that is not a batch, is one whole chunk.
    """
    patch = np.asarray(patch)
    n = patch.shape[0] if patch.ndim == 4 else 0
    chunks = [patch[i : i + FORWARD_CHUNK] for i in range(0, n, FORWARD_CHUNK)] or [patch]
    return np.concatenate(spread(lambda chunk: _forward(params, chunk, False)[0], chunks))


def forward_cache(params: NetworkParams, patch: np.ndarray):
    """Forward pass over a (B, S, S, 3) batch keeping the intermediates
    needed by `backward`; the patches are cast to the weights' dtype, as in
    `forward`."""
    return _forward(params, patch, True)


def backward(params: NetworkParams, cache, grad_est: np.ndarray) -> NetworkGrads:
    """Analytic parameter gradients given d(loss)/d(raw estimates), (B, 3)."""
    conv_cache, pool_shape, fc_cache, out_cache = cache
    grad_fc_out, grad_out_w, grad_out_b = linear_backward(grad_est, out_cache)
    grad_flat, grad_fc_w, grad_fc_b = fc_relu_backward(grad_fc_out, fc_cache)
    grad_conv_w, grad_conv_b = conv1x1_pool_backward(grad_flat.reshape(pool_shape), conv_cache)
    return NetworkGrads(
        conv_w=grad_conv_w.reshape(params.conv_w.shape), conv_b=grad_conv_b,
        fc_w=grad_fc_w, fc_b=grad_fc_b,
        out_w=grad_out_w, out_b=grad_out_b,
    )


# --------------------------------------------------------------------------
# losses


def euclidean_loss(est: np.ndarray, gt) -> tuple[float, np.ndarray]:
    """Half squared error. Batched inputs return the batch mean and
    mean-scaled gradients."""
    est = np.asarray(est)
    gt = np.asarray(getattr(gt, "rgb", gt), dtype=est.dtype)
    diff = est - gt
    if est.ndim == 1:
        return 0.5 * float(diff @ diff), diff
    n = diff.shape[0]
    loss = 0.5 * float((diff * diff).sum()) / n
    return loss, diff / n


def angular_loss(est: np.ndarray, gt) -> tuple[float, np.ndarray]:
    """Angle in radians between the estimate and a unit ground truth.

    The cosine is clamped to +/-(1 - 1e-7) to keep arccos differentiable;
    inside the clamped region the gradient is zero.
    """
    est = np.asarray(est, dtype=np.float64).reshape(3)
    gt = np.asarray(getattr(gt, "rgb", gt), dtype=np.float64).reshape(3)
    norm = float(vector_norms(est))
    if norm < 1e-9:
        raise DegenerateEstimateError("estimate is (near) zero; no direction defined")
    cos = float(est @ gt) / norm
    if abs(cos) >= ANGULAR_COS_CLAMP:
        clamped_cos = np.clip(cos, -ANGULAR_COS_CLAMP, ANGULAR_COS_CLAMP)
        return float(np.arccos(clamped_cos)), np.zeros(3)
    unit = est / norm
    grad = -(gt - cos * unit) / (norm * np.sqrt(1.0 - cos * cos))
    return float(np.arccos(cos)), grad


# --------------------------------------------------------------------------
# initialization and optimization


def _uniform_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_params(hyper: HyperParams, seed: int) -> NetworkParams:
    """Fan-balanced uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    k, kw, h = hyper.kernel_count, hyper.kernel_width, hyper.fc_units
    g = hyper.pooled_side
    d = g * g * k
    dtype = np.dtype(hyper.dtype)

    def draw(shape, fan_in, fan_out):
        bound = _uniform_bound(fan_in, fan_out)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    conv_w = draw((k, kw, kw, 3), 3 * kw * kw, k * kw * kw)
    fc_w = draw((h, d), d, h)
    out_w = draw((3, h), h, 3)
    return NetworkParams(
        conv_w=conv_w, conv_b=np.zeros(k, dtype=dtype),
        fc_w=fc_w, fc_b=np.zeros(h, dtype=dtype),
        out_w=out_w, out_b=np.zeros(3, dtype=dtype), pool_size=hyper.pool_size,
    )


def zero_momentum(params: NetworkParams) -> NetworkGrads:
    return NetworkGrads(**{name: np.zeros_like(getattr(params, name)) for name in PARAM_LAYERS})


def sgd_step(
    params: NetworkParams,
    grads: NetworkGrads,
    hyper: HyperParams,
    state: NetworkGrads,
) -> tuple[NetworkParams, NetworkGrads]:
    """One momentum SGD update: v <- mu*v - lr*(g + wd*theta); theta <- theta + v."""
    new_values = {}
    new_state = {}
    for name in PARAM_LAYERS:
        theta = getattr(params, name)
        g = np.asarray(getattr(grads, name), dtype=theta.dtype)
        if g.shape != theta.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} != {theta.shape} for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericFaultError(f"non-finite gradient in layer {name}")
        v = hyper.momentum * getattr(state, name) - hyper.learning_rate * (
            g + hyper.weight_decay * theta
        )
        new_state[name] = v
        new_values[name] = theta + v
    return replace(params, **new_values), NetworkGrads(**new_state)


# --------------------------------------------------------------------------
# gradient checking


def _loss_fn(loss_kind: str):
    if loss_kind == "euclidean":
        return euclidean_loss
    if loss_kind == "angular":
        return angular_loss
    raise ParameterError(f"loss_kind must be 'euclidean' or 'angular', got {loss_kind!r}")


def analytic_param_grads(params: NetworkParams, patch: np.ndarray, gt, loss_kind: str):
    """Loss value and full analytic parameter gradients for one (S, S, 3)
    patch."""
    loss = _loss_fn(loss_kind)
    est, cache = forward_cache(params, patch[None])
    value, grad_est = loss(est[0], gt)
    return value, backward(params, cache, grad_est[None])


def gradient_check(
    params: NetworkParams,
    patch: np.ndarray,
    gt,
    loss_kind: str = "euclidean",
    analytic: NetworkGrads | None = None,
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    Enumerates every parameter, stepping each by +-`GRADCHECK_STEP`, so keep
    the configuration small. The check runs on the weights widened to
    float64, whatever their dtype: a 1e-4 central difference means nothing
    in float32. Returns the max relative error |a - n| / max(|a|, |n|, 1e-8)
    per layer. `analytic` overrides the internally computed gradients
    (negative-control hook).
    """
    loss = _loss_fn(loss_kind)
    params = replace(
        params, **{name: getattr(params, name).astype(np.float64) for name in PARAM_LAYERS})
    if analytic is None:
        _, analytic = analytic_param_grads(params, patch, gt, loss_kind)
    report = {}

    def loss_at(layer, idx, delta):
        bumped = getattr(params, layer).copy()
        bumped[idx] += delta
        p = replace(params, **{layer: bumped})
        return loss(forward(p, patch[None])[0], gt)[0]

    for name in PARAM_LAYERS:
        worst = 0.0
        grads = getattr(analytic, name)
        for idx in np.ndindex(getattr(params, name).shape):
            numeric = (loss_at(name, idx, GRADCHECK_STEP)
                       - loss_at(name, idx, -GRADCHECK_STEP)) / (2 * GRADCHECK_STEP)
            a = float(grads[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report[name] = worst
    return report


# --------------------------------------------------------------------------
# weights file IO


def save_params(params: NetworkParams, path):
    """Binary little-endian weights: magic, version, pool size, then per
    layer the dim count, the dims, and a row-major float32 payload."""
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", WEIGHTS_VERSION, params.pool_size))
        for name in PARAM_LAYERS:
            arr = np.ascontiguousarray(getattr(params, name), dtype="<f4")
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_params(path) -> NetworkParams:
    """Read a `save_params` file. The arrays keep the payload's float32, so
    inference with the loaded weights runs in float32. Only the current
    `WEIGHTS_VERSION` is read; files of version 1, which had no pool size,
    must be retrained."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"bad weights magic {buf[:4]!r}", offset=0)
    if len(buf) < 8:
        raise FormatError("truncated weights header: no version field", offset=4)
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {version}", offset=4)
    if len(buf) < 12:
        raise FormatError("truncated weights header: no pool size field", offset=8)
    (pool_size,) = struct.unpack_from("<I", buf, 8)
    if pool_size == 0:
        raise FormatError("weights pool size is 0", offset=8)
    pos = 12
    arrays = {}
    for name in PARAM_LAYERS:
        if pos + 4 > len(buf):
            raise FormatError(f"truncated weights file at layer {name}", offset=pos)
        (ndim,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        if ndim > 8:
            raise FormatError(f"implausible dim count {ndim} for {name}", offset=pos - 4)
        if pos + 4 * ndim > len(buf):
            raise FormatError(f"truncated dims for layer {name}", offset=pos)
        dims = struct.unpack_from(f"<{ndim}I", buf, pos)
        # no layer is empty, and numpy cannot even reshape an empty payload
        # to dims such as (0, 2**32 - 1, 2**32 - 1)
        if 0 in dims:
            raise FormatError(f"layer {name} has an empty dimension: {dims}", offset=pos)
        pos += 4 * ndim
        n = math.prod(dims)
        nbytes = 4 * n
        if pos + nbytes > len(buf):
            raise FormatError(
                f"truncated payload for {name}: expected {nbytes} bytes, "
                f"got {len(buf) - pos}",
                offset=pos,
            )
        arrays[name] = np.frombuffer(buf, dtype="<f4", count=n, offset=pos).reshape(dims)
        pos += nbytes
    if pos != len(buf):
        raise FormatError(f"{len(buf) - pos} trailing bytes after {PARAM_LAYERS[-1]}", offset=pos)
    return NetworkParams(**arrays, pool_size=pool_size)
