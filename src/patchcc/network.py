"""A minimal dense-tensor network for per-patch illuminant regression.

Architecture: a convolution over RGB (1x1 kernels by default, k x k with zero
same-padding for the width sweep), max pooling, one fully connected ReLU
layer, and a linear 3-output regression head. Everything is plain numpy with
exact analytic gradients, checked against central finite differences.

Layer inputs may carry a leading batch axis; channels are always the last
axis. The flatten between pooling and the FC layer is row-major with channel
fastest: flat[(y * G + x) * K + k].

Networks with 1x1 kernels run the convolution and the max pooling as one
fused layer (`conv1x1_pool_forward` / `conv1x1_pool_backward`). For training
it computes the responses block by block, so the argmax runs over a
contiguous axis, and its backward pass touches only the argmax pixel of each
pool window. Ties go to the first occurrence in row-major block order, as in
`maxpool_forward`. For inference it reduces a few pool windows at a time, so
their responses stay in cache and no full-size response array is built, and
it adds the bias once to the pooled maxima: rounding is monotone, so
max_p fl(a_p + b) = fl(max_p a_p + b) and the result is bit for bit the same.
Wider kernels (k x k, for the width sweep) use the reference layers
`conv_forward`, `maxpool_forward`, `maxpool_backward` and `conv_backward`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateEstimateError,
    FormatError,
    NumericFaultError,
    ParameterError,
    ShapeMismatchError,
)

WEIGHTS_MAGIC = b"CCNN"
WEIGHTS_VERSION = 1
PARAM_LAYERS = ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b")

ANGULAR_COS_CLAMP = 1.0 - 1e-7

# bytes of responses per block of the fused layer's inference path (17 8x8
# pool windows at K=240 float64): small enough to stay in a core's L2 cache
FUSED_BLOCK_BYTES = 2 << 20

# patches per `forward` pass over a large batch; it fixes the FC layer's
# matrix shapes, and so the last bit of its sums
FORWARD_CHUNK = 512

# central-difference step of `gradient_check`
GRADCHECK_STEP = 1e-4


def _as_float(a) -> np.ndarray:
    """Leave float32/float64 arrays alone; promote everything else to float64."""
    a = np.asarray(a)
    if a.dtype == np.float32 or a.dtype == np.float64:
        return a
    return a.astype(np.float64)


@dataclass(frozen=True)
class HyperParams:
    """Network shape and training knobs.

    `patch_size` must be divisible by `pool_size`; the pooled grid side is
    G = patch_size / pool_size and the FC input is G*G*kernel_count wide.
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
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("patch_size", "kernel_count", "kernel_width", "pool_size",
                     "fc_units", "batch_size", "epochs", "patches_per_image"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
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
    """The five-layer network's weights.

    conv_w: (K, kw, kw, 3), conv_b: (K,), fc_w: (H, G*G*K), fc_b: (H,),
    out_w: (3, H), out_b: (3,). The pooled side G is implied by the shapes:
    G = sqrt(fc_w.shape[1] / K).
    """

    conv_w: np.ndarray
    conv_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in PARAM_LAYERS:
            arr = np.asarray(getattr(self, name))
            if arr.dtype != np.float32:
                arr = arr.astype(np.float64)
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
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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

    x: (..., S, S, 3), w: (K, kw, kw, 3), b: (K,) -> (..., S, S, K).
    """
    x = _as_float(x)
    w = _as_float(w)
    b = _as_float(b)
    if x.shape[-1] != w.shape[3] or b.shape != (w.shape[0],):
        raise ShapeMismatchError(f"conv shapes inconsistent: x{x.shape} w{w.shape} b{b.shape}")
    kw = w.shape[1]
    if kw == 1:
        out = x @ w[:, 0, 0, :].T + b
        return out, (x, w, None)
    s1, s2 = x.shape[-3], x.shape[-2]
    lo, hi = _conv_pads(kw)
    pad = [(0, 0)] * (x.ndim - 3) + [(lo, hi), (lo, hi), (0, 0)]
    xpad = np.pad(x, pad)
    out = np.zeros(x.shape[:-1] + (w.shape[0],), dtype=np.float64)
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
    if kw == 1:
        flat_g = grad_out.reshape(-1, w.shape[0])
        flat_x = x.reshape(-1, 3)
        grad_w = (flat_g.T @ flat_x)[:, None, None, :]
        grad_x = grad_out @ w[:, 0, 0, :]
        return grad_x, grad_w, grad_b
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
    x = _as_float(x)
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
    grad_out = _as_float(grad_out)
    grad_blocks = np.zeros(lead + (g, g, k, pool * pool), dtype=grad_out.dtype)
    np.put_along_axis(grad_blocks, idx[..., None], grad_out[..., None], axis=-1)
    grad_blocks = grad_blocks.reshape(*lead, g, g, k, pool, pool)
    axes = tuple(range(nl)) + (nl, nl + 2, nl + 4, nl + 1, nl + 3)
    return grad_blocks.transpose(np.argsort(axes)).reshape(x_shape)


def conv1x1_pool_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, pool: int,
                         need_cache: bool = True):
    """1x1 convolution and pool x pool max pooling in one layer.

    x: (..., S, S, 3), w: (K, 1, 1, 3), b: (K,) -> (..., S/pool, S/pool, K),
    the values and argmax of `maxpool_forward(conv_forward(x, w, b)[0], pool)`.
    The input is copied once into block layout xb (..., G, G, pool*pool, 3).
    With the cache, the responses W @ xb^T come out as (..., G, G, K,
    pool*pool), with each pool window on the contiguous last axis. Passing
    xb^T as a view of the pixel-major copy sends numpy to the same kind of
    BLAS call as `conv_forward` (gemv when K = 1, gemm otherwise); the kernel
    OpenBLAS then runs can still depend on the matrix size, so inexact sums
    may differ from the reference in the last bit.

    Pass need_cache=False for inference. The windows are then taken
    FUSED_BLOCK_BYTES of responses at a time, computed pixel-major as
    xb_block @ W^T and reduced over the pixel axis into the pooled output,
    so no full-size response array exists. The bias is added once, after
    the max: rounding is monotone, so max_p fl(a_p + b) = fl(max_p a_p + b),
    and the values are the same bits as with the cache.
    """
    x = _as_float(x)
    w = _as_float(w)
    b = _as_float(b)
    if x.shape[-1] != 3 or w.shape[1:] != (1, 1, 3) or b.shape != (w.shape[0],):
        raise ShapeMismatchError(f"conv1x1 shapes inconsistent: x{x.shape} w{w.shape} b{b.shape}")
    s1, s2 = x.shape[-3], x.shape[-2]
    if s1 != s2 or s1 % pool != 0:
        raise ShapeMismatchError(f"spatial size {s1}x{s2} not divisible by pool {pool}")
    lead = x.shape[:-3]
    nl = len(lead)
    g = s1 // pool
    k = w.shape[0]
    axes = tuple(range(nl)) + (nl, nl + 2, nl + 1, nl + 3, nl + 4)
    xb = x.reshape(*lead, g, pool, g, pool, 3).transpose(axes).reshape(*lead, g, g, pool * pool, 3)
    if not need_cache:
        dtype = np.result_type(x, w)
        wt = w[:, 0, 0, :].astype(dtype).T
        windows = xb.reshape(-1, pool * pool, 3)
        if windows.dtype != dtype:
            # cast through a (3, pool*pool) copy, as numpy casts the cached
            # path's xb^T operand: a K = 1 gemv rounds by its memory layout
            windows = windows.swapaxes(-1, -2).astype(dtype, order="C").swapaxes(-1, -2)
        out = np.empty((windows.shape[0], k), dtype=dtype)
        step = max(1, FUSED_BLOCK_BYTES // (pool * pool * k * out.itemsize))
        for i in range(0, len(windows), step):
            np.max(windows[i : i + step] @ wt, axis=-2, out=out[i : i + step])
        # conv_forward adds the bias in the wider of the two dtypes
        out = out.astype(np.result_type(out, b), copy=False)
        out += b
        return out.reshape(*lead, g, g, k), None
    resp = w[:, 0, 0, :] @ xb.swapaxes(-1, -2)
    # conv_forward adds the bias in the wider of the two dtypes
    resp = resp.astype(np.result_type(resp, b), copy=False)
    resp += b[:, None]
    idx = resp.argmax(axis=-1)
    out = np.take_along_axis(resp, idx[..., None], axis=-1)[..., 0]
    return out, (xb, idx)


def conv1x1_pool_backward(grad_out: np.ndarray, cache):
    """Weight and bias gradients of `conv1x1_pool_forward`.

    Only the argmax pixel of each pool window gets a gradient, so this
    gathers those pixels' RGB, (..., G, G, K, 3), and builds no
    full-resolution map. Returns (grad_w (K, 1, 1, 3), grad_b (K,)); the
    network needs no gradient with respect to its input.
    """
    xb, idx = cache
    k = idx.shape[-1]
    flat_idx = idx.reshape(-1, k)
    # fancy indexing gathers ~2x faster here than take_along_axis
    rows = np.arange(flat_idx.shape[0])[:, None]
    x_sel = xb.reshape(-1, xb.shape[-2], 3)[rows, flat_idx]
    flat_g = _as_float(grad_out).reshape(-1, k)
    grad_w = np.einsum("nk,nkc->kc", flat_g, x_sel)
    return grad_w[:, None, None, :], flat_g.sum(axis=0)


def fc_relu_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Fully connected layer with ReLU: out = max(0, w @ x + b)."""
    x = _as_float(x)
    w = _as_float(w)
    if x.shape[-1] != w.shape[1]:
        raise ShapeMismatchError(f"fc input width {x.shape[-1]} != weight width {w.shape[1]}")
    pre = x @ w.T + b
    return np.maximum(pre, 0.0), (x, w, pre)


def fc_relu_backward(grad_out: np.ndarray, cache):
    """Gradient is zeroed wherever the pre-activation was <= 0."""
    x, w, pre = cache
    grad_pre = np.asarray(grad_out) * (pre > 0)
    grad_x = grad_pre @ w
    flat_g = grad_pre.reshape(-1, w.shape[0])
    flat_x = x.reshape(-1, w.shape[1])
    return grad_x, flat_g.T @ flat_x, flat_g.sum(axis=0)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    x = _as_float(x)
    return x @ _as_float(w).T + b, (x, w)


def linear_backward(grad_out: np.ndarray, cache):
    x, w = cache
    grad_out = np.asarray(grad_out)
    grad_x = grad_out @ w
    flat_g = grad_out.reshape(-1, w.shape[0])
    flat_x = x.reshape(-1, w.shape[1])
    return grad_x, flat_g.T @ flat_x, flat_g.sum(axis=0)


# --------------------------------------------------------------------------
# full network


def _forward_impl(params: NetworkParams, x: np.ndarray, need_cache: bool = True):
    x = _as_float(x)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.ndim != 4 or x.shape[-1] != 3 or x.shape[1] != x.shape[2]:
        raise ShapeMismatchError(f"expected (B, S, S, 3) or (S, S, 3) patches, got {x.shape}")
    side = x.shape[1]
    g = params.pooled_side
    if side % g != 0:
        raise ShapeMismatchError(
            f"patch side {side} incompatible with pooled side {g} implied by the weights"
        )
    pool = side // g
    if params.kernel_width == 1:
        pool_out, conv_cache = conv1x1_pool_forward(
            x, params.conv_w, params.conv_b, pool, need_cache=need_cache)
        pool_cache = None
    else:
        conv_out, conv_cache = conv_forward(x, params.conv_w, params.conv_b)
        pool_out, pool_cache = maxpool_forward(conv_out, pool, need_cache=need_cache)
    flat = pool_out.reshape(pool_out.shape[0], -1)
    fc_out, fc_cache = fc_relu_forward(flat, params.fc_w, params.fc_b)
    est, out_cache = linear_forward(fc_out, params.out_w, params.out_b)
    if not np.all(np.isfinite(est)):
        raise NumericFaultError("non-finite network output")
    if not need_cache:
        return est[0] if single else est, None
    cache = {
        "single": single,
        "conv": conv_cache,
        "pool": pool_cache,
        "pool_shape": pool_out.shape,
        "fc": fc_cache,
        "out": out_cache,
    }
    return est[0] if single else est, cache


def forward(params: NetworkParams, patch: np.ndarray) -> np.ndarray:
    """Raw (unnormalized) illuminant estimate for one patch or a batch.

    Large batches are processed `FORWARD_CHUNK` patches at a time. For 1x1
    kernels the chunk bounds only the block-layout copy of the input and the
    FC layer's input, since the fused layer reduces its responses a
    cache-sized block at a time; for wider kernels it also bounds the
    full-resolution convolution output. The chunk size is a constant because
    it fixes the FC layer's matrix shapes, and so the last bit of its sums.
    """
    patch = _as_float(patch)
    if patch.ndim == 4 and patch.shape[0] > FORWARD_CHUNK:
        return np.concatenate(
            [_forward_impl(params, patch[i : i + FORWARD_CHUNK], need_cache=False)[0]
             for i in range(0, patch.shape[0], FORWARD_CHUNK)]
        )
    est, _ = _forward_impl(params, patch, need_cache=False)
    return est


def forward_cache(params: NetworkParams, patch: np.ndarray):
    """Forward pass keeping the intermediates needed by `backward`."""
    return _forward_impl(params, patch)


def backward(params: NetworkParams, cache, grad_est: np.ndarray) -> NetworkGrads:
    """Analytic parameter gradients given d(loss)/d(raw estimate)."""
    grad_est = _as_float(grad_est)
    if cache["single"]:
        grad_est = grad_est[None]
    grad_fc_out, grad_out_w, grad_out_b = linear_backward(grad_est, cache["out"])
    grad_flat, grad_fc_w, grad_fc_b = fc_relu_backward(grad_fc_out, cache["fc"])
    grad_pool = grad_flat.reshape(cache["pool_shape"])
    if params.kernel_width == 1:
        grad_conv_w, grad_conv_b = conv1x1_pool_backward(grad_pool, cache["conv"])
    else:
        grad_conv = maxpool_backward(grad_pool, cache["pool"])
        _, grad_conv_w, grad_conv_b = conv_backward(grad_conv, cache["conv"])
    return NetworkGrads(
        conv_w=grad_conv_w, conv_b=grad_conv_b,
        fc_w=grad_fc_w, fc_b=grad_fc_b,
        out_w=grad_out_w, out_b=grad_out_b,
    )


# --------------------------------------------------------------------------
# losses


def euclidean_loss(est: np.ndarray, gt) -> tuple[float, np.ndarray]:
    """Half squared error. Batched inputs return the batch mean and
    mean-scaled gradients."""
    est = _as_float(est)
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
    norm = float(np.linalg.norm(est))
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
        out_w=out_w, out_b=np.zeros(3, dtype=dtype),
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
    return NetworkParams(**new_values), NetworkGrads(**new_state)


# --------------------------------------------------------------------------
# gradient checking


def _loss_fn(loss_kind: str):
    if loss_kind == "euclidean":
        return euclidean_loss
    if loss_kind == "angular":
        return angular_loss
    raise ParameterError(f"loss_kind must be 'euclidean' or 'angular', got {loss_kind!r}")


def analytic_param_grads(params: NetworkParams, patch: np.ndarray, gt, loss_kind: str):
    """Loss value and full analytic parameter gradients for one patch."""
    loss = _loss_fn(loss_kind)
    est, cache = forward_cache(params, patch)
    value, grad_est = loss(est, gt)
    return value, backward(params, cache, grad_est)


def gradient_check(
    params: NetworkParams,
    patch: np.ndarray,
    gt,
    loss_kind: str = "euclidean",
    analytic: NetworkGrads | None = None,
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    Enumerates every parameter, stepping each by +-`GRADCHECK_STEP`, so keep
    the configuration small. Returns the max relative error
    |a - n| / max(|a|, |n|, 1e-8) per layer. `analytic` overrides the
    internally computed gradients (negative-control hook).
    """
    loss = _loss_fn(loss_kind)
    if analytic is None:
        _, analytic = analytic_param_grads(params, patch, gt, loss_kind)
    report = {}
    values = {name: getattr(params, name).copy() for name in PARAM_LAYERS}

    def loss_at(layer, idx, delta):
        bumped = values[layer].copy()
        bumped[idx] += delta
        p = replace(params, **{layer: bumped})
        return loss(forward(p, patch), gt)[0]

    for name in PARAM_LAYERS:
        worst = 0.0
        grads = getattr(analytic, name)
        for idx in np.ndindex(values[name].shape):
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
    """Binary little-endian weights: magic, version, then per layer the dim
    count, the dims, and a row-major float32 payload."""
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", WEIGHTS_VERSION))
        for name in PARAM_LAYERS:
            arr = np.ascontiguousarray(getattr(params, name), dtype="<f4")
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_params(path) -> NetworkParams:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != WEIGHTS_MAGIC:
        raise FormatError(f"bad weights magic {buf[:4]!r}", offset=0)
    if len(buf) < 8:
        raise FormatError("truncated weights header: no version field", offset=4)
    (version,) = struct.unpack_from("<I", buf, 4)
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {version}", offset=4)
    pos = 8
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
    return NetworkParams(**{k: v.astype(np.float64) for k, v in arrays.items()})
