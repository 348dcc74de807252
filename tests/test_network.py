import itertools
import math
import os
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patchcc import lanes, network
from patchcc.errors import (
    DegenerateEstimateError,
    FormatError,
    NumericFaultError,
    ParameterError,
    PipelineError,
    ShapeMismatchError,
)
from patchcc.estimator import fine_tune, train
from patchcc.evaluation import angular_error_many
from patchcc.image import normalize
from patchcc.network import (
    FUSED_BLOCK_BYTES,
    PARAM_LAYERS,
    RUNNING_MAX_BYTES,
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    HyperParams,
    NetworkGrads,
    NetworkParams,
    analytic_param_grads,
    angular_loss,
    backward,
    conv1x1_pool_backward,
    conv1x1_pool_forward,
    conv_backward,
    conv_forward,
    euclidean_loss,
    fc_relu_backward,
    fc_relu_forward,
    forward,
    forward_cache,
    gradient_check,
    init_params,
    linear_backward,
    linear_forward,
    load_params,
    maxpool_backward,
    maxpool_forward,
    save_params,
    sgd_step,
    zero_momentum,
)

from helpers import SMALL, TINY_SHAPES, make_synthetic_samples, tiny_weights, weights_bytes
from oracles import (
    block_conv1x1_pool_backward,
    block_conv1x1_pool_forward,
    block_conv_pool_forward,
)

TOY = HyperParams(patch_size=8, kernel_count=4, pool_size=4, fc_units=5, dtype="float64")


def toy_params(seed=0):
    return init_params(TOY, seed)


def layer_fd(fwd, inputs, grad_out, analytic, step=1e-6):
    """Central finite differences of J = sum(grad_out * fwd(inputs))."""
    worst = 0.0
    for arr, grad in zip(inputs, analytic):
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float((grad_out * fwd()[0]).sum())
            flat[i] = orig - step
            down = float((grad_out * fwd()[0]).sum())
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            a = float(grad.reshape(-1)[i])
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


class TestConv1x1:
    def test_identity_kernels(self):
        x = np.random.default_rng(0).uniform(0, 1, (6, 6, 3))
        out, _ = conv_forward(x, np.eye(3)[:, None, None, :], np.zeros(3))
        assert np.allclose(out, x, atol=1e-15)

    def test_bias_only(self):
        x = np.zeros((4, 4, 3))
        b = np.array([0.1, -0.2, 0.3, 0.4])
        out, _ = conv_forward(x, np.zeros((4, 1, 1, 3)), b)
        assert np.allclose(out, b[None, None, :])

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 5, 3))
        w = rng.standard_normal((4, 1, 1, 3))
        b = rng.standard_normal(4)
        grad_out = rng.standard_normal((5, 5, 4))
        _, cache = conv_forward(x, w, b)
        gx, gw, gb = conv_backward(grad_out, cache)
        err = layer_fd(lambda: conv_forward(x, w, b), [x, w, b], grad_out, [gx, gw, gb])
        assert err < 1e-4

    def test_positional_locality(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (8, 8, 3))
        w = rng.standard_normal((6, 1, 1, 3))
        base, _ = conv_forward(x, w, np.zeros(6))
        bumped = x.copy()
        bumped[3, 5] += 0.25
        out, _ = conv_forward(bumped, w, np.zeros(6))
        diff = np.abs(out - base).sum(axis=-1)
        assert diff[3, 5] > 0
        diff[3, 5] = 0
        assert np.all(diff == 0)

    def test_wide_kernel_same_padding(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 6, 3))
        w = rng.standard_normal((2, 3, 3, 3))
        out, cache = conv_forward(x, w, np.zeros(2))
        assert out.shape == (6, 6, 2)
        # hand-compute one interior output with the zero-padded window
        y, xx, k = 2, 3, 1
        expected = sum(
            w[k, dy, dx, c] * x[y + dy - 1, xx + dx - 1, c]
            for dy in range(3) for dx in range(3) for c in range(3)
        )
        assert out[y, xx, k] == pytest.approx(expected, rel=1e-12)
        grad_out = rng.standard_normal(out.shape)
        gx, gw, gb = conv_backward(grad_out, cache)
        err = layer_fd(lambda: conv_forward(x, w, np.zeros(2)), [x, w], grad_out, [gx, gw])
        assert err < 1e-4


class TestMaxPool:
    def test_32_to_4(self):
        x = np.random.default_rng(4).uniform(0, 1, (32, 32, 5))
        out, _ = maxpool_forward(x, 8)
        assert out.shape == (4, 4, 5)

    def test_tie_routes_to_first_position(self):
        x = np.full((4, 4, 1), 0.5)
        out, cache = maxpool_forward(x, 2)
        assert np.allclose(out, 0.5)
        grad = maxpool_backward(np.ones((2, 2, 1)), cache)
        expected = np.zeros((4, 4, 1))
        expected[0::2, 0::2, 0] = 1.0
        assert np.array_equal(grad, expected)

    def test_finite_differences_tie_free(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 8, 3))
        grad_out = rng.standard_normal((2, 2, 3))
        _, cache = maxpool_forward(x, 4)
        gx = maxpool_backward(grad_out, cache)
        err = layer_fd(lambda: maxpool_forward(x, 4), [x], grad_out, [gx])
        assert err < 1e-4

    def test_nondivisible_rejected(self):
        with pytest.raises(ShapeMismatchError):
            maxpool_forward(np.zeros((9, 9, 2)), 4)

    def test_forward_without_cache_matches(self):
        x = np.random.default_rng(6).standard_normal((2, 8, 8, 3))
        full, _ = maxpool_forward(x, 2, need_cache=True)
        lean, cache = maxpool_forward(x, 2, need_cache=False)
        assert cache is None
        assert np.array_equal(full, lean)


FUSED_SHAPES = (((), 8, 4), ((3,), 8, 2), ((2,), 32, 8), ((2,), 4, 1))


def fused_cases(k, dtype, seed, exact):
    """(x, w, b, pool) inputs of the fused layer over single patches and
    batches. `exact` draws dyadic values whose products and sums are exact in
    float32, so every summation order gives the same bits; it includes
    constant and quantised blocks that force exact ties. Otherwise the values
    are continuous."""
    rng = np.random.default_rng(seed)
    for lead, side, pool in FUSED_SHAPES:
        shape = lead + (side, side, 3)
        if exact:
            xs = (rng.integers(0, 257, shape) / 256, np.full(shape, 0.25),
                  rng.integers(0, 3, shape) / 2)
            w = rng.integers(-64, 65, (k, 1, 1, 3)) / 32
            b = rng.integers(-64, 65, k) / 64
        else:
            xs = (rng.uniform(0, 1, shape),)
            w = rng.standard_normal((k, 1, 1, 3))
            b = rng.standard_normal(k)
        for x in xs:
            yield x.astype(dtype), w.astype(dtype), b.astype(dtype), pool


def reference_conv_pool(x, w, b, pool):
    conv_out, conv_cache = conv_forward(x, w, b)
    pooled, pool_cache = maxpool_forward(conv_out, pool)
    return pooled, conv_cache, pool_cache


FUSED_PARAMS = [(k, dtype) for k in (1, 4, 32) for dtype in (np.float32, np.float64)]


class TestConv1x1Pool:
    @pytest.mark.parametrize("k,dtype", FUSED_PARAMS)
    def test_forward_equals_reference_layers(self, k, dtype):
        for x, w, b, pool in fused_cases(k, dtype, seed=30 + k, exact=True):
            want, _, (_, _, want_idx) = reference_conv_pool(x, w, b, pool)
            got, (_, got_idx) = conv1x1_pool_forward(x, w, b, pool)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(got_idx, want_idx)
            lean, cache = conv1x1_pool_forward(x, w, b, pool, need_cache=False)
            assert cache is None
            assert np.array_equal(lean, want)

    @pytest.mark.parametrize("k,dtype", FUSED_PARAMS)
    def test_forward_rounds_like_reference_layers(self, k, dtype):
        # numpy may pick another BLAS kernel for the block shape than for the
        # reference's image rows, so inexact sums may differ in the last bit
        eps = np.finfo(dtype).eps
        for x, w, b, pool in fused_cases(k, dtype, seed=35 + k, exact=False):
            want, _, (_, _, want_idx) = reference_conv_pool(x, w, b, pool)
            got, (_, got_idx) = conv1x1_pool_forward(x, w, b, pool)
            assert got.dtype == want.dtype
            assert np.array_equal(got_idx, want_idx)
            assert np.allclose(got, want, rtol=4 * eps, atol=16 * eps)
            lean, _ = conv1x1_pool_forward(x, w, b, pool, need_cache=False)
            assert np.array_equal(lean, got)

    @pytest.mark.parametrize("k,dtype", FUSED_PARAMS)
    @pytest.mark.parametrize("exact", [True, False])
    def test_backward_equals_reference_layers(self, k, dtype, exact):
        rng = np.random.default_rng(40 + k)
        eps = np.finfo(dtype).eps
        for x, w, b, pool in fused_cases(k, dtype, seed=50 + k, exact=exact):
            want, conv_cache, pool_cache = reference_conv_pool(x, w, b, pool)
            grad = rng.standard_normal(want.shape).astype(dtype)
            _, want_w, want_b = conv_backward(maxpool_backward(grad, pool_cache), conv_cache)
            _, cache = conv1x1_pool_forward(x, w, b, pool)
            got_w, got_b = conv1x1_pool_backward(grad, cache)
            assert got_w.shape == w.shape and got_b.shape == b.shape
            # the same terms summed in another order; |x| <= 1
            tol = 64 * eps * float(np.abs(grad).sum())
            assert np.allclose(got_w, want_w, rtol=0, atol=tol)
            assert np.allclose(got_b, want_b, rtol=0, atol=tol)

    def test_finite_differences(self):
        rng = np.random.default_rng(61)
        x = rng.uniform(0, 1, (2, 8, 8, 3))
        w = rng.standard_normal((4, 1, 1, 3))
        b = rng.standard_normal(4)
        out, cache = conv1x1_pool_forward(x, w, b, 4)
        grad_out = rng.standard_normal(out.shape)
        gw, gb = conv1x1_pool_backward(grad_out, cache)
        err = layer_fd(lambda: conv1x1_pool_forward(x, w, b, 4), [w, b], grad_out, [gw, gb])
        assert err < 1e-4

    def test_tie_routes_to_first_position(self):
        # constant blocks: every pixel of a window ties, the first one wins
        x = np.full((4, 4, 3), 0.5)
        x[2:, 2:] = 0.75
        w = np.ones((1, 1, 1, 3))
        out, cache = conv1x1_pool_forward(x, w, np.zeros(1), 2)
        assert np.array_equal(out[..., 0], [[1.5, 1.5], [1.5, 2.25]])
        assert np.all(cache[1] == 0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeMismatchError):
            conv1x1_pool_forward(np.zeros((9, 9, 3)), np.zeros((2, 1, 1, 3)), np.zeros(2), 4)
        # a non-square kernel, and kernels over another channel count
        for w in (np.zeros((2, 3, 1, 3)), np.zeros((2, 1, 3, 3)), np.zeros((2, 3, 3, 4)),
                  np.zeros((2, 1, 1, 27))):
            with pytest.raises(ShapeMismatchError):
                conv1x1_pool_forward(np.zeros((8, 8, 3)), w, np.zeros(2), 4)

    def test_mixed_dtypes_rejected(self):
        x, w, b = np.zeros((2, 8, 8, 3)), np.zeros((2, 1, 1, 3)), np.zeros(2)
        for args in ((x.astype(np.float32), w, b), (x, w.astype(np.float32), b),
                     (x, w, b.astype(np.float32))):
            for need_cache in (True, False):
                with pytest.raises(ParameterError):
                    conv1x1_pool_forward(*args, 4, need_cache=need_cache)

    def test_mixed_dtypes_match_reference(self):
        # the network runs mixed patches, weights and bias in the weights' one
        # dtype, a plain cast of each operand before the layer
        rng = np.random.default_rng(60)
        x = rng.integers(0, 257, (2, 8, 8, 3)) / 256
        w = rng.integers(-64, 65, (5, 1, 1, 3)) / 32
        b = rng.uniform(-1, 1, 5)  # the bias add is the one rounding step, alike in both
        for xd, wd, bd in ((np.float32, np.float32, np.float64),
                           (np.float64, np.float32, np.float32),
                           (np.float32, np.float64, np.float32)):
            args = (x.astype(xd), w.astype(wd), b.astype(bd))
            cast = [a.astype(np.result_type(wd, bd)) for a in args]
            ops = fused_operands(*args, 4)
            assert all(a.tobytes() == c.tobytes() for a, c in zip(ops, cast))
            want, _, _ = reference_conv_pool(*cast, 4)
            got, _ = conv1x1_pool_forward(*ops, 4)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


DTYPE_TRIPLES = ((np.float32,) * 3, (np.float64,) * 3, (np.float32, np.float32, np.float64),
                 (np.float64, np.float32, np.float32), (np.float32, np.float64, np.float32))


def fused_operands(x, w, b, pool):
    """The patches, kernels and bias that `forward_cache` hands the fused
    layer for patches x and a first layer (w, b) of any float dtypes, under
    float32 FC and output layers: all three in the weights' one dtype, which
    is float32 only when w and b are, and the kernels the model's own."""
    k, g, f32 = w.shape[0], x.shape[1] // pool, np.float32
    params = NetworkParams(conv_w=w, conv_b=b, fc_w=np.zeros((1, g * g * k), f32),
                           fc_b=np.zeros(1, f32), out_w=np.zeros((3, 1), f32),
                           out_b=np.ones(3, f32), pool_size=pool)
    seen = []

    def record(*args, **kwargs):
        seen.append(args[:3])
        return conv1x1_pool_forward(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "conv1x1_pool_forward", record)
        forward_cache(params, x)
    (ops,) = seen
    assert params.dtype == np.result_type(w, b)
    assert ops[1] is params.conv_w
    assert all(a.dtype == params.dtype for a in ops)
    return ops


def block_window_counts(k, pool, dtype, running=True):
    """Window counts below one block of the fused layer, exactly one, one
    full block followed by a one-window block (which numpy would send to
    gemv), and not a multiple of one, for K kernels and pool x pool
    windows: at the blocks of the cached path (FUSED_BLOCK_BYTES of every
    pixel's responses) and, with `running`, also at those of inference's
    running max (RUNNING_MAX_BYTES of one pixel's responses)."""
    itemsize = np.dtype(dtype).itemsize
    steps = [max(1, FUSED_BLOCK_BYTES // (pool * pool * k * itemsize))]
    if running:
        steps.append(max(1, RUNNING_MAX_BYTES // (k * itemsize)))
    return sorted({n for step in steps for n in (1, step - 1, step, step + 1, 2 * step + 5)
                   if n > 0})


class TestConv1x1PoolBlocks:
    """The inference path keeps a running max over a block of pool windows
    at a time and adds the bias after the max; it must give the cached
    path's bits."""

    @pytest.mark.parametrize("xd,wd,bd", DTYPE_TRIPLES)
    def test_block_boundaries_with_a_rounding_bias(self, xd, wd, bd):
        rng = np.random.default_rng(70)
        k, pool = 240, 8
        out_dtype = np.result_type(wd, bd)  # the weights', which the network runs in
        # dyadic x and w make every response exact, so the bias add is the one
        # rounding step; at about 1/eps the distinct responses of a channel
        # round to a few equal sums
        w = (rng.integers(-64, 65, (k, 1, 1, 3)) / 32).astype(wd)
        b = (rng.choice([-1, 1], k) * rng.uniform(0.5, 1, k) / np.finfo(out_dtype).eps).astype(bd)
        for windows in block_window_counts(k, pool, out_dtype):
            for side in (8, 16):
                n = -(-windows // (side // pool) ** 2)
                x = (rng.integers(0, 257, (n, side, side, 3)) / 256).astype(xd)
                ops = fused_operands(x, w, b, pool)
                want, _, _ = reference_conv_pool(*ops, pool)
                cached, _ = conv1x1_pool_forward(*ops, pool)
                lean, cache = conv1x1_pool_forward(*ops, pool, need_cache=False)
                assert cache is None
                assert lean.dtype == want.dtype == out_dtype
                assert np.array_equal(lean, cached)
                assert np.array_equal(lean, want)
                if windows > 1:
                    biased, _ = conv_forward(*ops)
                    bare, _ = conv_forward(*ops[:2], np.zeros_like(ops[2]))
                    assert np.unique(biased[..., 0]).size < np.unique(bare[..., 0]).size

    @pytest.mark.parametrize("k,pool", [(1, 8), (240, 8), (240, 1)])
    @pytest.mark.parametrize("xd,wd,bd", DTYPE_TRIPLES)
    def test_block_boundaries_on_continuous_inputs(self, k, pool, xd, wd, bd):
        # K = 1 and pool 1 run gemv, whose rounding depends on the operands'
        # layout. K = 1 never takes the running max, and its running blocks
        # would hold up to 131,077 8x8 windows, so here it is checked at the
        # cached path's blocks only (test_running_max_boundaries: pool 1)
        rng = np.random.default_rng(71)
        w = rng.standard_normal((k, 1, 1, 3)).astype(wd)
        b = rng.standard_normal(k).astype(bd)
        for windows in block_window_counts(k, pool, np.result_type(wd, bd), running=k > 1):
            x = rng.uniform(0, 1, (windows, pool, pool, 3)).astype(xd)
            ops = fused_operands(x, w, b, pool)
            cached, _ = conv1x1_pool_forward(*ops, pool)
            lean, _ = conv1x1_pool_forward(*ops, pool, need_cache=False)
            want, _ = block_conv1x1_pool_forward(*ops, pool, need_cache=False)
            assert lean.tobytes() == cached.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,pool", [(240, 8), (240, 1), (1, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_pixel_gives_nan_in_its_window(self, k, pool, dtype):
        rng = np.random.default_rng(74)
        w = rng.standard_normal((k, 1, 1, 3)).astype(dtype)
        b = rng.standard_normal(k).astype(dtype)
        step = max(1, RUNNING_MAX_BYTES // (k * np.dtype(dtype).itemsize))
        x = rng.uniform(0, 1, (step + 1, pool, pool, 3)).astype(dtype)
        # the first pixel of the first window, whose gemm writes the running
        # max, the last pixel of the last window of the first running block,
        # and one channel of a middle pixel of the one-window block after it,
        # which goes window by window
        x[0, 0, 0] = np.nan
        x[step - 1, pool - 1, pool - 1] = np.nan
        x[step, pool // 2, pool // 2, 1] = np.nan
        lean, _ = conv1x1_pool_forward(x, w, b, pool, need_cache=False)
        cached, _ = conv1x1_pool_forward(x, w, b, pool)
        nan_windows = np.zeros(len(x), dtype=bool)
        nan_windows[[0, step - 1, step]] = True
        assert np.array_equal(np.isnan(lean[:, 0, 0]).all(axis=-1), nan_windows)
        assert np.array_equal(np.isnan(lean), np.isnan(cached))
        assert np.array_equal(lean, cached, equal_nan=True)

    def test_forward_equals_forward_cache_at_paper_shape(self):
        rng = np.random.default_rng(72)
        params = init_params(HyperParams(), 7)
        params = replace(params, conv_b=rng.standard_normal(params.kernel_count),
                         fc_b=rng.standard_normal(params.fc_units) * 0.1)
        x = rng.uniform(0, 1, (40, 32, 32, 3))
        est, _ = forward_cache(params, x)
        assert np.array_equal(forward(params, x), est)

    @pytest.mark.parametrize("k", [2, 17, 240])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kernel_width", [4, 5])
    def test_forward_equals_forward_cache_above_27_taps(self, kernel_width, dtype, k):
        # 48 and 75 taps: sums that BLAS may round by the gemm's row count
        rng = np.random.default_rng(100 * kernel_width + k)
        hyper = replace(HyperParams(), kernel_count=k, kernel_width=kernel_width, fc_units=8,
                        dtype=dtype)
        params = init_params(hyper, kernel_width + k)
        params = replace(params, conv_b=rng.standard_normal(k).astype(dtype),
                         fc_b=(rng.standard_normal(8) * 0.1).astype(dtype))
        x = rng.uniform(0, 1, (200, 32, 32, 3)).astype(dtype)
        est, _ = forward_cache(params, x)
        assert forward(params, x).tobytes() == est.tobytes()

    def test_inference_forward_memory_is_bounded(self):
        # the response array of a 512-patch chunk alone would be 480 MiB
        params = init_params(HyperParams(), 8)
        x = np.random.default_rng(73).uniform(0, 1, (512, 32, 32, 3))
        tracemalloc.start()
        try:
            forward(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestWideKernelFused:
    """A k x k network hands the fused layer its own (K, kw, kw, 3) kernels,
    which it runs over each pixel's kw x kw x 3 taps: the pooled maps,
    argmax and gradients of the reference layers."""

    @pytest.mark.parametrize("kw", [2, 3, 5])
    def test_equals_reference_layers(self, kw, monkeypatch):
        rng = np.random.default_rng(80 + kw)
        params = init_params(replace(TOY, kernel_width=kw), 80 + kw)
        params = replace(params, conv_b=rng.standard_normal(TOY.kernel_count),
                         fc_b=rng.standard_normal(TOY.fc_units) * 0.1)
        # continuous values: no two responses of a pool window tie
        x = rng.uniform(0, 1, (3, 8, 8, 3))
        grad_est = rng.standard_normal((3, 3))
        seen = []

        def record(x, w, *args, **kwargs):
            assert w is params.conv_w
            seen.append(conv1x1_pool_forward(x, w, *args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(network, "conv1x1_pool_forward", record)
        est, cache = forward_cache(params, x)
        grads = backward(params, cache, grad_est)
        ((got, (_, got_idx)),) = seen

        want, conv_cache, pool_cache = reference_conv_pool(
            x, params.conv_w, params.conv_b, TOY.pool_size)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        assert np.array_equal(got_idx, pool_cache[2])

        fc_out, fc_cache = fc_relu_forward(want.reshape(len(x), -1), params.fc_w, params.fc_b)
        want_est, out_cache = linear_forward(fc_out, params.out_w, params.out_b)
        assert np.allclose(est, want_est, rtol=1e-12, atol=1e-14)
        grad_fc_out, _, _ = linear_backward(grad_est, out_cache)
        grad_flat, _, _ = fc_relu_backward(grad_fc_out, fc_cache)
        grad_pool = grad_flat.reshape(want.shape)
        _, want_w, want_b = conv_backward(maxpool_backward(grad_pool, pool_cache), conv_cache)
        assert grads.conv_w.shape == params.conv_w.shape
        assert np.allclose(grads.conv_w, want_w, rtol=1e-12, atol=1e-14)
        assert np.allclose(grads.conv_b, want_b, rtol=1e-12, atol=1e-14)

    def test_chunk_holds_its_taps_once(self):
        # the pixel-outer copy of a 512-patch chunk's 27 taps a pixel takes
        # 54 MiB in float32, and the whole pass peaks near 86 MiB; with a
        # second, contiguous copy of the taps it peaked at 133 MiB
        params = init_params(replace(HyperParams(), kernel_width=3), 9)
        x = np.random.default_rng(9).uniform(0, 1, (512, 32, 32, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            forward_cache(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


class TestChunkedForward:
    """`forward` spreads a large batch's chunks over the calling thread and
    the package's pool, each lane running its chunks from cast to output,
    and concatenates their estimates in order: the same bits as one chunk
    after another, on any number of CPUs."""

    SHAPE = SMALL

    @staticmethod
    def serial(params, x):
        return np.concatenate([forward(params, x[i : i + network.FORWARD_CHUNK])
                               for i in range(0, len(x), network.FORWARD_CHUNK)])

    @staticmethod
    def recording_stages(monkeypatch, layer):
        threads = []
        run = getattr(network, layer)

        def recorded(*args, **kwargs):
            threads.append(threading.get_ident())
            # time for the pool thread to take its lane before the caller,
            # done with its own, would run that lane itself
            time.sleep(0.01)
            return run(*args, **kwargs)

        monkeypatch.setattr(network, layer, recorded)
        return threads

    @pytest.mark.parametrize("n", [1, 512, 513, 2072])
    @pytest.mark.parametrize("kernel_width", [1, 3])
    @pytest.mark.parametrize("wdtype,xdtype", [
        ("float32", np.float32), ("float32", np.float64), ("float64", np.float64)])
    def test_equals_serial_chunk_loop(self, n, kernel_width, wdtype, xdtype, monkeypatch):
        params = init_params(replace(self.SHAPE, kernel_width=kernel_width, dtype=wdtype), n)
        rng = np.random.default_rng(n)
        params = replace(params, conv_b=rng.standard_normal(params.kernel_count),
                         fc_b=rng.standard_normal(params.fc_units) * 0.1)
        x = rng.uniform(0, 1, (n, 16, 16, 3)).astype(xdtype)
        want = self.serial(params, x).tobytes()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
            got = forward(params, x)
            assert got.dtype == params.dtype and got.shape == (n, 3)
            assert got.tobytes() == want

    def test_paper_shape_float32_local_map_batch(self, monkeypatch):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        params = init_params(replace(HyperParams(), dtype="float32"), 74)
        x = np.random.default_rng(74).uniform(0, 1, (2072, 32, 32, 3))
        assert forward(params, x).tobytes() == self.serial(params, x).tobytes()

    @pytest.mark.parametrize("layer", ["conv1x1_pool_forward", "linear_forward"])
    def test_stages_run_on_two_threads(self, layer, monkeypatch):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        threads = self.recording_stages(monkeypatch, layer)
        params = init_params(self.SHAPE, 75)
        forward(params, np.random.default_rng(75).uniform(0, 1, (2072, 16, 16, 3)))
        assert len(threads) == 5
        assert threads.count(threading.get_ident()) == 3  # chunks 0, 2 and 4
        assert len(set(threads)) == 2

    @pytest.mark.parametrize("layer", ["conv1x1_pool_forward", "linear_forward"])
    def test_one_cpu_uses_no_pool_thread(self, layer, monkeypatch):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
        threads = self.recording_stages(monkeypatch, layer)
        params = init_params(self.SHAPE, 76)
        forward(params, np.random.default_rng(76).uniform(0, 1, (2072, 16, 16, 3)))
        assert threads == [threading.get_ident()] * 5

    @pytest.mark.parametrize("n", [513, 1025, 2072])
    def test_nonfinite_output_in_the_last_chunk_raises(self, n, monkeypatch):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        params = init_params(self.SHAPE, 77)
        x = np.random.default_rng(77).uniform(0, 1, (n, 16, 16, 3))
        x[-1, 5, 5, 1] = np.nan
        with pytest.raises(NumericFaultError):
            forward(params, x)

    def test_misshapen_large_batch_raises_the_typed_error(self, monkeypatch):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        with pytest.raises(ShapeMismatchError):
            forward(init_params(self.SHAPE, 78), np.zeros((1100, 18, 18, 3)))

    def test_concurrent_calls_share_the_pool(self, monkeypatch):
        # evaluate's image workers call forward at once; their chunks queue
        # on the same pool threads and must not mix
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 3)
        params = init_params(self.SHAPE, 79)
        xs = [np.random.default_rng(s).uniform(0, 1, (1300, 16, 16, 3)) for s in range(4)]
        want = [self.serial(params, x).tobytes() for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(xs)) as callers:
                calls = [callers.submit(forward, params, x) for x in xs]
                got = [call.result(timeout=120).tobytes() for call in calls]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_local_map_batch_memory_is_bounded(self, monkeypatch):
        # a chunk's pooled maps live only in its lane, which runs its heads;
        # the chunks in flight (one per CPU) hold their casts, pixel-outer
        # copies, response blocks and pooled maps, but no chunk's response
        # array (480 MiB) is built
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
        params = init_params(HyperParams(), 8)
        x = np.random.default_rng(73).uniform(0, 1, (2072, 32, 32, 3))
        tracemalloc.start()
        try:
            forward(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


ALL_DTYPE_TRIPLES = tuple(itertools.product((np.float32, np.float64), repeat=3))


class TestConv1x1PoolOracle:
    """Training and inference share the pixel-outer layout; both must give
    the bits of the block layout form it replaced, ties included, for the
    operands the network hands it from patches, weights and bias of any
    dtypes, at the edges of training's blocks and of inference's running-max
    blocks: the kernels of a 1x1 model (3 taps a pixel) and of a 3x3 one
    (27 taps), which the block layout form takes as a 1x1 layer over each
    pixel's contiguous taps (`block_conv_pool_forward`)."""

    @pytest.mark.parametrize("k", [1, 2, 4, 17, 32, 240])
    @pytest.mark.parametrize("xd,wd,bd", ALL_DTYPE_TRIPLES)
    def test_bit_identical_to_block_layout(self, k, xd, wd, bd):
        self.check_block_layout(k, 1, xd, wd, bd)

    # K = 1 is left to the 1x1 test: its blocks go window by window through
    # the same gemv whatever C, and at 27 taps each copy of its 16,389
    # windows takes 113 MB (the class peaked at 702 MiB with it, 273 without)
    @pytest.mark.parametrize("k", [2, 4, 17, 32, 240])
    @pytest.mark.parametrize("xd,wd,bd", ALL_DTYPE_TRIPLES)
    def test_3x3_taps_bit_identical_to_block_layout(self, k, xd, wd, bd):
        self.check_block_layout(k, 3, xd, wd, bd)

    @staticmethod
    def check_block_layout(k, kw, xd, wd, bd):
        rng = np.random.default_rng((80 + k) * kw)
        pool = 8
        dtype = np.result_type(wd, bd)  # the weights', which the network runs in
        eps = np.finfo(dtype).eps
        for kind in ("ties", "continuous", "rounding_bias"):
            if kind == "continuous":
                w = rng.standard_normal((k, kw, kw, 3))
                b = rng.standard_normal(k)
            else:
                # dyadic values: exact sums, and on a coarse grid many ties
                w = rng.integers(-64, 65, (k, kw, kw, 3)) / 32
                b = rng.integers(-64, 65, k) / 64
            if kind == "rounding_bias":
                # at about 1/eps the bias add rounds distinct responses to
                # ties, which the argmax must see
                b = rng.choice([-1, 1], k) * rng.uniform(0.5, 1, k) / eps
            w, b = w.astype(wd), b.astype(bd)
            # the edges of inference's running blocks, which hold up to
            # 131,077 8x8 windows: test_running_max_boundaries
            for windows in block_window_counts(k, pool, dtype, running=False):
                for side in (8, 16):
                    shape = (-(-windows // (side // pool) ** 2), side, side, 3)
                    if kind == "continuous":
                        x = rng.uniform(0, 1, shape)
                    else:
                        x = rng.integers(0, 257 if kind == "rounding_bias" else 3, shape) / 256
                    ops = fused_operands(x.astype(xd), w, b, pool)
                    assert ops[0].shape[-1] == 3 and ops[1].shape == (k, kw, kw, 3)
                    got, got_cache = conv1x1_pool_forward(*ops, pool)
                    want, want_cache = block_conv_pool_forward(*ops, pool)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    assert got_cache[1].tobytes() == want_cache[1].tobytes()
                    grad = rng.standard_normal(got.shape).astype(got.dtype)
                    for a, c in zip(conv1x1_pool_backward(grad, got_cache),
                                    block_conv1x1_pool_backward(grad, want_cache)):
                        assert a.dtype == c.dtype and a.tobytes() == c.tobytes()
                    got_cache = want_cache = None  # not held beside the lean pass
                    lean, _ = conv1x1_pool_forward(*ops, pool, need_cache=False)
                    assert lean.tobytes() == want.tobytes() == got.tobytes()

    @pytest.mark.parametrize("k,pool", [(1, 1), (4, 2), (240, 1), (17, 8), (32, 8), (240, 8)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_running_max_boundaries(self, k, pool, dtype):
        self.check_running_max(k, pool, 1, dtype)

    # K = 1 at pool 1 is left to the 1x1 test, as above: at 27 taps each copy
    # of its 1,048,581 windows takes 113 MB
    @pytest.mark.parametrize("k,pool", [(4, 2), (240, 1), (17, 8), (32, 8), (240, 8)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_3x3_taps_running_max_boundaries(self, k, pool, dtype):
        self.check_running_max(k, pool, 3, dtype)

    @staticmethod
    def check_running_max(k, pool, kw, dtype):
        # K = 1, pool 1 and the one-window blocks go window by window, and
        # K = 17 leaves a remainder in every gemm kernel's column tiles
        rng = np.random.default_rng((90 + k + pool) * kw)
        eps = np.finfo(dtype).eps
        for kind in ("continuous", "rounding_bias"):
            if kind == "continuous":
                w = rng.standard_normal((k, kw, kw, 3)).astype(dtype)
                b = rng.standard_normal(k).astype(dtype)
            else:
                # dyadic values: exact sums and many ties; at about 1/eps the
                # bias add rounds distinct responses to ties
                w = (rng.integers(-64, 65, (k, kw, kw, 3)) / 32).astype(dtype)
                b = (rng.choice([-1, 1], k) * rng.uniform(0.5, 1, k) / eps).astype(dtype)
            for windows in block_window_counts(k, pool, dtype):
                for side in (pool, 2 * pool):
                    shape = (-(-windows // (side // pool) ** 2), side, side, 3)
                    if kind == "continuous":
                        x = rng.uniform(0, 1, shape)
                    else:
                        x = rng.integers(0, 257, shape) / 256
                    x = x.astype(dtype)
                    cached, _ = conv1x1_pool_forward(x, w, b, pool)
                    lean, _ = conv1x1_pool_forward(x, w, b, pool, need_cache=False)
                    want, _ = block_conv_pool_forward(x, w, b, pool, need_cache=False)
                    assert lean.dtype == want.dtype == dtype
                    assert lean.tobytes() == cached.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_seeded_training_identical_to_block_layout(self, dtype, monkeypatch):
        self.check_seeded_training(dtype, 1, monkeypatch)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_seeded_3x3_training_identical_to_block_layout(self, dtype, monkeypatch):
        self.check_seeded_training(dtype, 3, monkeypatch)

    @staticmethod
    def check_seeded_training(dtype, kw, monkeypatch):
        samples = make_synthetic_samples(count=6, size=48, seed=9)
        hyper = replace(SMALL, epochs=2, patches_per_image=20, dtype=dtype, kernel_width=kw)
        tune = replace(hyper, learning_rate=1e-3, momentum=0.0)

        def run():
            model = train(samples, [0], hyper).models[0]
            return [model, fine_tune(model, samples[:3], tune, val_dataset=samples[3:])]

        def weights(models):
            return [getattr(m, name).tobytes() for m in models for name in PARAM_LAYERS]

        got = weights(run())
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("need_cache", True))
            return block_conv_pool_forward(*args, **kwargs)

        monkeypatch.setattr(network, "conv1x1_pool_forward", counted)
        monkeypatch.setattr(network, "conv1x1_pool_backward", block_conv1x1_pool_backward)
        assert weights(run()) == got
        assert True in calls and False in calls


class TestFcRelu:
    def test_all_negative_preactivation(self):
        out, _ = fc_relu_forward(np.ones(3), -np.eye(3), np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_identity_on_nonnegative(self):
        x = np.array([0.5, 0.0, 2.0])
        out, _ = fc_relu_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(6)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4) + 0.1  # keep pre-activations off the kink
        grad_out = rng.standard_normal(4)
        _, cache = fc_relu_forward(x, w, b)
        gx, gw, gb = fc_relu_backward(grad_out, cache)
        err = layer_fd(lambda: fc_relu_forward(x, w, b), [x, w, b], grad_out, [gx, gw, gb])
        assert err < 1e-4

    @pytest.mark.parametrize("n", [1, 256, 257, 925])
    def test_batched_weight_gradient_sums_pieces_in_order(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 6))
        w = rng.standard_normal((4, 6))
        grad_out = rng.standard_normal((n, 4))
        _, cache = fc_relu_forward(x, w, np.full(4, 0.1))
        gx, gw, gb = fc_relu_backward(grad_out, cache)
        g = grad_out * (cache[2] > 0)
        piece = network.BACKWARD_CHUNK
        want = g[:piece].T @ x[:piece]
        for i in range(piece, n, piece):
            want += g[i : i + piece].T @ x[i : i + piece]
        assert gw.tobytes() == want.tobytes()
        assert np.allclose(gw, g.T @ x, rtol=1e-12, atol=1e-12)
        assert np.array_equal(gx, g @ w) and np.array_equal(gb, g.sum(axis=0))

    def test_gradient_zero_at_kink(self):
        x = np.zeros(2)
        _, cache = fc_relu_forward(x, np.eye(2), np.zeros(2))  # pre-activation exactly 0
        gx, _, _ = fc_relu_backward(np.ones(2), cache)
        assert np.array_equal(gx, np.zeros(2))


class TestFullForward:
    def test_bias_path(self):
        params = toy_params()
        params = NetworkParams(
            conv_w=np.zeros_like(params.conv_w), conv_b=np.zeros_like(params.conv_b),
            fc_w=np.zeros_like(params.fc_w), fc_b=np.zeros_like(params.fc_b),
            out_w=np.zeros_like(params.out_w), out_b=np.array([0.5, 0.5, 0.5]),
            pool_size=params.pool_size,
        )
        assert np.allclose(forward(params, np.zeros((1, 8, 8, 3))), 0.5)

    def test_kernel_permutation_symmetry(self):
        params = toy_params(seed=8)
        patch = np.random.default_rng(9).uniform(0, 1, (1, 8, 8, 3))
        base = forward(params, patch)
        k1, k2 = 1, 3
        perm = np.arange(TOY.kernel_count)
        perm[[k1, k2]] = perm[[k2, k1]]
        g = TOY.pooled_side
        conv_w = params.conv_w[perm]
        conv_b = params.conv_b[perm]
        fc_w = params.fc_w.reshape(TOY.fc_units, g * g, TOY.kernel_count)[:, :, perm] \
            .reshape(TOY.fc_units, -1)
        swapped = NetworkParams(conv_w=conv_w, conv_b=conv_b, fc_w=fc_w,
                                fc_b=params.fc_b, out_w=params.out_w, out_b=params.out_b,
                                pool_size=params.pool_size)
        assert np.max(np.abs(forward(swapped, patch) - base)) < 1e-12

    def test_batch_matches_single(self):
        params = toy_params(seed=10)
        rng = np.random.default_rng(11)
        batch = rng.uniform(0, 1, (5, 8, 8, 3))
        batched = forward(params, batch)
        singles = np.concatenate([forward(params, batch[i : i + 1]) for i in range(len(batch))])
        assert np.allclose(batched, singles, atol=1e-12)

    @pytest.mark.parametrize("run", [forward, forward_cache], ids=["forward", "forward_cache"])
    @pytest.mark.parametrize("side", [4, 9, 16])
    def test_wrong_patch_side_rejected(self, run, side):
        # toy weights read 8-px patches (a pooled side of 2 and a pool of 4);
        # 4 and 16 are multiples of the pooled side and are rejected too
        params = toy_params()
        assert params.patch_size == 8
        with pytest.raises(ShapeMismatchError, match=f"patch side {side} is not"):
            run(params, np.zeros((2, side, side, 3)))
        with pytest.raises(ShapeMismatchError):
            run(params, np.zeros((side, side, 3)))
        # the network takes batches only: a lone patch of the right side too,
        # and neither a non-batch array longer than a forward chunk nor a
        # 0-d one is cut into chunks
        for x in (np.zeros((8, 8, 3)), np.zeros((600, 8, 3)), np.zeros(())):
            with pytest.raises(ShapeMismatchError, match=r"expected \(B, S, S, 3\) patches"):
                run(params, x)

    def test_wide_kernel_network_gradcheck(self):
        # the kernel-width sweep trains k x k convolutions; check the whole
        # backward path at k = 3
        hyper = replace(TOY, kernel_width=3)
        params = init_params(hyper, seed=21)
        rng = np.random.default_rng(22)
        patch = rng.uniform(0, 1, (8, 8, 3))
        gt = normalize(rng.uniform(0.2, 1.0, 3))
        report = gradient_check(params, patch, gt, loss_kind="euclidean")
        assert max(report.values()) < 1e-3

    def test_even_kernel_width_forward(self):
        # even widths pad asymmetrically (extra tap on the right/bottom)
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 4, 3))
        w = rng.standard_normal((2, 2, 2, 3))
        out, cache = conv_forward(x, w, np.zeros(2))
        assert out.shape == (4, 4, 2)
        expected = sum(
            w[0, dy, dx, c] * x[1 + dy, 2 + dx, c]
            for dy in range(2) for dx in range(2) for c in range(3)
        )
        assert out[1, 2, 0] == pytest.approx(expected, rel=1e-12)
        grad_out = rng.standard_normal(out.shape)
        gx, gw, gb = conv_backward(grad_out, cache)
        err = layer_fd(lambda: conv_forward(x, w, np.zeros(2)), [x, w], grad_out, [gx, gw])
        assert err < 1e-4

    @pytest.mark.parametrize("kernel_width", [1, 3])
    def test_patches_cast_to_the_weights_dtype(self, kernel_width, monkeypatch):
        """The network computes in its weights' dtype, whatever the patches'."""
        monkeypatch.setattr(network, "FORWARD_CHUNK", 2)  # cast chunk by chunk
        p32 = init_params(replace(TOY, kernel_width=kernel_width, dtype="float32"), 32)
        x64 = np.random.default_rng(33).uniform(0, 1, (5, 8, 8, 3))
        x32 = x64.astype(np.float32)
        got = forward(p32, x64)
        assert got.dtype == np.float32
        assert got.tobytes() == forward(p32, x32).tobytes()
        cached, _ = forward_cache(p32, x64)
        assert cached.dtype == np.float32
        assert cached.tobytes() == forward_cache(p32, x32)[0].tobytes()

    def test_float32_wide_kernel_network_computes_in_float32(self):
        hyper = replace(SMALL, kernel_width=3, dtype="float32")
        p32 = replace(init_params(hyper, 34), out_b=np.array([0.4, 0.5, 0.45], dtype=np.float32))
        p64 = replace(p32, **{n: getattr(p32, n).astype(np.float64) for n in PARAM_LAYERS})
        x = np.random.default_rng(35).uniform(0, 1, (20, 16, 16, 3))
        conv_out, _ = conv_forward(x.astype(np.float32), p32.conv_w, p32.conv_b)
        assert conv_out.dtype == np.float32
        e32, e64 = forward(p32, x), forward(p64, x)
        assert e32.dtype == np.float32 and e64.dtype == np.float64
        assert np.max(angular_error_many(e32, e64)) < 0.01
        # the float32 pass did run: its estimates are not the float64 bits
        assert not np.array_equal(e32, e64)

    def test_nonfinite_params_rejected(self):
        params = toy_params()
        bad = params.conv_w.copy()
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(NumericFaultError):
            replace(params, conv_w=bad)

    def test_mixed_dtypes_widen_to_one_dtype(self):
        """The weights have one precision: all float32 stays float32, and
        one float64 (or integer) array among float32 ones widens all six."""
        single = init_params(replace(TOY, dtype="float32"), 30)
        assert single.dtype == np.float32
        for name in PARAM_LAYERS:
            for odd in (np.float64, np.int64):
                mixed = replace(single, **{name: getattr(single, name).astype(odd)})
                assert mixed.dtype == np.float64
                assert all(getattr(mixed, n).dtype == np.float64 for n in PARAM_LAYERS)
                if odd is np.float64:
                    for n in PARAM_LAYERS:
                        assert np.array_equal(getattr(mixed, n), getattr(single, n))
        # a mixed set runs its whole forward pass in float64
        patch = np.random.default_rng(31).uniform(0, 1, (2, 8, 8, 3)).astype(np.float32)
        mixed = replace(single, fc_w=single.fc_w.astype(np.float64))
        assert forward(mixed, patch).dtype == np.float64
        assert forward(single, patch).dtype == np.float32

    @pytest.mark.parametrize("shapes", [
        {"conv_w": ()}, {"fc_w": (8,)}, {"conv_w": (0, 1, 1, 3), "conv_b": (0,)},
        {"conv_w": (2, 0, 0, 3)}, {"fc_w": (4, 0)}, {"fc_w": (0, 2), "fc_b": (0,), "out_w": (3, 0)},
    ], ids=["conv_w_scalar", "fc_w_vector", "zero_kernels", "zero_kernel_width",
            "zero_fc_width", "zero_fc_units"])
    def test_misshapen_params_rejected(self, shapes):
        arrays = {name: np.zeros(shapes.get(name, dims)) for name, dims in TINY_SHAPES.items()}
        NetworkParams(**{name: np.zeros(dims) for name, dims in TINY_SHAPES.items()}, pool_size=1)
        with pytest.raises(ShapeMismatchError):
            NetworkParams(**arrays, pool_size=1)

    @pytest.mark.parametrize("pool_size", [0, -1, 2.0, None])
    def test_pool_size_must_be_a_positive_integer(self, pool_size):
        with pytest.raises(ParameterError, match="pool_size must be an integer >= 1"):
            replace(toy_params(), pool_size=pool_size)

    @pytest.mark.parametrize("kernel_width", [1, 3])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_empty_batch_gives_no_estimates_and_zero_gradients(self, kernel_width, dtype):
        params = init_params(replace(TOY, kernel_width=kernel_width, dtype=dtype), 32)
        x = np.zeros((0, 8, 8, 3))
        assert forward(params, x).shape == (0, 3)
        est, cache = forward_cache(params, x)
        assert est.shape == (0, 3) and est.dtype == params.dtype
        grads = backward(params, cache, est)
        for name in PARAM_LAYERS:
            grad = getattr(grads, name)
            assert grad.shape == getattr(params, name).shape
            assert not grad.any()

    def test_patch_size_is_pooled_side_times_pool_size(self):
        hyper = HyperParams(patch_size=24, kernel_count=2, pool_size=3, fc_units=2)
        params = init_params(hyper, 0)
        assert (params.pooled_side, params.pool_size, params.patch_size) == (8, 3, 24)
        assert replace(params, pool_size=5).patch_size == 40


class TestLosses:
    def test_euclidean_examples(self):
        loss, grad = euclidean_loss(np.array([1.0, 0, 0]), np.zeros(3))
        assert loss == 0.5
        assert np.array_equal(grad, [1, 0, 0])
        loss, grad = euclidean_loss(np.array([0.3, 0.4, 0.5]), np.array([0.3, 0.4, 0.5]))
        assert loss == 0.0 and np.all(grad == 0)

    def test_euclidean_finite_differences(self):
        rng = np.random.default_rng(12)
        est, gt = rng.standard_normal(3), rng.standard_normal(3)
        _, grad = euclidean_loss(est, gt)
        step = 1e-6
        for i in range(3):
            bump = est.copy()
            bump[i] += step
            up, _ = euclidean_loss(bump, gt)
            bump[i] -= 2 * step
            down, _ = euclidean_loss(bump, gt)
            assert grad[i] == pytest.approx((up - down) / (2 * step), abs=1e-6)

    def test_angular_parallel(self):
        gt = normalize((0.4, 0.8, 0.2))
        loss, grad = angular_loss(gt.rgb * 2.5, gt)
        assert loss < 1e-3
        assert np.allclose(grad, 0.0)

    def test_angular_orthogonal(self):
        loss, _ = angular_loss(np.array([1.0, 0, 0]), normalize((0, 1, 0)))
        assert loss == pytest.approx(math.pi / 2, abs=1e-12)

    def test_angular_finite_differences(self):
        rng = np.random.default_rng(13)
        est = rng.uniform(0.2, 1.0, 3)
        gt = normalize(rng.uniform(0.2, 1.0, 3))
        _, grad = angular_loss(est, gt)
        step = 1e-7
        for i in range(3):
            bump = est.copy()
            bump[i] += step
            up, _ = angular_loss(bump, gt)
            bump[i] -= 2 * step
            down, _ = angular_loss(bump, gt)
            numeric = (up - down) / (2 * step)
            assert abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8) < 1e-4

    def test_angular_degenerate(self):
        with pytest.raises(DegenerateEstimateError):
            angular_loss(np.zeros(3), normalize((1, 1, 1)))


class TestHyperParams:
    def test_divisibility_enforced(self):
        from patchcc.errors import ParameterError

        with pytest.raises(ParameterError):
            HyperParams(patch_size=32, pool_size=7)

    def test_counts_positive(self):
        from patchcc.errors import ParameterError

        with pytest.raises(ParameterError):
            HyperParams(kernel_count=0)

    def test_bad_dtype(self):
        from patchcc.errors import ParameterError

        with pytest.raises(ParameterError):
            HyperParams(dtype="float16")


class TestInit:
    def test_deterministic(self):
        a, b = init_params(TOY, 5), init_params(TOY, 5)
        for name in ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_biases_zero(self):
        p = init_params(TOY, 1)
        assert np.all(p.conv_b == 0) and np.all(p.fc_b == 0) and np.all(p.out_b == 0)

    def test_moments_match_uniform_prediction(self):
        hyper = HyperParams(patch_size=32, kernel_count=240, pool_size=8, fc_units=40)
        p = init_params(hyper, 2)
        for arr, fan_in, fan_out in [
            (p.conv_w, 3, 240),
            (p.fc_w, 4 * 4 * 240, 40),
        ]:
            bound = math.sqrt(6 / (fan_in + fan_out))
            predicted_std = bound / math.sqrt(3)
            assert abs(arr.std() - predicted_std) / predicted_std < 0.10
            assert np.abs(arr).max() <= bound


class TestSgd:
    def test_plain_gradient_step(self):
        params = toy_params(3)
        hyper = replace(TOY, momentum=0.0, weight_decay=0.0, learning_rate=0.1)
        grads = NetworkGrads(**{
            n: np.full_like(getattr(params, n), 0.5) for n in
            ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b")
        })
        new, _ = sgd_step(params, grads, hyper, zero_momentum(params))
        assert np.array_equal(new.conv_w, params.conv_w - 0.1 * 0.5)

    def test_zero_gradient_no_change(self):
        params = toy_params(4)
        new, _ = sgd_step(params, zero_momentum(params), TOY, zero_momentum(params))
        for name in ("conv_w", "fc_w", "out_w"):
            got, want = getattr(new, name), getattr(params, name)
            # weight decay still shrinks parameters unless it is disabled
            assert np.allclose(got, want * (1 - TOY.learning_rate * TOY.weight_decay), atol=1e-15)
        clean = replace(TOY, weight_decay=0.0)
        new, _ = sgd_step(params, zero_momentum(params), clean, zero_momentum(params))
        assert np.array_equal(new.conv_w, params.conv_w)

    def test_momentum_recurrence_hand_computed(self):
        # scalar recurrence on a single bias entry, mu = 0.9
        params = toy_params(5)
        hyper = replace(TOY, momentum=0.9, weight_decay=0.01, learning_rate=0.1)
        g1, g2 = 0.3, -0.2
        theta0 = float(params.out_b[0])
        v1 = 0.9 * 0.0 - 0.1 * (g1 + 0.01 * theta0)
        theta1 = theta0 + v1
        v2 = 0.9 * v1 - 0.1 * (g2 + 0.01 * theta1)
        theta2 = theta1 + v2

        def grads_with(value):
            g = zero_momentum(params)
            b = g.out_b.copy()
            b[0] = value
            g.out_b = b
            return g

        state = zero_momentum(params)
        p1, state = sgd_step(params, grads_with(g1), hyper, state)
        assert p1.out_b[0] == pytest.approx(theta1, abs=1e-15)
        p2, _ = sgd_step(p1, grads_with(g2), hyper, state)
        assert p2.out_b[0] == pytest.approx(theta2, abs=1e-15)

    def test_nonfinite_gradient_names_layer(self):
        params = toy_params(6)
        grads = zero_momentum(params)
        bad = grads.fc_w.copy()
        bad[0, 0] = np.nan
        grads.fc_w = bad
        with pytest.raises(NumericFaultError, match="fc_w"):
            sgd_step(params, grads, TOY, zero_momentum(params))

    def test_loss_monotonicity_smoke(self):
        params = toy_params(7)
        hyper = replace(TOY, learning_rate=0.05, momentum=0.9, weight_decay=0.0)
        rng = np.random.default_rng(14)
        patch = rng.uniform(0, 1, (1, 8, 8, 3))
        gt = normalize(rng.uniform(0.3, 1.0, 3))
        state = zero_momentum(params)
        first = None
        for _ in range(200):
            est, cache = forward_cache(params, patch)
            loss, grad = euclidean_loss(est, gt)
            if first is None:
                first = loss
            params, state = sgd_step(params, backward(params, cache, grad), hyper, state)
        final, _ = euclidean_loss(forward(params, patch), gt)
        assert final <= 0.1 * first


class TestGradientCheck:
    def test_euclidean_toy(self):
        params = toy_params(8)
        rng = np.random.default_rng(15)
        patch = rng.uniform(0, 1, (8, 8, 3))
        gt = normalize(rng.uniform(0.2, 1.0, 3))
        report = gradient_check(params, patch, gt, loss_kind="euclidean")
        assert max(report.values()) < 1e-3

    def test_angular_toy(self):
        params = toy_params(9)
        rng = np.random.default_rng(16)
        patch = rng.uniform(0, 1, (8, 8, 3))
        gt = normalize(rng.uniform(0.2, 1.0, 3))
        report = gradient_check(params, patch, gt, loss_kind="angular")
        assert max(report.values()) < 1e-3

    def test_corrupted_backward_detected(self):
        params = toy_params(10)
        rng = np.random.default_rng(17)
        patch = rng.uniform(0, 1, (8, 8, 3))
        gt = normalize(rng.uniform(0.2, 1.0, 3))
        _, grads = analytic_param_grads(params, patch, gt, "euclidean")
        grads.fc_w = -grads.fc_w  # sign flip
        report = gradient_check(params, patch, gt, "euclidean", analytic=grads)
        assert report["fc_w"] > 0.1

    @pytest.mark.parametrize("loss_kind", ["euclidean", "angular"])
    def test_float32_model_checked_in_float64(self, loss_kind):
        # training makes float32 models, and a 1e-4 step means nothing in
        # float32: the check widens the weights, so it reports what it
        # reports for their float64 copy
        p32 = init_params(replace(TOY, dtype="float32"), 12)
        p64 = replace(p32, **{name: getattr(p32, name).astype(np.float64)
                              for name in PARAM_LAYERS})
        rng = np.random.default_rng(18)
        patch = rng.uniform(0, 1, (8, 8, 3))
        gt = normalize(rng.uniform(0.2, 1.0, 3))
        report = gradient_check(p32, patch, gt, loss_kind)
        assert report == gradient_check(p64, patch, gt, loss_kind)
        assert max(report.values()) < 1e-3


FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
DIMS = st.sampled_from([0, 1, 2, 3, 4, 8, 65536, 2**32 - 1])


@st.composite
def weights_files(draw):
    """Weights file bytes and whether they are valid: a network of drawn
    shape and finite float32 values; the six layers, each with its TINY_SHAPES
    dims or drawn ones and a payload of the size these call for or of drawn
    bytes, plus drawn trailing bytes; or drawn bytes after a header or none."""
    kind = draw(st.sampled_from(["valid", "layers", "bytes"]))
    if kind == "valid":
        k, h, g = (draw(st.integers(1, 3)) for _ in range(3))
        kw = draw(st.sampled_from([1, 3]))
        shapes = [(k, kw, kw, 3), (k,), (h, g * g * k), (h,), (3, h), (3,)]
        sizes = [math.prod(dims) for dims in shapes]
        return weights_bytes([
            (dims, np.array(draw(st.lists(FLOAT32, min_size=n, max_size=n)), "<f4").tobytes())
            for dims, n in zip(shapes, sizes)
        ], draw(st.integers(1, 2**32 - 1))), True
    if kind == "layers":
        layers = []
        for name in PARAM_LAYERS[: draw(st.integers(0, len(PARAM_LAYERS)))]:
            dims = draw(st.just(TINY_SHAPES[name]) | st.lists(DIMS, max_size=9).map(tuple))
            n = math.prod(dims)
            layers.append((dims, draw(st.binary(max_size=64)
                                      | st.just(bytes(4 * n) if n <= 1 << 10 else b""))))
        return weights_bytes(layers) + draw(st.binary(max_size=4)), False
    header = draw(st.sampled_from([b"", WEIGHTS_MAGIC, weights_bytes([])[:8], weights_bytes([])]))
    return header + draw(st.binary(max_size=64)), False


class TestWeightsFile:
    def test_save_load_save_bit_exact(self, tmp_path):
        params = toy_params(11)
        a, b = tmp_path / "a.ccnn", tmp_path / "b.ccnn"
        save_params(params, a)
        save_params(load_params(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_values_survive_at_float32(self, tmp_path):
        params = toy_params(12)
        path = tmp_path / "p.ccnn"
        save_params(params, path)
        back = load_params(path)
        for name in ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b"):
            want = getattr(params, name).astype(np.float32).astype(np.float64)
            assert np.array_equal(getattr(back, name), want)

    def test_load_keeps_the_float32_payload(self, tmp_path):
        path = tmp_path / "p.ccnn"
        save_params(toy_params(16), path)
        blob = path.read_bytes()
        back = load_params(path)
        assert back.dtype == np.float32
        pos = 12
        for name in PARAM_LAYERS:
            arr = getattr(back, name)
            assert arr.dtype == np.float32
            pos += 4 * (1 + arr.ndim)
            assert arr.astype("<f4").tobytes() == blob[pos : pos + 4 * arr.size]
            pos += 4 * arr.size
        assert pos == len(blob)

    @pytest.mark.parametrize("hyper", [TOY, SMALL, HyperParams(kernel_count=2, fc_units=2)],
                             ids=["toy", "small", "default"])
    def test_pool_size_and_patch_size_survive(self, tmp_path, hyper):
        params = init_params(hyper, 17)
        path = tmp_path / "p.ccnn"
        save_params(params, path)
        back = load_params(path)
        assert (back.pool_size, back.patch_size) == (hyper.pool_size, hyper.patch_size)
        assert path.read_bytes()[4:12] == struct.pack("<II", WEIGHTS_VERSION, hyper.pool_size)

    @pytest.mark.parametrize("blob, message, offset", [
        (WEIGHTS_MAGIC + struct.pack("<I", 1) + tiny_weights()[12:],
         "unsupported weights version 1", 4),
        (tiny_weights()[:8], "no pool size field", 8),
        (tiny_weights()[:10], "no pool size field", 8),
        (tiny_weights(pool_size=0), "pool size is 0", 8),
    ], ids=["version_1", "no_pool_field", "pool_field_cut", "pool_zero"])
    def test_header_faults_at_their_offset(self, tmp_path, blob, message, offset):
        path = tmp_path / "h.ccnn"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message) as info:
            load_params(path)
        assert info.value.offset == offset

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ccnn"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_params(path)

    def test_truncated(self, tmp_path):
        params = toy_params(13)
        path = tmp_path / "t.ccnn"
        save_params(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_params(path)

    def test_trailing_bytes_rejected_at_their_offset(self, tmp_path):
        path = tmp_path / "x.ccnn"
        save_params(toy_params(15), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing") as info:
            load_params(path)
        assert info.value.offset == size

    def test_roundtrip_inference_identical(self, tmp_path):
        hyper = HyperParams(patch_size=8, kernel_count=4, pool_size=4, fc_units=5,
                            dtype="float32")
        params = init_params(hyper, 14)
        path = tmp_path / "m.ccnn"
        save_params(params, path)
        back = load_params(path)
        patch = np.random.default_rng(18).uniform(0, 1, (1, 8, 8, 3))
        assert np.allclose(forward(back, patch), forward(params, patch), atol=1e-7)

    @settings(max_examples=150, deadline=None)
    @given(weights_files())
    @example((tiny_weights(conv_w=(65536,) * 4), False))  # 2**64 values wrap to 0 in int64
    @example((tiny_weights(conv_w=()), False))
    @example((tiny_weights(fc_w=(8,)), False))
    @example((tiny_weights(conv_w=(0, 1, 1, 3), conv_b=(0,)), False))
    @example((tiny_weights(conv_w=(2, 0, 0, 3)), False))
    @example((tiny_weights(fc_w=(4, 0)), False))
    @example((WEIGHTS_MAGIC + b"\x01", False))
    def test_round_trip_or_pipeline_error(self, case):
        data, valid = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "w.ccnn")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                params = load_params(path)
            except PipelineError:
                assert not valid
                return
            save_params(params, path)
            with open(path, "rb") as fh:
                assert fh.read() == data

