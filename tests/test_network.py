import math
import os
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patchcc.errors import (
    DegenerateEstimateError,
    FormatError,
    NumericFaultError,
    PipelineError,
    ShapeMismatchError,
)
from patchcc.image import normalize
from patchcc.network import (
    FUSED_BLOCK_BYTES,
    PARAM_LAYERS,
    WEIGHTS_MAGIC,
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
    load_params,
    maxpool_backward,
    maxpool_forward,
    save_params,
    sgd_step,
    zero_momentum,
)

from helpers import TINY_SHAPES, tiny_weights, weights_bytes

TOY = HyperParams(patch_size=8, kernel_count=4, pool_size=4, fc_units=5)


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

    def test_mixed_dtypes_match_reference(self):
        rng = np.random.default_rng(60)
        x = rng.integers(0, 257, (2, 8, 8, 3)) / 256
        w = rng.integers(-64, 65, (5, 1, 1, 3)) / 32
        b = rng.uniform(-1, 1, 5)  # the bias add is the one rounding step, alike in both
        for xd, wd, bd in ((np.float32, np.float32, np.float64),
                           (np.float64, np.float32, np.float32),
                           (np.float32, np.float64, np.float32)):
            args = (x.astype(xd), w.astype(wd), b.astype(bd))
            want, _, _ = reference_conv_pool(*args, 4)
            got, _ = conv1x1_pool_forward(*args, 4)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

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
        with pytest.raises(ShapeMismatchError):
            conv1x1_pool_forward(np.zeros((8, 8, 3)), np.zeros((2, 3, 3, 3)), np.zeros(2), 4)


DTYPE_TRIPLES = ((np.float32,) * 3, (np.float64,) * 3, (np.float32, np.float32, np.float64),
                 (np.float64, np.float32, np.float32), (np.float32, np.float64, np.float32))


def block_window_counts(k, pool, dtype):
    """Window counts below one inference block, exactly one and not a
    multiple of one, for K kernels and pool x pool windows."""
    step = max(1, FUSED_BLOCK_BYTES // (pool * pool * k * np.dtype(dtype).itemsize))
    return (1, step - 1, step, 2 * step + 5)


class TestConv1x1PoolBlocks:
    """The inference path reduces a block of pool windows at a time and adds
    the bias after the max; it must give the cached path's bits."""

    @pytest.mark.parametrize("xd,wd,bd", DTYPE_TRIPLES)
    def test_block_boundaries_with_a_rounding_bias(self, xd, wd, bd):
        rng = np.random.default_rng(70)
        k, pool = 240, 8
        out_dtype = np.result_type(xd, wd, bd)
        # dyadic x and w make every response exact, so the bias add is the one
        # rounding step; at about 1/eps the distinct responses of a channel
        # round to a few equal sums
        w = (rng.integers(-64, 65, (k, 1, 1, 3)) / 32).astype(wd)
        b = (rng.choice([-1, 1], k) * rng.uniform(0.5, 1, k) / np.finfo(out_dtype).eps).astype(bd)
        for windows in block_window_counts(k, pool, np.result_type(xd, wd)):
            for side in (8, 16):
                n = -(-windows // (side // pool) ** 2)
                x = (rng.integers(0, 257, (n, side, side, 3)) / 256).astype(xd)
                want, _, _ = reference_conv_pool(x, w, b, pool)
                cached, _ = conv1x1_pool_forward(x, w, b, pool)
                lean, cache = conv1x1_pool_forward(x, w, b, pool, need_cache=False)
                assert cache is None
                assert lean.dtype == want.dtype == out_dtype
                assert np.array_equal(lean, cached)
                assert np.array_equal(lean, want)
                if windows > 1:
                    biased, _ = conv_forward(x, w, b)
                    bare, _ = conv_forward(x, w, np.zeros_like(b))
                    assert np.unique(biased[..., 0]).size < np.unique(bare[..., 0]).size

    @pytest.mark.parametrize("k", [1, 240])
    @pytest.mark.parametrize("xd,wd,bd", DTYPE_TRIPLES)
    def test_block_boundaries_on_continuous_inputs(self, k, xd, wd, bd):
        # K = 1 runs gemv, whose rounding depends on the operands' layout
        rng = np.random.default_rng(71)
        pool = 8
        w = rng.standard_normal((k, 1, 1, 3)).astype(wd)
        b = rng.standard_normal(k).astype(bd)
        for windows in block_window_counts(k, pool, np.result_type(xd, wd)):
            x = rng.uniform(0, 1, (windows, 8, 8, 3)).astype(xd)
            cached, _ = conv1x1_pool_forward(x, w, b, pool)
            lean, _ = conv1x1_pool_forward(x, w, b, pool, need_cache=False)
            assert np.array_equal(lean, cached)

    def test_forward_equals_forward_cache_at_paper_shape(self):
        rng = np.random.default_rng(72)
        params = init_params(HyperParams(), 7)
        params = replace(params, conv_b=rng.standard_normal(params.kernel_count),
                         fc_b=rng.standard_normal(params.fc_units) * 0.1)
        x = rng.uniform(0, 1, (40, 32, 32, 3))
        est, _ = forward_cache(params, x)
        assert np.array_equal(forward(params, x), est)

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
        )
        assert np.allclose(forward(params, np.zeros((8, 8, 3))), 0.5)

    def test_kernel_permutation_symmetry(self):
        params = toy_params(seed=8)
        patch = np.random.default_rng(9).uniform(0, 1, (8, 8, 3))
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
                                fc_b=params.fc_b, out_w=params.out_w, out_b=params.out_b)
        assert np.max(np.abs(forward(swapped, patch) - base)) < 1e-12

    def test_batch_matches_single(self):
        params = toy_params(seed=10)
        rng = np.random.default_rng(11)
        batch = rng.uniform(0, 1, (5, 8, 8, 3))
        batched = forward(params, batch)
        singles = np.stack([forward(params, b) for b in batch])
        assert np.allclose(batched, singles, atol=1e-12)

    def test_wrong_patch_side_rejected(self):
        # toy weights imply a pooled side of 2; 9 is not a multiple of it
        with pytest.raises(ShapeMismatchError):
            forward(toy_params(), np.zeros((9, 9, 3)))

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

    def test_nonfinite_params_rejected(self):
        params = toy_params()
        bad = params.conv_w.copy()
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(NumericFaultError):
            replace(params, conv_w=bad)

    @pytest.mark.parametrize("shapes", [
        {"conv_w": ()}, {"fc_w": (8,)}, {"conv_w": (0, 1, 1, 3), "conv_b": (0,)},
        {"conv_w": (2, 0, 0, 3)}, {"fc_w": (4, 0)}, {"fc_w": (0, 2), "fc_b": (0,), "out_w": (3, 0)},
    ], ids=["conv_w_scalar", "fc_w_vector", "zero_kernels", "zero_kernel_width",
            "zero_fc_width", "zero_fc_units"])
    def test_misshapen_params_rejected(self, shapes):
        arrays = {name: np.zeros(shapes.get(name, dims)) for name, dims in TINY_SHAPES.items()}
        NetworkParams(**{name: np.zeros(dims) for name, dims in TINY_SHAPES.items()})
        with pytest.raises(ShapeMismatchError):
            NetworkParams(**arrays)


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
        patch = rng.uniform(0, 1, (8, 8, 3))
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
        ]), True
    if kind == "layers":
        layers = []
        for name in PARAM_LAYERS[: draw(st.integers(0, len(PARAM_LAYERS)))]:
            dims = draw(st.just(TINY_SHAPES[name]) | st.lists(DIMS, max_size=9).map(tuple))
            n = math.prod(dims)
            layers.append((dims, draw(st.binary(max_size=64)
                                      | st.just(bytes(4 * n) if n <= 1 << 10 else b""))))
        return weights_bytes(layers) + draw(st.binary(max_size=4)), False
    header = draw(st.sampled_from([b"", WEIGHTS_MAGIC, weights_bytes([])]))
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
        patch = np.random.default_rng(18).uniform(0, 1, (8, 8, 3))
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

