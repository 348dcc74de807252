import math
import tracemalloc

import numpy as np
import pytest

from patchcc.errors import (
    DegenerateEstimateError,
    NumericFaultError,
    ParameterError,
    PipelineError,
)
from patchcc.evaluation import angular_error
from patchcc.image import LinearImage, normalize
from oracles import (
    brute_force_response,
    dense_gaussian_2d,
    padded_gaussian_smooth,
    pixel_loop_derivative,
    wrapped_minkowski_response,
)

import patchcc.minkowski
from patchcc.minkowski import (
    MAX_SIGMA,
    STRIP_ROWS,
    EdgeFrameworkParams,
    derivative_magnitude,
    do_nothing,
    gaussian_kernel,
    gaussian_smooth,
    minkowski_estimate,
    minkowski_response,
    preset,
)

PRESET_TRIPLES = {
    "GW": (0, 1.0, 0.0),
    "WP": (0, math.inf, 0.0),
    "SoG": (0, 4.0, 0.0),
    "gGW": (0, 9.0, 9.0),
    "GE1": (1, 1.0, 6.0),
    "GE2": (2, 1.0, 1.0),
}


def random_data(shape, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=shape)


def random_image(shape, seed=0):
    return LinearImage(random_data(shape, seed))


# image sides: 1 and 2 (1xN, and every radius > side), up to 60 (radius < side
# for every sigma up to 9, whose radius is 27)
SIDES = (1, 2, 3, 7, 30, 60)
SIGMAS = (0.5, 1.0, 3.0, 6.0, 9.0)


def smooth(data, sigma):
    """Both smoothing passes over the whole array, then the clamp at 0."""
    out = gaussian_smooth(gaussian_smooth(data, sigma, 0), sigma, 1)
    return np.maximum(out, 0.0, out=out)


# --------------------------------------------------------------------------


class TestPresets:
    @pytest.mark.parametrize("name,triple", PRESET_TRIPLES.items())
    def test_table_values(self, name, triple):
        p = preset(name)
        assert (p.n, p.p, p.sigma) == triple

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ParameterError, match="GW"):
            preset("GM")


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(n=3, p=1.0, sigma=0.0),
        dict(n=0, p=0.0, sigma=0.0),
        dict(n=0, p=-2.0, sigma=0.0),
        dict(n=0, p=float("nan"), sigma=0.0),
        dict(n=0, p=1.0, sigma=-1.0),
        dict(n=1, p=1.0, sigma=0.0),
        dict(n=0, p=1.0, sigma=math.inf),
        dict(n=0, p=1.0, sigma=float("nan")),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            EdgeFrameworkParams(**kwargs)

    # numpy raised MemoryError (a 43.7 TiB kernel) and ValueError for these
    @pytest.mark.parametrize("sigma", [1e12, 1e300, np.nextafter(MAX_SIGMA, math.inf)])
    def test_sigma_whose_kernel_cannot_be_built(self, sigma):
        with pytest.raises(ParameterError, match="sigma"):
            EdgeFrameworkParams(0, 1.0, sigma)
        with pytest.raises(ParameterError, match="sigma"):
            gaussian_kernel(sigma)

    def test_largest_sigma_builds(self):
        assert EdgeFrameworkParams(1, 1.0, MAX_SIGMA).sigma == MAX_SIGMA
        assert len(gaussian_kernel(MAX_SIGMA)) == 2 * math.ceil(3 * MAX_SIGMA) + 1


class TestGaussianSmooth:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, 2 * MAX_SIGMA])
    def test_sigma_outside_range(self, sigma):
        with pytest.raises(ParameterError):
            gaussian_smooth(random_data((6, 6, 3)), sigma, 0)

    def test_constant_preserved(self):
        data = np.full((10, 12, 3), 0.37)
        for sigma in (0.5, 1.0, 3.0):
            out = smooth(data, sigma)
            assert np.max(np.abs(out - 0.37)) < 1e-9

    @pytest.mark.parametrize("sigma", [1.0, 9.0])
    def test_row_strip_is_rows_of_whole_pass(self, sigma):
        data = random_data((11, 20, 3), seed=1)
        whole = gaussian_smooth(data, sigma, 1)
        for first, last in ((0, 1), (0, 11), (3, 7), (10, 11)):
            strip = gaussian_smooth(data[first:last], sigma, 1)
            assert strip.tobytes() == whole[first:last].tobytes()

    def test_kernel_normalized(self):
        for sigma in (0.5, 1.0, 6.0, 9.0):
            k = gaussian_kernel(sigma)
            assert len(k) == 2 * math.ceil(3 * sigma) + 1
            assert k.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_bright_pixel_matches_dense_oracle(self):
        data = np.zeros((9, 9, 3))
        data[4, 4] = 1.0
        out = smooth(data, 1.0)
        expected = dense_gaussian_2d(data, 1.0)
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_matches_dense_oracle_with_large_radius(self):
        # radius exceeds the image size, exercising multi-bounce reflection
        data = random_data((6, 5, 3), seed=2)
        out = smooth(data, 3.0)
        expected = dense_gaussian_2d(data, 3.0)
        assert np.max(np.abs(out - expected)) < 1e-9

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_bytes_equal_padded_smoothing(self, sigma):
        for h in SIDES:
            for w in SIDES:
                data = random_data((h, w, 3), seed=10 * h + w)
                got = smooth(data, sigma)
                want = padded_gaussian_smooth(data, sigma)
                assert got.tobytes() == want.tobytes(), (h, w)


class TestDerivativeMagnitude:
    def test_order0_identity_on_nonnegative(self):
        data = random_data((5, 5, 3))
        assert np.array_equal(derivative_magnitude(data, 0), data)

    def test_order0_returns_the_input(self):
        data = random_data((5, 5, 3))
        assert derivative_magnitude(data, 0) is data

    def test_order1_flat_field(self):
        data = np.full((6, 6, 3), 0.5)
        assert np.max(derivative_magnitude(data, 1)) == 0.0

    def test_order1_ramp_interior(self):
        c = np.array([0.01, 0.02, 0.03])
        data = np.arange(8)[None, :, None] * c[None, None, :]
        data = np.broadcast_to(data, (6, 8, 3)).copy()
        out = derivative_magnitude(data, 1)
        interior = out[1:-1, 1:-1, :]
        for ch in range(3):
            assert np.allclose(interior[:, :, ch], c[ch], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_pixel_loop_oracle(self, n):
        data = random_data((7, 6, 3), seed=3)
        out = derivative_magnitude(data, n)
        expected = pixel_loop_derivative(data, n)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            derivative_magnitude(random_data((4, 4, 3)), 5)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("height", [1, 2, 5])
    def test_halo_strips_are_rows_of_whole_image(self, n, height):
        # a strip carries one neighbour row on each side that has one; the
        # image's own top and bottom rows are replicated
        data = random_data((height, 4, 3), seed=height)
        whole = derivative_magnitude(data, n)
        for top in range(height):
            for bottom in range(top + 1, height + 1):
                first, last = max(top - 1, 0), min(bottom + 1, height)
                got = derivative_magnitude(data[first:last], n, (top - first, last - bottom))
                assert got.tobytes() == whole[top:bottom].tobytes(), (top, bottom)


class TestMinkowskiEstimate:
    def test_gray_world_on_uniform_scene(self):
        img = LinearImage(np.broadcast_to([0.2, 0.4, 0.6], (8, 8, 3)).copy())
        est = minkowski_estimate(img, preset("GW"))
        assert np.allclose(est.rgb, normalize((0.2, 0.4, 0.6)).rgb, atol=1e-12)

    def test_white_point_takes_channel_max(self):
        data = np.array([[[0.1, 0.5, 0.2], [0.3, 0.2, 0.4]]])
        est = minkowski_estimate(LinearImage(data), preset("WP"))
        assert np.allclose(est.rgb, normalize((0.3, 0.5, 0.4)).rgb, atol=1e-12)

    def test_shades_of_gray_matches_bruteforce(self):
        img = random_image((8, 8, 3), seed=4)
        got = minkowski_response(img, preset("SoG"))
        expected = brute_force_response(img, preset("SoG"))
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_all_zero_response_is_degenerate(self):
        img = LinearImage(np.zeros((4, 4, 3)))
        with pytest.raises(DegenerateEstimateError):
            minkowski_estimate(img, preset("GW"))

    def test_gray_edge_on_flat_image_is_degenerate(self):
        img = LinearImage(np.full((8, 8, 3), 0.4))
        with pytest.raises(DegenerateEstimateError):
            minkowski_estimate(img, preset("GE1"))

    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    def test_overflow_is_a_pipeline_error(self, name):
        # finite pixels whose sums, differences or squares overflow to inf
        img = LinearImage(random_data((40, 40, 3), seed=11) * 1.7e308)
        expected = NumericFaultError if name in ("gGW", "GE1", "GE2") else PipelineError
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(expected):
            minkowski_estimate(img, preset(name))


class TestMatchesWrappedStages:
    """Byte equality with the response composed through `LinearImage` stages."""

    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    def test_response_bytes(self, name):
        for h in SIDES:
            for w in SIDES:
                img = random_image((h, w, 3), seed=100 * h + w)
                got = minkowski_response(img, preset(name))
                want = wrapped_minkowski_response(img, preset(name))
                assert got.tobytes() == want.tobytes(), (h, w)

    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    def test_negative_zero_channel(self, name):
        # -0.0 passes the nonnegativity check; np.abs made it +0.0
        data = random_data((6, 7, 3), seed=12)
        data[:, :, 1] = -0.0
        img = LinearImage(data)
        got = minkowski_response(img, preset(name))
        assert got.tobytes() == wrapped_minkowski_response(img, preset(name)).tobytes()
        assert not np.signbit(got[1])


class TestStrips:
    """The strip path against the whole-image stages of tests/oracles.py."""

    # strip boundaries: a one-row image, a two-row one (both rows are image
    # borders), one row short of a strip, a full one, one row over, and a
    # last strip of one row; widths 1, 3 and 26 are below the sigma-9 radius
    HEIGHTS = (1, 2, STRIP_ROWS - 1, STRIP_ROWS, STRIP_ROWS + 1, 2 * STRIP_ROWS + 1)
    WIDTHS = (1, 3, 26, 41)

    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    @pytest.mark.parametrize("height", HEIGHTS)
    def test_bytes_at_strip_boundaries(self, name, height):
        for w in self.WIDTHS:
            img = random_image((height, w, 3), seed=1000 * height + w)
            got = minkowski_response(img, preset(name))
            want = wrapped_minkowski_response(img, preset(name))
            assert got.tobytes() == want.tobytes(), w

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    def test_bytes_with_any_strip_height(self, monkeypatch, rows, name):
        monkeypatch.setattr(patchcc.minkowski, "STRIP_ROWS", rows)
        for h, w in ((1, 7), (2, 2), (3, 5), (4, 30), (10, 9), (29, 17)):
            img = random_image((h, w, 3), seed=10 * h + w)
            got = minkowski_response(img, preset(name))
            want = wrapped_minkowski_response(img, preset(name))
            assert got.tobytes() == want.tobytes(), (h, w)

    @pytest.mark.parametrize("rows", [1, STRIP_ROWS])
    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    def test_bytes_with_signed_zeros(self, monkeypatch, rows, name):
        # a channel of -0.0 only, one of +0.0 and -0.0 mixed, and one with
        # values: a reordered maximum of the mixed plane may be either zero,
        # and `+ 0.0` must make it the +0.0 that np.abs gives
        monkeypatch.setattr(patchcc.minkowski, "STRIP_ROWS", rows)
        for h, w in ((1, 1), (3, 5), (2 * STRIP_ROWS + 1, 9)):
            data = random_data((h, w, 3), seed=h + w)
            data[:, :, 0] = -0.0
            data[:, :, 1] = np.where(np.random.default_rng(h).random((h, w)) < 0.5, -0.0, 0.0)
            img = LinearImage(data)
            got = minkowski_response(img, preset(name))
            want = wrapped_minkowski_response(img, preset(name))
            assert got.tobytes() == want.tobytes(), (h, w)

    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    def test_bytes_at_full_size(self, name):
        # 2.16 million rows per channel sum, where a changed summation order
        # would show in the last bits
        img = random_image((1200, 1800, 3), seed=18)
        got = minkowski_response(img, preset(name))
        assert got.tobytes() == wrapped_minkowski_response(img, preset(name)).tobytes()

    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    def test_allocation_peak(self, name):
        # at most the axis-0 smoothing pass over the whole image plus a fixed
        # number of strip-sized arrays; the whole-image stages took up to
        # 5x the image's bytes (GE2)
        h, w = 600, 900
        img = random_image((h, w, 3), seed=19)
        strip_bytes = (STRIP_ROWS + 2) * (w + 2) * 3 * 8
        # the first call imports what the smoothing loads lazily (scipy.ndimage)
        minkowski_response(img, preset(name))
        tracemalloc.start()
        try:
            minkowski_response(img, preset(name))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full_size = img.data.nbytes if preset(name).sigma > 0 else 0
        assert peak <= full_size + 8 * strip_bytes, peak / img.data.nbytes


class TestDoNothing:
    def test_value(self):
        assert np.allclose(do_nothing().rgb, 0.57735026919, atol=1e-9)

    def test_zero_error_on_neutral(self):
        assert angular_error(do_nothing(), normalize((1, 1, 1))) == pytest.approx(0.0, abs=1e-9)

    def test_against_axis(self):
        # arccos(1/sqrt(3)) in degrees
        expected = math.degrees(math.acos(1 / math.sqrt(3)))
        assert angular_error(do_nothing(), (1, 0, 0)) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(54.7356, abs=1e-4)


class TestInvariants:
    @pytest.mark.parametrize("name", list(PRESET_TRIPLES))
    def test_exposure_invariance(self, name):
        img = random_image((10, 10, 3), seed=5)
        brighter = LinearImage(img.data * 0.5)  # power of two keeps scaling exact
        a = minkowski_estimate(img, preset(name)).rgb
        b = minkowski_estimate(brighter, preset(name)).rgb
        assert np.max(np.abs(a - b)) < 1e-12

    def test_self_consistency_gray_world(self):
        # scene built so the channel mean is proportional to a known illuminant
        rng = np.random.default_rng(6)
        base = rng.uniform(0.1, 0.9, size=(16, 16, 1))
        ill = normalize((0.7, 1.0, 0.5))
        img = LinearImage(base * ill.rgb[None, None, :] * 0.8)
        est = minkowski_estimate(img, preset("GW"))
        from patchcc.image import correct_von_kries

        corrected = correct_von_kries(img, est)
        residual = minkowski_estimate(corrected, preset("GW"))
        assert angular_error(residual, normalize((1, 1, 1))) < 0.2

    @pytest.mark.parametrize("p", [1.0, 4.0, 9.0])
    def test_infinity_norm_dominates(self, p):
        img = random_image((9, 9, 3), seed=7)
        finite = minkowski_response(img, EdgeFrameworkParams(0, p, 0.0))
        wp = minkowski_response(img, preset("WP"))
        assert np.all(wp >= finite - 1e-15)

    def test_p1_equals_mean_exactly(self):
        img = random_image((6, 7, 3), seed=8)
        est = minkowski_estimate(img, preset("GW"))
        oracle = normalize(img.data.reshape(-1, 3).mean(axis=0))
        assert np.array_equal(est.rgb, oracle.rgb)

    def test_repeat_runs_bit_stable(self):
        img = random_image((12, 12, 3), seed=9)
        for name in PRESET_TRIPLES:
            a = minkowski_estimate(img, preset(name)).rgb
            b = minkowski_estimate(img, preset(name)).rgb
            assert np.array_equal(a, b)
