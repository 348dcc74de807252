import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from patchcc import estimator, network
from patchcc.dataset import LabeledImage
from patchcc.errors import EstimationImpossibleError, ParameterError
from patchcc.estimator import (
    POOLINGS,
    estimate_image,
    fine_tune,
    fold_split,
    image_level_loss,
    pool_average,
    pool_median,
    prepared_patches,
    rectified_units,
    train,
    unit_estimates,
)
from patchcc.evaluation import angular_error, angular_error_many
from patchcc.image import Illuminant, LinearImage, normalize
from patchcc.localmap import estimate_local_map, filter_gaussian_3x3, filter_median_3x3
from patchcc.network import PARAM_LAYERS, HyperParams, forward, init_params
from patchcc.patches import ExclusionMask

import oracles
from helpers import (
    BOUNDARY_ROW,
    SMALL,
    TOY,
    bias_net,
    channel_max_net,
    exact_taps,
    make_synthetic_samples,
    textured_patch,
    tiled_image,
)
from openblas import openblas_threads


class TestUnitEstimates:
    def test_rows_are_rectified_unit_bit_for_bit(self):
        from dataclasses import replace

        img = LinearImage(np.random.default_rng(0).uniform(0.05, 1.0, (64, 96, 3)))
        params = replace(init_params(SMALL, 0), out_b=np.array([0.4, -0.5, 0.45]))
        batch = prepared_patches(img, 16)
        keep, units = unit_estimates(params, batch)
        all_raw = forward(params, batch.data)
        oracle_keep, oracle_norms, oracle_units = oracles.loop_rectified_units(all_raw)
        assert np.array_equal(keep, oracle_keep)
        assert np.array_equal(units, oracle_units)
        assert np.array_equal(rectified_units(all_raw)[1], oracle_norms)
        # a norm over axis 1 gives other last bits on some rows of this batch
        clamped = np.maximum(all_raw[keep], 0.0)
        assert not np.array_equal(units, clamped / np.linalg.norm(clamped, axis=1, keepdims=True))

    def test_row_at_the_threshold_is_dropped_not_fatal(self, monkeypatch):
        raw = np.array([[0.2, 0.4, 0.9], BOUNDARY_ROW])
        monkeypatch.setattr(estimator, "forward", lambda params, x: raw.copy())
        assert np.linalg.norm(raw, axis=1)[1] == estimator.DIRECTION_FREE_NORM
        oracle_keep, _, oracle_units = oracles.loop_rectified_units(raw)
        assert oracle_keep.tolist() == [True, False]
        img = LinearImage(np.random.default_rng(14).uniform(0.1, 1.0, (8, 16, 3)))
        batch = prepared_patches(img, 8)
        keep, units = unit_estimates(bias_net(), batch)
        assert keep.tolist() == [True, False]
        assert np.array_equal(units, oracle_units)
        assert batch.origins[keep].tolist() == [[0, 0]]
        assert batch.degenerate + (~keep).sum() == 1
        pooled = estimate_image(bias_net(), img)
        assert np.array_equal(pooled.rgb, pool_median(oracle_units).rgb)

    def test_rectified_units_matches_loop_oracle(self):
        rng = np.random.default_rng(15)
        raw = rng.standard_normal((500, 3)) * np.exp(rng.uniform(-25, 25, (500, 1)))
        raw[:3] = [[-1.0, -2.0, -3.0], [0.0, 0.0, 0.0], BOUNDARY_ROW]
        for got, want in zip(rectified_units(raw), oracles.loop_rectified_units(raw)):
            assert np.array_equal(got, want)


def patch_units(params, img):
    """The unit estimates that `estimate_image` pools for `img`."""
    return unit_estimates(params, prepared_patches(img, params.patch_size))[1]


class TestEstimatePatch:
    """Per-patch estimates: the `unit_estimates` rows of one-patch images."""

    def test_bias_network_gives_neutral(self):
        img = textured_patch(np.random.default_rng(0), (0.5, 0.7, 0.3))
        units = patch_units(bias_net(), img)
        assert units.shape == (1, 3)
        assert np.allclose(units, 1 / np.sqrt(3), atol=1e-12)
        assert np.allclose(estimate_image(bias_net(), img).rgb, units[0], atol=1e-12)

    def test_scale_of_prestretch_patch_is_absorbed(self):
        rng = np.random.default_rng(1)
        params = init_params(TOY, 2)
        raw = textured_patch(rng, (0.6, 0.5, 0.8))
        scaled = LinearImage(raw.data * 0.3)
        a = patch_units(params, raw)
        b = patch_units(params, scaled)
        assert np.allclose(a, b, atol=1e-12)

    def test_equals_normalized_forward(self):
        rng = np.random.default_rng(3)
        params = bias_net((0.2, 0.4, 0.9))  # positive outputs, rectification inert
        img = textured_patch(rng, (0.5, 0.5, 0.5))
        data = prepared_patches(img, 8).data
        oracle = normalize(forward(params, data[:1])[0])
        assert np.array_equal(patch_units(params, img)[0], oracle.rgb)
        assert np.array_equal(forward(params, data)[0], [0.2, 0.4, 0.9])

    def test_degenerate_patch_rejected(self):
        flat = LinearImage(np.full((8, 8, 3), 0.5))
        with pytest.raises(EstimationImpossibleError):
            prepared_patches(flat, 8)
        with pytest.raises(EstimationImpossibleError):
            estimate_image(bias_net(), flat)

    def test_negative_output_rectified(self):
        img = textured_patch(np.random.default_rng(4), (0.5, 0.6, 0.7))
        params = bias_net((-0.5, 0.8, 0.6))
        units = patch_units(params, img)
        assert units[0, 0] == 0.0
        assert np.linalg.norm(units[0]) == pytest.approx(1.0, abs=1e-12)
        assert forward(params, prepared_patches(img, 8).data)[0, 0] == -0.5

    def test_all_negative_output_degenerate(self):
        img = textured_patch(np.random.default_rng(5), (0.5, 0.6, 0.7))
        with pytest.raises(EstimationImpossibleError):
            rectified_units(np.array([[-1.0, -1.0, -1.0]]))
        with pytest.raises(EstimationImpossibleError):
            estimate_image(bias_net((-1.0, -1.0, -1.0)), img)


class TestPooling:
    def test_average_identical(self):
        ill = normalize((0.2, 0.9, 0.4))
        assert np.allclose(pool_average(np.stack([ill.rgb] * 3)).rgb, ill.rgb, atol=1e-12)

    def test_average_two_axes(self):
        out = pool_average(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert np.allclose(out.rgb, [np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-12)

    def test_average_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        units = np.stack([normalize(rng.uniform(0.1, 1, 3)).rgb for _ in range(17)])
        mean = np.zeros(3)
        for row in units:
            mean += row
        mean /= len(units)
        assert np.allclose(pool_average(units).rgb, normalize(mean).rgb, atol=1e-12)

    def test_median_single(self):
        ill = normalize((0.3, 0.3, 0.9))
        assert np.array_equal(pool_median(ill.rgb[None, :]).rgb, ill.rgb)

    def test_median_majority(self):
        a, b = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
        assert np.array_equal(pool_median(np.array([a, a, b])).rgb, a)

    def test_median_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        rows = np.stack([normalize(rng.uniform(0.1, 1, 3)).rgb for _ in range(100)])
        med = np.array([np.sort(rows[:, c])[[49, 50]].mean() for c in range(3)])
        assert np.allclose(pool_median(rows).rgb, normalize(med).rgb, atol=1e-12)

    def test_median_outlier_resistance_exact(self):
        e = np.array([0.6, 0.8, 0.0])
        rng = np.random.default_rng(8)
        outliers = [normalize(rng.uniform(0.1, 1, 3)).rgb for _ in range(3)]
        units = np.stack([e] * 4 + outliers)  # 2k+1 = 7, k = 3
        assert np.array_equal(pool_median(units).rgb, e)

    def test_poolings_agree_on_identical(self):
        units = np.stack([normalize((0.5, 0.7, 0.2)).rgb] * 5)
        assert np.array_equal(pool_average(units).rgb, pool_median(units).rgb)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            pool_average(np.empty((0, 3)))
        with pytest.raises(ParameterError):
            pool_median(np.empty((0, 3)))


class TestEstimateImage:
    def test_uniform_chromaticity_pooled_equals_patch(self):
        rng = np.random.default_rng(9)
        texture = rng.uniform(0.3, 1.0, size=(32, 32))
        img = tiled_image(texture, (0.7, 0.5, 0.9))
        params = channel_max_net()
        units = patch_units(params, img)
        assert len(units) == 9
        assert np.allclose(units, units[0], atol=1e-12)
        pooled = estimate_image(params, img, pooling="median")
        assert np.allclose(pooled.rgb, units[0], atol=1e-12)

    def test_patch_count_1200x800(self):
        rng = np.random.default_rng(10)
        img = LinearImage(rng.uniform(0.1, 1.0, size=(800, 1200, 3)))
        params = bias_net((1, 1, 1), replace(TOY, patch_size=32, pool_size=16))
        batch = prepared_patches(img, 32)
        keep, units = unit_estimates(params, batch)
        assert units.shape == forward(params, batch.data).shape == (37 * 25, 3)
        assert batch.origins[keep].shape == (37 * 25, 2)

    def test_crafted_outlier_median_vs_average(self):
        rng = np.random.default_rng(11)
        texture = rng.uniform(0.4, 1.0, size=(32, 32))
        base = (0.6, 0.55, 0.5)
        clean = tiled_image(texture, base)
        corrupted = clean.data.copy()
        corrupted[32:64, 32:64, :] = texture[:, :, None] * np.array([0.05, 0.9, 0.1])
        corrupted = LinearImage(corrupted)
        params = channel_max_net()
        clean_est = estimate_image(params, clean, "median")
        med = estimate_image(params, corrupted, "median")
        avg = estimate_image(params, corrupted, "average")
        assert angular_error(med, clean_est) < 0.5
        assert angular_error(avg, clean_est) > angular_error(med, clean_est)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        img = LinearImage(rng.uniform(0, 1, (64, 64, 3)))
        params = init_params(HyperParams(patch_size=32, kernel_count=8, pool_size=8,
                                         fc_units=6), 1)
        a = estimate_image(params, img, "median")
        b = estimate_image(params, img, "median")
        assert isinstance(a, Illuminant) and np.array_equal(a.rgb, b.rgb)
        batch_a, batch_b = prepared_patches(img, 32), prepared_patches(img, 32)
        (keep_a, units_a), (keep_b, units_b) = (
            unit_estimates(params, batch_a), unit_estimates(params, batch_b))
        assert np.array_equal(batch_a.origins[keep_a], batch_b.origins[keep_b])
        assert np.array_equal(units_a, units_b)

    def test_all_flat_image_impossible(self):
        img = LinearImage(np.full((64, 64, 3), 0.5))
        with pytest.raises(EstimationImpossibleError):
            estimate_image(bias_net(), img)

    def test_degenerate_count_reported(self):
        rng = np.random.default_rng(13)
        data = rng.uniform(0.2, 0.8, (32, 64, 3))
        data[:, 32:, :] = 0.5  # right patch is flat
        batch = prepared_patches(LinearImage(data), 32)
        params = bias_net((1, 1, 1), replace(TOY, patch_size=32, pool_size=16))
        keep, _ = unit_estimates(params, batch)
        assert batch.degenerate + (~keep).sum() == 1
        assert batch.origins[keep].tolist() == [[0, 0]]


class TestTrain:
    def test_three_folds_three_models(self):
        samples = make_synthetic_samples()
        result = train(samples, [0, 1, 2], SMALL)
        assert sorted(result.models) == [0, 1, 2]
        # every image belongs to exactly one test fold
        for s in samples:
            assert sum(1 for k in result.models if s.fold == k) == 1

    def test_learning_beats_do_nothing_on_validation(self):
        samples = make_synthetic_samples(count=12, size=64, seed=3)
        result = train(samples, [0], SMALL)
        val_fold = 2
        val = [s for s in samples if s.fold == val_fold]
        from patchcc.minkowski import do_nothing

        dn_mean = np.mean([angular_error(do_nothing(), s.illuminant) for s in val])
        last_val = [r for r in result.log if r.get("split") == "val"][-1]
        assert last_val["angular_mean"] < dn_mean

    def test_log_contract(self):
        samples = make_synthetic_samples()
        result = train(samples, [1], SMALL)
        splits = {r["split"] for r in result.log}
        assert {"train", "val"} <= splits
        train_recs = [r for r in result.log if r["split"] == "train"]
        assert all("loss" in r and "epoch" in r and r["fold"] == 1 for r in train_recs)

    def test_missing_fold_rejected(self):
        samples = [s for s in make_synthetic_samples() if s.fold != 2]
        with pytest.raises(ParameterError):
            train(samples, [0], SMALL)

    @pytest.mark.parametrize("k", [-1, 3, 5])
    def test_fold_split_rejects_a_fold_outside_0_to_2(self, k):
        with pytest.raises(ParameterError, match=f"got {k}"):
            fold_split(k)

    def test_fold_split_is_the_next_two_folds(self):
        assert [fold_split(k) for k in range(3)] == [(1, 2), (2, 0), (0, 1)]

    @pytest.mark.parametrize("folds", [[0, 0], [0, 3]])
    def test_folds_checked_before_training(self, folds, monkeypatch):
        # neither a repeated fold nor one outside 0-2 trains the folds before it
        monkeypatch.setattr(estimator, "training_patch_arrays", None)
        with pytest.raises(ParameterError):
            train(make_synthetic_samples(), folds, SMALL)

    def test_deterministic_given_seed(self):
        samples = make_synthetic_samples()
        a = train(samples, [0], SMALL).models[0]
        b = train(samples, [0], SMALL).models[0]
        for name in ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def training_samples():
    """Three images for the patch sampler: one half flat, so that some of
    its patches are dropped; one with its left part masked out; and one
    1300 px wide, which is resized to 1200 px first."""
    rng = np.random.default_rng(41)
    half_flat = rng.uniform(0.05, 0.9, size=(48, 64, 3))
    half_flat[:, :40] = 0.3
    masked = rng.uniform(0.05, 0.9, size=(48, 48, 3))
    wide = rng.uniform(0.05, 0.9, size=(40, 1300, 3))
    return [
        LabeledImage("half_flat", LinearImage(half_flat), normalize((0.8, 1.0, 0.6)), 0),
        LabeledImage("masked", LinearImage(masked), normalize((0.5, 1.0, 0.9)), 0,
                     mask=ExclusionMask.from_rects([(0, 0, 30, 48)])),
        LabeledImage("wide", LinearImage(wide), normalize((1.0, 1.0, 0.7)), 0),
    ]


class TestTrainingPatchArrays:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_equals_float64_concatenation_then_cast(self, dtype):
        from dataclasses import replace

        hyper = replace(SMALL, dtype=dtype, patches_per_image=40)
        samples = training_samples()
        x, y = estimator.training_patch_arrays(samples, hyper)
        expected_x, expected_y = oracles.concatenate_then_cast_training_patches(samples, hyper)
        assert x.dtype == np.dtype(dtype) and y.dtype == np.float64
        assert x.shape == expected_x.shape and x.tobytes() == expected_x.tobytes()
        assert y.tobytes() == expected_y.tobytes()
        assert len(x) < 3 * 40  # the half-flat image lost some patches

    def test_float32_peak_is_twice_the_patches(self):
        # two float64 copies of all the patches would be four times the
        # float32 result
        from dataclasses import replace

        hyper = replace(SMALL, dtype="float32", patches_per_image=200)
        samples = make_synthetic_samples(count=12, size=64, seed=42)
        tracemalloc.start()
        try:
            x, _ = estimator.training_patch_arrays(samples, hyper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(x) == 12 * 200
        patch_bytes = x.size * 4  # the float32 patches the network reads
        one_image_float64 = hyper.patches_per_image * x[0].size * 8
        assert peak <= 2 * patch_bytes + 2 * one_image_float64

    def test_float32_peak_is_the_result_and_one_image(self):
        # the float32 rows and float64 labels allocated for every sample,
        # plus one image's float64 samples twice: the gather, and a copy of
        # its kept patches when some are flat. Concatenating per-image arrays
        # would hold the result twice.
        from dataclasses import replace

        hyper = replace(SMALL, dtype="float32", patches_per_image=200)
        samples = make_synthetic_samples(count=12, size=64, seed=42)
        half_flat = samples[0].image.data.copy()
        half_flat[:, :40] = 0.3
        samples.append(LabeledImage("half_flat", LinearImage(half_flat), samples[0].illuminant, 0))
        tracemalloc.start()
        try:
            x, y = estimator.training_patch_arrays(samples, hyper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = len(samples) * hyper.patches_per_image
        assert 12 * 200 < len(x) < rows  # the half-flat image lost some patches
        one_image_float64 = hyper.patches_per_image * x[0].size * 8
        assert peak <= rows * (x[0].nbytes + y[0].nbytes) + 2 * one_image_float64


class TestValidationPatchArrays:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cap", [1, 30, 75, 1024])
    def test_equals_stretching_every_patch_then_drawing(self, dtype, cap):
        # a half-flat image, a masked one and a resized one; 1024 draws none
        hyper = replace(SMALL, dtype=dtype, patches_per_image=40)
        samples = training_samples()
        x, y = estimator.validation_patch_arrays(samples, hyper, cap, [3, 0, 2])
        expected_x, expected_y = oracles.stretch_all_then_draw_validation_patches(
            samples, hyper, cap, [3, 0, 2])
        assert len(estimator.training_patch_arrays(samples, hyper)[0]) < 3 * 40
        assert x.dtype == np.dtype(dtype) and y.dtype == np.float64
        assert x.shape == expected_x.shape and x.tobytes() == expected_x.tobytes()
        assert y.tobytes() == expected_y.tobytes()

    def test_a_fold_of_flat_images_has_no_patches(self):
        flat = LabeledImage("flat", LinearImage(np.full((40, 40, 3), 0.4)),
                            normalize((1.0, 1.0, 1.0)), 0)
        with pytest.raises(EstimationImpossibleError, match="no usable training patches"):
            estimator.validation_patch_arrays([flat, flat], SMALL, 10, 0)

    def test_stretches_only_the_drawn_patches(self, monkeypatch):
        rows = []
        stretch_into = estimator.stretch_into
        monkeypatch.setattr(estimator, "stretch_into",
                            lambda data, out: rows.append(len(data)) or stretch_into(data, out))
        estimator.validation_patch_arrays(training_samples(), SMALL, 30, 0)
        assert sum(rows) == 30

    def test_float32_peak_is_the_result_and_one_image(self):
        # the float32 rows drawn and their labels, the last image's float64
        # samples, and one image's drawn samples with their stretch; every
        # patch stretched first, or a float64 array of all the drawn ones,
        # would be more
        hyper = replace(SMALL, dtype="float32", patches_per_image=200)
        samples = make_synthetic_samples(count=12, size=64, seed=42)
        # the first call imports what numpy loads lazily
        estimator.validation_patch_arrays(samples, hyper, 1000, 0)
        tracemalloc.start()
        try:
            x, y = estimator.validation_patch_arrays(samples, hyper, 1000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(x) == 1000
        one_image_float64 = hyper.patches_per_image * x[0].size * 8
        assert peak <= x.nbytes + y.nbytes + 3 * one_image_float64

    def test_peak_does_not_grow_with_the_count_of_resized_images(self):
        # only the origins of a resized image's patches are kept, as of an
        # image at its own size; its float64 samples would take 2.34 MiB
        hyper = replace(SMALL, dtype="float32", patch_size=32, patches_per_image=100)
        rng = np.random.default_rng(44)
        samples = [LabeledImage(f"wide{i}", LinearImage(rng.uniform(0.05, 0.9, (48, 1300, 3))),
                                normalize((1.0, 0.9, 0.7)), 0) for i in range(8)]

        def peak(images):
            tracemalloc.start()
            try:
                estimator.validation_patch_arrays(images, hyper, 50, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the first call imports what numpy loads lazily
        estimator.validation_patch_arrays(samples[:2], hyper, 50, 0)
        assert peak(samples) <= peak(samples[:2]) + 2**20


def wide_masked_samples():
    """Two masked images that training resizes: a 2400x400 one with its right
    half masked, and a 1900x700 one with scattered rectangles, two of them
    thinner than the source span of one resized pixel."""
    rng = np.random.default_rng(43)
    return [
        LabeledImage("halves", LinearImage(rng.uniform(0.05, 0.9, (400, 2400, 3))),
                     normalize((0.8, 1.0, 0.6)), 0,
                     mask=ExclusionMask.from_rects([(1200, 0, 1200, 400)])),
        LabeledImage("scattered", LinearImage(rng.uniform(0.05, 0.9, (700, 1900, 3))),
                     normalize((0.5, 1.0, 0.9)), 0,
                     mask=ExclusionMask.from_rects([(100, 50, 300, 200), (901, 0, 1, 700),
                                                    (0, 433, 1900, 1), (1500, 300, 120, 90)])),
    ]


def repainted_masks(samples, seed):
    """The samples with every pixel under their exclusion rectangles
    redrawn."""
    rng = np.random.default_rng(seed)
    repainted = []
    for sample in samples:
        data = sample.image.data.copy()
        for x, y, w, h in sample.mask.rects:
            data[y : y + h, x : x + w] = rng.uniform(0.0, 1.0, (h, w, 3))
        repainted.append(replace(sample, image=LinearImage(data)))
    return repainted


class TestMaskedResizedImages:
    """Exclusion rectangles are given in the image's own pixels; training
    samples the image resized to 1200 px."""

    BUILDERS = {
        "training": estimator.training_patch_arrays,
        "validation": lambda samples, hyper: estimator.validation_patch_arrays(
            samples, hyper, 150, 0),
    }

    @pytest.mark.parametrize("build", list(BUILDERS))
    def test_every_patch_footprint_misses_every_rectangle(self, build, monkeypatch):
        drawn = []
        sample_random_patches = estimator.sample_random_patches

        def recorded(img, *args, **kwargs):
            batch = sample_random_patches(img, *args, **kwargs)
            drawn.append(((img.width, img.height), batch.origins))
            return batch

        monkeypatch.setattr(estimator, "sample_random_patches", recorded)
        samples, hyper = wide_masked_samples(), replace(SMALL, patches_per_image=200)
        self.BUILDERS[build](samples, hyper)
        assert [size for size, _ in drawn] == [(1200, 200), (1200, 442)]
        last = hyper.patch_size - 1
        for sample, ((out_w, out_h), origins) in zip(samples, drawn):
            assert len(origins) == 200
            lo_x, hi_x = exact_taps(sample.image.width, out_w)
            lo_y, hi_y = exact_taps(sample.image.height, out_h)
            for ox, oy in origins.tolist():
                # the source pixels the patch reads, first to last
                x0, x1, y0, y1 = lo_x[ox], hi_x[ox + last], lo_y[oy], hi_y[oy + last]
                for rx, ry, rw, rh in sample.mask.rects:
                    assert x1 < rx or rx + rw <= x0 or y1 < ry or ry + rh <= y0

    @pytest.mark.parametrize("build", list(BUILDERS))
    def test_patches_do_not_depend_on_masked_pixels(self, build):
        samples, hyper = wide_masked_samples(), replace(SMALL, patches_per_image=200)
        x, y = self.BUILDERS[build](samples, hyper)
        x_repainted, y_repainted = self.BUILDERS[build](repainted_masks(samples, 45), hyper)
        assert x.tobytes() == x_repainted.tobytes() and y.tobytes() == y_repainted.tobytes()


class TestMaskedFineTuning:
    """Fine-tuning trains on the tiles of each image resized to 1200 px
    that miss its exclusion rectangles; validation keeps every tile."""

    TUNE = replace(SMALL, learning_rate=1e-3, momentum=0.0, epochs=1)

    @staticmethod
    def model():
        return replace(init_params(SMALL, 46), out_b=np.array([0.4, 0.5, 0.45]))

    @staticmethod
    def trained_batches(monkeypatch):
        """The batches of the image-level steps from now on."""
        batches = []
        image_level_loss = estimator.image_level_loss

        def recorded(params, batch, *args, **kwargs):
            batches.append(batch)
            return image_level_loss(params, batch, *args, **kwargs)

        monkeypatch.setattr(estimator, "image_level_loss", recorded)
        return batches

    def test_every_trained_tile_misses_every_rectangle(self, monkeypatch):
        batches = self.trained_batches(monkeypatch)
        size, last = SMALL.patch_size, SMALL.patch_size - 1
        for sample, (out_w, out_h) in zip(wide_masked_samples(), [(1200, 200), (1200, 442)]):
            fine_tune(self.model(), [sample], self.TUNE)
            (batch,) = batches[-1:]
            lo_x, hi_x = exact_taps(sample.image.width, out_w)
            lo_y, hi_y = exact_taps(sample.image.height, out_h)
            clear = []
            for oy in range(0, out_h - last, size):
                for ox in range(0, out_w - last, size):
                    # the source pixels the tile reads, first to last
                    x0, x1, y0, y1 = lo_x[ox], hi_x[ox + last], lo_y[oy], hi_y[oy + last]
                    if all(x1 < rx or rx + rw <= x0 or y1 < ry or ry + rh <= y0
                           for rx, ry, rw, rh in sample.mask.rects):
                        clear.append([ox, oy])
            # every tile has contrast, so the clear ones are all kept
            assert 0 < len(clear) < (out_w // size) * (out_h // size)
            assert batch.origins.tolist() == clear
            full = prepared_patches(sample.image, size)
            at = [full.origins.tolist().index(o) for o in clear]
            assert batch.data.tobytes() == full.data[at].tobytes()

    def test_tuned_weights_do_not_depend_on_masked_pixels(self):
        samples = wide_masked_samples()
        tuned = fine_tune(self.model(), samples, self.TUNE)
        again = fine_tune(self.model(), repainted_masks(samples, 47), self.TUNE)
        assert not np.array_equal(tuned.conv_w, self.model().conv_w)
        for name in PARAM_LAYERS:
            assert getattr(tuned, name).tobytes() == getattr(again, name).tobytes()

    def test_unmasked_and_validation_images_keep_every_tile(self, monkeypatch):
        batches = self.trained_batches(monkeypatch)
        prepared = []

        def recorded(img, *args, **kwargs):
            prepared.append(prepared_patches(img, *args, **kwargs))
            return prepared[-1]

        monkeypatch.setattr(estimator, "prepared_patches", recorded)
        masked = wide_masked_samples()[0]
        unmasked = replace(masked, mask=ExclusionMask())
        fine_tune(self.model(), [unmasked], self.TUNE, val_dataset=[masked])
        # the training image's tiles, then the validation image's
        assert batches == prepared[:1] and len(prepared) == 2
        assert len(prepared[1]) == len(prepared[0]) == 75 * 12

    def test_image_with_every_tile_masked_raises(self):
        sample = wide_masked_samples()[0]
        covered = replace(sample, mask=ExclusionMask.from_rects([(0, 0, 2400, 400)]))
        with pytest.raises(EstimationImpossibleError, match="exclusion"):
            fine_tune(self.model(), [covered], self.TUNE)


# at each thread count in argv[1] (comma-separated), prints a digest of
# `image_level_loss`'s gradients over n random patches, for each n in the rest
# of argv and each dtype. Where numpy bundles an OpenBLAS, which importing
# patchcc pins to one thread, the count is set through the library after the
# import; elsewhere `OPENBLAS_NUM_THREADS` sets it, one count per process.
# Average pooling gives every patch a gradient; median pooling routes it to a
# few patches, whose sum no thread split reorders.
GRADIENT_DIGESTS = """
import hashlib, sys
from dataclasses import replace
import numpy as np
from openblas import openblas_threads
from patchcc.estimator import image_level_loss
from patchcc.image import normalize
from patchcc.network import PARAM_LAYERS, HyperParams, init_params
from patchcc.patches import PatchBatch
bundled = openblas_threads()
for threads in map(int, sys.argv[1].split(",")):
    if bundled is not None:
        set_threads, get_threads = bundled
        set_threads(threads)
        assert get_threads() == threads
    for n in map(int, sys.argv[2:]):
        for dtype in ("float64", "float32"):
            hyper = HyperParams(patch_size=16, kernel_count=16, pool_size=4, fc_units=16,
                                dtype=dtype)
            rng = np.random.default_rng(n)
            # biases that keep most estimates positive, so few are dropped
            params = replace(init_params(hyper, n), fc_b=np.full(16, 0.1, dtype),
                             out_b=np.ones(3, dtype))
            batch = PatchBatch(rng.uniform(0, 1, (n, 16, 16, 3)), np.zeros((n, 2), dtype=int))
            _, grads = image_level_loss(params, batch, normalize((0.8, 1.0, 0.6)), "average")
            data = b"".join(getattr(grads, name).tobytes() for name in PARAM_LAYERS)
            print(threads, n, dtype, hashlib.sha1(data).hexdigest())
"""


class TestFineTune:
    def test_gradients_are_the_same_bytes_on_one_and_two_blas_threads(self):
        # the FC weight gradient sums over an image's patches, and OpenBLAS
        # splits a long sum over its threads, rounding by their number. The
        # package pins the OpenBLAS numpy bundles; this guards that one set
        # after the import, and a BLAS it cannot pin through its variable
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.dirname(os.path.dirname(estimator.__file__)), here])

        def digests(threads, env):
            return subprocess.run(
                [sys.executable, "-c", GRADIENT_DIGESTS, threads, "413", "925", "2072"],
                env={**os.environ, "PYTHONPATH": path, **env},
                capture_output=True, text=True, check=True).stdout.splitlines()

        if openblas_threads() is not None:
            lines = digests("1,2", {})
        else:
            lines = (digests("1", {"OPENBLAS_NUM_THREADS": "1"})
                     + digests("2", {"OPENBLAS_NUM_THREADS": "2"}))
        by_threads = {threads: [line.split(" ", 1)[1] for line in lines
                                if line.split()[0] == threads]
                      for threads in ("1", "2")}
        assert len(by_threads["1"]) == 6
        assert by_threads["1"] == by_threads["2"]

    def test_zero_learning_rate_identity(self):
        from dataclasses import replace

        samples = make_synthetic_samples()
        # strictly positive outputs mimic a pretrained net (fine_tune's precondition)
        base = init_params(SMALL, 5)
        params = replace(base, conv_w=0.01 * base.conv_w, out_b=np.array([0.5, 0.5, 0.5]))
        frozen = fine_tune(
            params, samples,
            HyperParams(patch_size=16, kernel_count=8, pool_size=4, fc_units=8,
                        learning_rate=0.0, momentum=0.9, weight_decay=0.0,
                        epochs=2, seed=1),
        )
        for name in ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b"):
            assert np.array_equal(getattr(frozen, name), getattr(params, name))

    def test_single_image_descent(self):
        samples = make_synthetic_samples(count=3, size=48, seed=6)
        sample = samples[0]
        params = init_params(SMALL, 6)
        batch = prepared_patches(sample.image, SMALL.patch_size)
        before, _ = image_level_loss(params, batch, sample.illuminant, "median")
        tuned = fine_tune(
            params, [sample],
            HyperParams(patch_size=16, kernel_count=8, pool_size=4, fc_units=8,
                        learning_rate=0.005, momentum=0.9, weight_decay=0.0,
                        epochs=50, seed=2),
        )
        after, _ = image_level_loss(tuned, batch, sample.illuminant, "median")
        assert after < before

    def test_objective_consistency_with_estimate_image(self):
        from dataclasses import replace

        samples = make_synthetic_samples(count=3, size=48, seed=7)
        sample = samples[1]
        params = replace(init_params(SMALL, 8), out_b=np.array([0.4, 0.5, 0.45]))
        log = []
        fine_tune(
            params, [sample],
            HyperParams(patch_size=16, kernel_count=8, pool_size=4, fc_units=8,
                        learning_rate=0.0, momentum=0.0, weight_decay=0.0,
                        epochs=1, seed=3),
            pooling="median", log=log,
        )
        logged = [r for r in log if "loss_deg" in r][0]["loss_deg"]
        pooled = estimate_image(params, sample.image, "median")
        reference = angular_error(pooled, sample.illuminant)
        assert logged == pytest.approx(reference, abs=1e-9)

    def test_image_loss_rejects_unknown_pooling_first(self):
        from dataclasses import replace

        from patchcc.patches import PatchBatch

        # an empty batch would fail in the network, and a flat image in
        # fine_tune's patch preparation, both after the check
        empty = PatchBatch(np.zeros((0, 8, 8, 3)), np.zeros((0, 2), dtype=int))
        with pytest.raises(ParameterError, match="pooling"):
            image_level_loss(bias_net(), empty, normalize((1, 1, 1)), "mean")
        flat = make_synthetic_samples(count=1, size=16, seed=1)[0]
        flat = replace(flat, image=LinearImage(np.full((16, 16, 3), 0.5)))
        with pytest.raises(ParameterError, match="pooling"):
            fine_tune(bias_net(), [flat], TOY, pooling="mean")

    def test_image_loss_gradient_matches_finite_differences(self):
        from dataclasses import replace

        samples = make_synthetic_samples(count=1, size=32, seed=9)
        sample = samples[0]
        params = init_params(SMALL, 10)
        params = replace(params, out_b=np.array([0.5, 0.55, 0.6]))
        batch = prepared_patches(sample.image, SMALL.patch_size)
        _, grads = image_level_loss(params, batch, sample.illuminant, "median")
        step = 1e-5
        rng = np.random.default_rng(0)
        for layer in ("conv_w", "fc_w", "out_w"):
            arr = getattr(params, layer).copy()
            flat_idx = rng.choice(arr.size, size=6, replace=False)
            for fi in flat_idx:
                idx = np.unravel_index(fi, arr.shape)
                bump = arr.copy()
                bump[idx] += step
                up, _ = image_level_loss(replace(params, **{layer: bump}),
                                         batch, sample.illuminant, "median")
                bump[idx] -= 2 * step
                down, _ = image_level_loss(replace(params, **{layer: bump}),
                                           batch, sample.illuminant, "median")
                numeric = (up - down) / (2 * step)
                analytic = float(getattr(grads, layer)[idx])
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                assert rel < 1e-3

    def test_validation_guard_keeps_start_when_no_gain(self, monkeypatch):
        from dataclasses import replace

        # the epoch gains about half a degree of validation median, which
        # displaces the start under the built-in threshold but not under this
        monkeypatch.setattr(estimator, "MIN_IMPROVEMENT_DEG", 1000.0)
        samples = make_synthetic_samples(count=9, size=48, seed=11)
        params = replace(init_params(SMALL, 12), out_b=np.array([0.4, 0.5, 0.45]))
        tuned = fine_tune(
            params, samples[:3],
            HyperParams(patch_size=16, kernel_count=8, pool_size=4, fc_units=8,
                        learning_rate=1e-3, momentum=0.0, weight_decay=0.0,
                        epochs=1, seed=4),
            val_dataset=samples[3:6],
        )
        for name in ("conv_w", "fc_w", "out_b"):
            assert np.array_equal(getattr(tuned, name), getattr(params, name))

    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_each_image_prepared_once(self, pooling, monkeypatch):
        from dataclasses import replace

        samples = make_synthetic_samples(count=6, size=48, seed=13)
        params = replace(init_params(SMALL, 14), out_b=np.array([0.4, 0.5, 0.45]))
        calls = []

        def counted(img, *args, **kwargs):
            calls.append(img)
            return prepared_patches(img, *args, **kwargs)

        monkeypatch.setattr(estimator, "prepared_patches", counted)
        fine_tune(params, samples[:3], replace(SMALL, learning_rate=1e-4, epochs=3),
                  pooling=pooling, val_dataset=samples[3:])
        assert [id(img) for img in calls] == [id(s.image) for s in samples]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_weights_keep_their_dtype(self, dtype):
        """`fine_tune` computes in the weights' dtype, whatever
        `hyper.dtype` says, and never casts them."""
        samples = make_synthetic_samples(count=2, size=32, seed=15)
        other = {"float32": "float64", "float64": "float32"}[dtype]
        frozen = replace(SMALL, learning_rate=0.0, momentum=0.0, epochs=1, dtype=other)
        params = init_params(replace(SMALL, dtype=dtype), 16)
        tuned = fine_tune(params, samples, frozen)
        assert tuned.dtype == np.dtype(dtype)
        for name in PARAM_LAYERS:
            assert np.array_equal(getattr(tuned, name), getattr(params, name))

    def test_patches_at_the_models_size_and_pool_kept(self, monkeypatch):
        """The patch size comes from the model, not from `hyper` (TOY's is
        8), and the tuned model keeps the pool size."""
        samples = make_synthetic_samples(count=2, size=48, seed=17)
        params = replace(init_params(SMALL, 18), out_b=np.array([0.4, 0.5, 0.45]))
        sizes = []

        def recorded(img, size, *args, **kwargs):
            sizes.append(size)
            return prepared_patches(img, size, *args, **kwargs)

        monkeypatch.setattr(estimator, "prepared_patches", recorded)
        tuned = fine_tune(params, samples[:1], replace(TOY, learning_rate=1e-4, epochs=1),
                          val_dataset=samples[1:])
        assert sizes == [SMALL.patch_size] * 2
        assert (tuned.pool_size, tuned.patch_size) == (SMALL.pool_size, SMALL.patch_size)


    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_batches_held_in_the_weights_dtype(self, dtype, monkeypatch):
        samples = make_synthetic_samples(count=4, size=48, seed=17)
        params = init_params(replace(SMALL, dtype=dtype), 18)
        params = replace(params, out_b=np.array([0.4, 0.5, 0.45], dtype=dtype))
        seen = []

        def recording(layer):
            def wrapped(p, x, *args, **kwargs):
                seen.append((layer.__name__, x.dtype))
                return layer(p, x, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(estimator, "forward_cache", recording(network.forward_cache))
        monkeypatch.setattr(estimator, "forward", recording(network.forward))
        # hyper names the other dtype, which fine-tuning does not read
        other = {"float32": "float64", "float64": "float32"}[dtype]
        fine_tune(params, samples[:2], replace(SMALL, learning_rate=1e-4, epochs=2, dtype=other),
                  val_dataset=samples[2:])
        # 2 images x 2 epochs of steps; 2 validation images x (start + 2 epochs)
        assert sorted(name for name, _ in seen) == ["forward"] * 6 + ["forward_cache"] * 4
        assert {x_dtype for _, x_dtype in seen} == {np.dtype(dtype)}


def float32_model_and_widened_copy(seed):
    """A float32 SMALL-shape model with positive output biases, and the
    same values held as float64."""
    from dataclasses import replace

    p32 = init_params(replace(SMALL, dtype="float32"), seed)
    p32 = replace(p32, out_b=np.array([0.4, 0.5, 0.45], dtype=np.float32))
    p64 = replace(p32, **{name: getattr(p32, name).astype(np.float64) for name in PARAM_LAYERS})
    assert p32.dtype == np.float32 and p64.dtype == np.float64
    return p32, p64


def recorded_conv_dtypes(monkeypatch) -> list:
    """The dtypes of the patches, weights and bias of each call to the
    network's fused first layer, recorded from now on."""
    seen = []
    layer = network.conv1x1_pool_forward

    def recording(x, w, b, *args, **kwargs):
        seen.append((x.dtype, w.dtype, b.dtype))
        return layer(x, w, b, *args, **kwargs)

    monkeypatch.setattr(network, "conv1x1_pool_forward", recording)
    return seen


class TestWeightsPrecision:
    """The network runs in the dtype of the weights; the estimates that
    leave `unit_estimates` are float64 whatever that dtype is."""

    def test_float32_weights_see_float32_patches_and_give_float64(self, monkeypatch):
        p32, _ = float32_model_and_widened_copy(20)
        seen = recorded_conv_dtypes(monkeypatch)
        img = make_synthetic_samples(count=1, size=64, seed=21)[0].image
        batch = prepared_patches(img, SMALL.patch_size)
        keep, units = unit_estimates(p32, batch)
        assert seen == [(np.float32,) * 3]
        assert units.dtype == np.float64
        # the float32 outputs are widened before they are rectified
        want = forward(p32, batch.data.astype(np.float32)).astype(np.float64)
        want_keep, _, want_units = rectified_units(want)
        assert np.array_equal(keep, want_keep) and np.array_equal(units, want_units)

    @pytest.mark.parametrize("seed", [22, 23])
    def test_float32_model_agrees_with_its_float64_copy(self, seed):
        p32, p64 = float32_model_and_widened_copy(seed)
        img = make_synthetic_samples(count=1, size=144, seed=seed)[0].image
        for pooling in POOLINGS:
            e32 = estimate_image(p32, img, pooling)
            e64 = estimate_image(p64, img, pooling)
            assert angular_error(e32, e64) < 0.01
        batch = prepared_patches(img, SMALL.patch_size)
        keep32, units32 = unit_estimates(p32, batch)
        keep64, units64 = unit_estimates(p64, batch)
        # so the same origins and the same count of skipped patches
        assert np.array_equal(keep32, keep64)
        assert np.max(angular_error_many(units32, units64)) < 0.01
        # the float32 pass did run: its estimates are not the float64 bits
        assert not np.array_equal(units32, units64)
        full = prepared_patches(img, SMALL.patch_size, resize_target=None)
        assert np.array_equal(unit_estimates(p32, full)[0], unit_estimates(p64, full)[0])
        m32 = estimate_local_map(p32, img)
        m64 = estimate_local_map(p64, img)
        for smooth in (lambda m: m, filter_median_3x3, filter_gaussian_3x3):
            a, b = smooth(m32).estimates, smooth(m64).estimates
            assert np.max(angular_error_many(a.reshape(-1, 3), b.reshape(-1, 3))) < 0.01

    def test_image_loss_runs_in_the_weights_dtype(self, monkeypatch):
        p32, _ = float32_model_and_widened_copy(24)
        seen = recorded_conv_dtypes(monkeypatch)
        sample = make_synthetic_samples(count=1, size=64, seed=25)[0]
        batch = prepared_patches(sample.image, SMALL.patch_size)
        loss, grads = image_level_loss(p32, batch, sample.illuminant, "median")
        assert seen == [(np.float32,) * 3]
        assert all(getattr(grads, name).dtype == np.float32 for name in PARAM_LAYERS)
        # the loss is the angular error of the float64 estimate `estimate_image` pools
        pooled = estimate_image(p32, sample.image, "median")
        assert np.degrees(loss) == pytest.approx(angular_error(pooled, sample.illuminant), abs=1e-9)
