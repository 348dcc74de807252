import numpy as np
import pytest

from patchcc import estimator
from patchcc.errors import EstimationImpossibleError, ParameterError
from patchcc.estimator import (
    estimate_image,
    fine_tune,
    image_level_loss,
    pool_average,
    pool_median,
    prepared_patches,
    rectified_units,
    train,
    unit_estimates,
)
from patchcc.evaluation import angular_error
from patchcc.image import LinearImage, normalize
from patchcc.network import HyperParams, forward, init_params

import oracles
from helpers import (
    BOUNDARY_ROW,
    SMALL,
    TOY,
    bias_net,
    channel_max_net,
    make_synthetic_samples,
    textured_patch,
    tiled_image,
)


class TestUnitEstimates:
    def test_rows_are_rectified_unit_bit_for_bit(self):
        from dataclasses import replace

        img = LinearImage(np.random.default_rng(0).uniform(0.05, 1.0, (64, 96, 3)))
        params = replace(init_params(SMALL, 0), out_b=np.array([0.4, -0.5, 0.45]))
        batch = prepared_patches(img, 16)
        keep, raw, units = unit_estimates(params, batch)
        all_raw = forward(params, batch.data)
        assert np.array_equal(raw, all_raw[keep])
        oracle_keep, oracle_norms, oracle_units = oracles.loop_rectified_units(all_raw)
        assert np.array_equal(keep, oracle_keep)
        assert np.array_equal(units, oracle_units)
        assert np.array_equal(rectified_units(all_raw)[1], oracle_norms)
        # a norm over axis 1 gives other last bits on some rows of this batch
        clamped = np.maximum(raw, 0.0)
        assert not np.array_equal(units, clamped / np.linalg.norm(clamped, axis=1, keepdims=True))

    def test_row_at_the_threshold_is_dropped_not_fatal(self, monkeypatch):
        raw = np.array([[0.2, 0.4, 0.9], BOUNDARY_ROW])
        monkeypatch.setattr(estimator, "forward", lambda params, x: raw.copy())
        assert np.linalg.norm(raw, axis=1)[1] == estimator.DIRECTION_FREE_NORM
        oracle_keep, _, oracle_units = oracles.loop_rectified_units(raw)
        assert oracle_keep.tolist() == [True, False]
        img = LinearImage(np.random.default_rng(14).uniform(0.1, 1.0, (8, 16, 3)))
        batch = prepared_patches(img, 8)
        keep, kept_raw, units = unit_estimates(bias_net(), batch)
        assert keep.tolist() == [True, False]
        assert np.array_equal(kept_raw, raw[:1])
        assert np.array_equal(units, oracle_units)
        pooled = estimate_image(bias_net(), img, patch_size=8)
        assert np.array_equal(pooled.units, oracle_units)
        assert pooled.degenerate_skipped == 1
        assert pooled.origins.tolist() == [[0, 0]]

    def test_rectified_units_matches_loop_oracle(self):
        rng = np.random.default_rng(15)
        raw = rng.standard_normal((500, 3)) * np.exp(rng.uniform(-25, 25, (500, 1)))
        raw[:3] = [[-1.0, -2.0, -3.0], [0.0, 0.0, 0.0], BOUNDARY_ROW]
        for got, want in zip(rectified_units(raw), oracles.loop_rectified_units(raw)):
            assert np.array_equal(got, want)


class TestEstimatePatch:
    """Per-patch estimates: the `units` rows of `estimate_image` on
    one-patch images."""

    def test_bias_network_gives_neutral(self):
        img = textured_patch(np.random.default_rng(0), (0.5, 0.7, 0.3))
        est = estimate_image(bias_net(), img, patch_size=8)
        assert est.units.shape == (1, 3)
        assert np.allclose(est.units, 1 / np.sqrt(3), atol=1e-12)

    def test_scale_of_prestretch_patch_is_absorbed(self):
        rng = np.random.default_rng(1)
        params = init_params(TOY, 2)
        raw = textured_patch(rng, (0.6, 0.5, 0.8))
        scaled = LinearImage(raw.data * 0.3)
        a = estimate_image(params, raw, patch_size=8)
        b = estimate_image(params, scaled, patch_size=8)
        assert np.allclose(a.units, b.units, atol=1e-12)

    def test_equals_normalized_forward(self):
        rng = np.random.default_rng(3)
        params = bias_net((0.2, 0.4, 0.9))  # positive outputs, rectification inert
        img = textured_patch(rng, (0.5, 0.5, 0.5))
        est = estimate_image(params, img, patch_size=8)
        oracle = normalize(forward(params, prepared_patches(img, 8).data[0]))
        assert np.array_equal(est.units[0], oracle.rgb)
        assert np.array_equal(est.raw[0], [0.2, 0.4, 0.9])

    def test_degenerate_patch_rejected(self):
        flat = LinearImage(np.full((8, 8, 3), 0.5))
        with pytest.raises(EstimationImpossibleError):
            prepared_patches(flat, 8)
        with pytest.raises(EstimationImpossibleError):
            estimate_image(bias_net(), flat, patch_size=8)

    def test_negative_output_rectified(self):
        img = textured_patch(np.random.default_rng(4), (0.5, 0.6, 0.7))
        est = estimate_image(bias_net((-0.5, 0.8, 0.6)), img, patch_size=8)
        assert est.units[0, 0] == 0.0
        assert np.linalg.norm(est.units[0]) == pytest.approx(1.0, abs=1e-12)
        assert est.raw[0, 0] == -0.5

    def test_all_negative_output_degenerate(self):
        img = textured_patch(np.random.default_rng(5), (0.5, 0.6, 0.7))
        with pytest.raises(EstimationImpossibleError):
            rectified_units(np.array([[-1.0, -1.0, -1.0]]))
        with pytest.raises(EstimationImpossibleError):
            estimate_image(bias_net((-1.0, -1.0, -1.0)), img, patch_size=8)


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
        pooled = estimate_image(params, img, pooling="median", patch_size=32)
        assert len(pooled.units) == 9
        assert np.allclose(pooled.units, pooled.units[0], atol=1e-12)
        assert np.allclose(pooled.illuminant.rgb, pooled.units[0], atol=1e-12)

    def test_patch_count_1200x800(self):
        rng = np.random.default_rng(10)
        img = LinearImage(rng.uniform(0.1, 1.0, size=(800, 1200, 3)))
        pooled = estimate_image(bias_net((1, 1, 1), TOY), img, patch_size=32)
        assert pooled.units.shape == pooled.raw.shape == (37 * 25, 3)
        assert pooled.origins.shape == (37 * 25, 2)

    def test_crafted_outlier_median_vs_average(self):
        rng = np.random.default_rng(11)
        texture = rng.uniform(0.4, 1.0, size=(32, 32))
        base = (0.6, 0.55, 0.5)
        clean = tiled_image(texture, base)
        corrupted = clean.data.copy()
        corrupted[32:64, 32:64, :] = texture[:, :, None] * np.array([0.05, 0.9, 0.1])
        corrupted = LinearImage(corrupted)
        params = channel_max_net()
        clean_est = estimate_image(params, clean, "median", 32).illuminant
        med = estimate_image(params, corrupted, "median", 32).illuminant
        avg = estimate_image(params, corrupted, "average", 32).illuminant
        assert angular_error(med, clean_est) < 0.5
        assert angular_error(avg, clean_est) > angular_error(med, clean_est)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        img = LinearImage(rng.uniform(0, 1, (64, 64, 3)))
        params = init_params(HyperParams(patch_size=32, kernel_count=8, pool_size=8,
                                         fc_units=6), 1)
        a = estimate_image(params, img, "median", 32)
        b = estimate_image(params, img, "median", 32)
        assert np.array_equal(a.illuminant.rgb, b.illuminant.rgb)
        assert np.array_equal(a.origins, b.origins)
        assert np.array_equal(a.units, b.units)

    def test_all_flat_image_impossible(self):
        img = LinearImage(np.full((64, 64, 3), 0.5))
        with pytest.raises(EstimationImpossibleError):
            estimate_image(bias_net(), img, patch_size=32)

    def test_degenerate_count_reported(self):
        rng = np.random.default_rng(13)
        data = rng.uniform(0.2, 0.8, (32, 64, 3))
        data[:, 32:, :] = 0.5  # right patch is flat
        pooled = estimate_image(bias_net((1, 1, 1), TOY), LinearImage(data), patch_size=32)
        assert pooled.degenerate_skipped == 1
        assert pooled.origins.tolist() == [[0, 0]]


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

    def test_deterministic_given_seed(self):
        samples = make_synthetic_samples()
        a = train(samples, [0], SMALL).models[0]
        b = train(samples, [0], SMALL).models[0]
        for name in ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestFineTune:
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
        before, _ = image_level_loss(params, sample.image, sample.illuminant,
                                     "median", SMALL.patch_size)
        tuned = fine_tune(
            params, [sample],
            HyperParams(patch_size=16, kernel_count=8, pool_size=4, fc_units=8,
                        learning_rate=0.005, momentum=0.9, weight_decay=0.0,
                        epochs=50, seed=2),
        )
        after, _ = image_level_loss(tuned, sample.image, sample.illuminant,
                                    "median", SMALL.patch_size)
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
        pooled = estimate_image(params, sample.image, "median", SMALL.patch_size)
        reference = angular_error(pooled.illuminant, sample.illuminant)
        assert logged == pytest.approx(reference, abs=1e-9)

    def test_image_loss_rejects_unknown_pooling_first(self):
        # a flat image would fail in patch preparation, after the check
        flat = LinearImage(np.full((16, 16, 3), 0.5))
        with pytest.raises(ParameterError, match="pooling"):
            image_level_loss(bias_net(), flat, normalize((1, 1, 1)), "mean", 8)

    def test_image_loss_gradient_matches_finite_differences(self):
        from dataclasses import replace

        samples = make_synthetic_samples(count=1, size=32, seed=9)
        sample = samples[0]
        params = init_params(SMALL, 10)
        params = replace(params, out_b=np.array([0.5, 0.55, 0.6]))
        _, grads = image_level_loss(params, sample.image, sample.illuminant,
                                    "median", SMALL.patch_size)
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
                                         sample.image, sample.illuminant,
                                         "median", SMALL.patch_size)
                bump[idx] -= 2 * step
                down, _ = image_level_loss(replace(params, **{layer: bump}),
                                           sample.image, sample.illuminant,
                                           "median", SMALL.patch_size)
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
