"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The learning criteria run a real training job on a synthetic dataset, so this
module takes a couple of minutes; run with `pytest tests/test_acceptance.py -v -s`
to watch the per-criterion lines.
"""

import time

import numpy as np
import pytest

import patchcc as cc
from patchcc.dataset import SynthConfig, generate_dataset, load_manifest, load_samples
from patchcc.estimator import estimate_image, fine_tune, train
from patchcc.evaluation import angular_error, angular_error_many, summarize
from patchcc.image import LinearImage, load_illuminant_map_ppm, load_ppm16, normalize, save_ppm16
from patchcc.localmap import (
    angular_error_map,
    estimate_local_map,
    filter_median_3x3,
    grid_ground_truth,
)
from patchcc.minkowski import PRESETS, do_nothing, minkowski_estimate, minkowski_response, preset
from patchcc.network import (
    HyperParams,
    gradient_check,
    init_params,
    load_params,
    save_params,
)

from helpers import SMALL, channel_max_net, make_synthetic_samples
from oracles import brute_force_response, sort_oracle_stats

# fixed configuration for the end-to-end learning experiment
DATASET_CONFIG = SynthConfig(
    count=60, width=160, height=160, seed=42,
    ill_red_range=(0.25, 1.35), ill_blue_range=(0.25, 1.35),
    saturation=0.40,
)
TWO_ILL_CONFIG = SynthConfig(
    count=20, width=192, height=96, seed=52, two_illuminant=True,
    ill_red_range=(0.25, 1.35), ill_blue_range=(0.25, 1.35),
    saturation=0.40,
)
TRAIN_HYPER = HyperParams(
    patch_size=32, kernel_count=32, pool_size=8, fc_units=16,
    learning_rate=0.02, momentum=0.9, weight_decay=5e-4,
    batch_size=64, epochs=30, patience=8, patches_per_image=150,
    seed=4, dtype="float32",
)
FINETUNE_HYPER = HyperParams(
    patch_size=32, kernel_count=32, pool_size=8, fc_units=16,
    learning_rate=3e-5, momentum=0.0, weight_decay=0.0,
    epochs=4, seed=4, dtype="float32",
)
TEST_FOLD = 0


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def learning_samples(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "single"
    return load_samples(load_manifest(generate_dataset(out, DATASET_CONFIG)))


@pytest.fixture(scope="module")
def trained_model(learning_samples):
    result = train(learning_samples, [TEST_FOLD], TRAIN_HYPER)
    return result.models[TEST_FOLD]


@pytest.fixture(scope="module")
def two_ill_samples(tmp_path_factory):
    """(sample, per-pixel ground-truth map) pairs."""
    out = tmp_path_factory.mktemp("accept2") / "two"
    manifest = load_manifest(generate_dataset(out, TWO_ILL_CONFIG))
    maps = [load_illuminant_map_ppm(manifest.resolve(e.gt_map_path)) for e in manifest.entries]
    return list(zip(load_samples(manifest), maps))


def pooled_median(model, samples):
    errors = [
        angular_error(estimate_image(model, s.image, "median"), s.illuminant)
        for s in samples
    ]
    return float(np.median(errors))


def test_criterion_1_gradient_fidelity():
    hyper = HyperParams(patch_size=8, kernel_count=4, pool_size=4, fc_units=5)
    params = init_params(hyper, seed=0)
    rng = np.random.default_rng(1)
    patch = rng.uniform(0.0, 1.0, (8, 8, 3))
    gt = normalize(rng.uniform(0.2, 1.0, 3))
    start = time.perf_counter()
    worst = {}
    for kind in ("euclidean", "angular"):
        rep = gradient_check(params, patch, gt, loss_kind=kind)
        worst[kind] = max(rep.values())
    elapsed = time.perf_counter() - start
    ok = worst["euclidean"] < 1e-3 and worst["angular"] < 1e-3 and elapsed < 30
    report(1, ok,
           f"max rel err euclidean {worst['euclidean']:.2e}, "
           f"angular {worst['angular']:.2e}, runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_minkowski_oracle_equivalence():
    rng = np.random.default_rng(2)
    worst_pre, worst_deg = 0.0, 0.0
    for i in range(50):
        img = LinearImage(rng.uniform(0.0, 1.0, (16, 16, 3)))
        for name in PRESETS:
            params = preset(name)
            got = minkowski_response(img, params)
            want = brute_force_response(img, params)
            worst_pre = max(worst_pre, float(np.max(np.abs(got - want))))
            worst_deg = max(worst_deg, angular_error(normalize(got), normalize(want)))
    ok = worst_pre < 1e-9 and worst_deg < 1e-6
    report(2, ok,
           f"50 images x 6 presets: max channel diff {worst_pre:.2e} (< 1e-9), "
           f"max normalized diff {worst_deg:.2e} deg (< 1e-6)")


def test_criterion_3_analytic_recovery(tmp_path):
    gw_cfg = SynthConfig(count=30, width=160, height=160, seed=77, gray_balance=True)
    gw_samples = load_samples(load_manifest(generate_dataset(tmp_path / "gw", gw_cfg)))
    gw_errs = [
        angular_error(minkowski_estimate(s.image, preset("GW")), s.illuminant)
        for s in gw_samples
    ]
    wp_cfg = SynthConfig(count=30, width=160, height=160, seed=78, white_patch=True)
    wp_samples = load_samples(load_manifest(generate_dataset(tmp_path / "wp", wp_cfg)))
    wp_errs = [
        angular_error(minkowski_estimate(s.image, preset("WP")), s.illuminant)
        for s in wp_samples
    ]
    gw_med, wp_med = float(np.median(gw_errs)), float(np.median(wp_errs))
    ok = gw_med < 0.2 and wp_med < 0.2
    report(3, ok,
           f"gray-balanced GW median {gw_med:.4f} deg, white-patch WP median "
           f"{wp_med:.4f} deg (both < 0.2)")


def test_criterion_4_angular_metric():
    exact_zero = angular_error((3, 4, 0), (3, 4, 0))
    exact_45 = abs(angular_error((1, 1, 0), (1, 0, 0)) - 45.0)
    exact_90 = abs(angular_error((1, 0, 0), (0, 1, 0)) - 90.0)
    analytic_ok = exact_zero < 1e-9 and exact_45 < 1e-9 and exact_90 < 1e-9

    rng = np.random.default_rng(4)
    worst_scale = 0.0
    for _ in range(200):
        a = rng.uniform(0.05, 1.0, 3)
        b = rng.uniform(0.05, 1.0, 3)
        if angular_error(a, b) < 2.0:  # keep the arccos well conditioned
            continue
        alpha, beta = rng.uniform(0.01, 50.0, 2)
        worst_scale = max(
            worst_scale, abs(angular_error(alpha * a, beta * b) - angular_error(a, b))
        )
    scale_ok = worst_scale < 1e-12

    worst_stats = 0.0
    for _ in range(1000):
        values = rng.uniform(0.0, 45.0, size=int(rng.integers(1, 120)))
        got = summarize(values).as_row()
        want = sort_oracle_stats(values.tolist())
        worst_stats = max(worst_stats, float(np.max(np.abs(np.array(got) - want))))
    stats_ok = worst_stats < 1e-12

    ok = analytic_ok and scale_ok and stats_ok
    report(4, ok,
           f"analytic cases exact (worst {max(exact_zero, exact_45, exact_90):.1e}), "
           f"scale invariance {worst_scale:.1e} (< 1e-12), "
           f"summarize vs oracle {worst_stats:.1e} on 1000 lists")


def test_criterion_5_end_to_end_learning(learning_samples, trained_model):
    test_samples = [s for s in learning_samples if s.fold == TEST_FOLD]
    dn = do_nothing()
    dn_median = float(np.median([angular_error(dn, s.illuminant) for s in test_samples]))
    cnn_median = pooled_median(trained_model, test_samples)

    train_samples = [s for s in learning_samples if s.fold == (TEST_FOLD + 1) % 3]
    val_samples = [s for s in learning_samples if s.fold == (TEST_FOLD + 2) % 3]
    tuned = fine_tune(trained_model, train_samples, FINETUNE_HYPER,
                      pooling="median", val_dataset=val_samples)
    tuned_median = pooled_median(tuned, test_samples)

    ok = cnn_median <= 0.5 * dn_median and tuned_median <= cnn_median
    report(5, ok,
           f"DN median {dn_median:.2f} deg, trained median {cnn_median:.2f} deg "
           f"(ratio {cnn_median / dn_median:.3f} <= 0.5), fine-tuned median "
           f"{tuned_median:.2f} deg (not increased)")


def test_criterion_6_pooling_robustness():
    net = channel_max_net()
    wins = 0
    trials = 200
    for t in range(trials):
        rng = np.random.default_rng([6, t])
        texture = rng.uniform(0.45, 1.0, size=(32, 32))
        tiles = np.tile(texture, (3, 3))[:, :, None]
        base = rng.uniform(0.35, 0.85, size=3)
        jitter = 1.0 + 0.03 * rng.standard_normal((3, 3, 3))
        clean = np.empty((96, 96, 3))
        for gy in range(3):
            for gx in range(3):
                block = tiles[gy * 32:(gy + 1) * 32, gx * 32:(gx + 1) * 32]
                clean[gy * 32:(gy + 1) * 32, gx * 32:(gx + 1) * 32] = (
                    block * np.clip(base * jitter[gy, gx], 0.02, 1.0))
        clean_img = LinearImage(np.clip(clean, 0, 1))
        clean_est = estimate_image(net, clean_img, "median")

        corrupted = clean.copy()
        gy, gx = rng.integers(0, 3, size=2)
        outlier = rng.uniform(0.05, 1.0, size=3)
        outlier[rng.integers(0, 3)] = rng.uniform(0.8, 1.0)
        corrupted[gy * 32:(gy + 1) * 32, gx * 32:(gx + 1) * 32] = (
            tiles[gy * 32:(gy + 1) * 32, gx * 32:(gx + 1) * 32] * outlier)
        cimg = LinearImage(np.clip(corrupted, 0, 1))
        med_err = angular_error(estimate_image(net, cimg, "median"), clean_est)
        avg_err = angular_error(estimate_image(net, cimg, "average"), clean_est)
        wins += med_err <= avg_err
    ok = wins >= 0.95 * trials
    report(6, ok, f"median pooling no worse than average in {wins}/{trials} "
                  f"outlier trials (need >= {int(0.95 * trials)})")


def test_criterion_7_local_estimation(trained_model, two_ill_samples):
    dn = do_nothing()
    cnn_errs, dn_errs, filtered_errs = [], [], []
    left_closer, left_total = 0, 0
    for s, gt_map in two_ill_samples:
        gt_grid = grid_ground_truth(gt_map, 32)
        est_map = estimate_local_map(trained_model, s.image)
        cnn_errs += angular_error_map(est_map, gt_grid)[1]
        filtered_errs += angular_error_map(filter_median_3x3(est_map), gt_grid)[1]
        cells = gt_grid.estimates.reshape(-1, 3)
        dn_errs += list(angular_error_many(np.broadcast_to(dn.rgb, cells.shape), cells))
        left, right = gt_map[0, 0], gt_map[0, -1]
        for gy in range(est_map.grid_h):
            for gx in range(est_map.grid_w // 2):  # strictly left of the split
                est = est_map.estimates[gy, gx]
                left_closer += angular_error(est, left) < angular_error(est, right)
                left_total += 1
    cnn_med = float(np.median(cnn_errs))
    dn_med = float(np.median(dn_errs))
    filtered_med = float(np.median(filtered_errs))
    side_fraction = left_closer / left_total
    ok = cnn_med < dn_med and filtered_med <= cnn_med and side_fraction >= 0.75
    report(7, ok,
           f"per-cell medians over {len(cnn_errs)} cells: CNN {cnn_med:.2f} deg < "
           f"DN {dn_med:.2f} deg; median-filtered {filtered_med:.2f} deg (not "
           f"increased); left cells closer to the left light {side_fraction:.0%}")


def test_criterion_8_roundtrips_and_determinism(tmp_path):
    rng = np.random.default_rng(8)

    img = LinearImage(rng.uniform(0.0, 1.0, (24, 31, 3)))
    ill = normalize(rng.uniform(0.1, 1.0, 3))
    vk = float(np.max(np.abs(
        cc.correct_von_kries(cc.cast_illuminant(img, ill), ill).data - img.data)))

    ppm_path = tmp_path / "rt.ppm"
    save_ppm16(img, ppm_path)
    ppm_err = float(np.max(np.abs(load_ppm16(ppm_path).data - img.data)))

    params = init_params(HyperParams(patch_size=8, kernel_count=4, pool_size=4,
                                     fc_units=5), seed=3)
    a, b = tmp_path / "a.ccnn", tmp_path / "b.ccnn"
    save_params(params, a)
    save_params(load_params(a), b)
    weights_ok = a.read_bytes() == b.read_bytes()

    samples = make_synthetic_samples(count=9, size=48, seed=21)
    run1 = train(samples, [0], SMALL).models[0]
    run2 = train(samples, [0], SMALL).models[0]
    train_ok = all(
        np.array_equal(getattr(run1, n), getattr(run2, n))
        for n in ("conv_w", "conv_b", "fc_w", "fc_b", "out_w", "out_b")
    )

    ok = vk <= 1e-6 and ppm_err <= 1 / 65535 and weights_ok and train_ok
    report(8, ok,
           f"von Kries roundtrip {vk:.1e} (<= 1e-6), PPM roundtrip {ppm_err:.2e} "
           f"(<= 1/65535), weights file bit-exact: {weights_ok}, "
           f"seeded training bit-identical: {train_ok}")
