import numpy as np
import pytest

from patchcc.errors import EstimationImpossibleError, ShapeMismatchError
from patchcc import estimator
from patchcc.estimator import estimate_image, prepared_patches
from patchcc.evaluation import angular_error, summarize
from patchcc.image import LinearImage, compose_two_illuminants, normalize
from patchcc.localmap import (
    IlluminantMap,
    angular_error_map,
    estimate_local_map,
    filter_gaussian_3x3,
    filter_median_3x3,
    gaussian_3x3_kernel,
    grid_ground_truth,
    save_map_csv,
    save_map_ppm,
)
from patchcc.image import load_ppm16
from patchcc.network import HyperParams, NetworkParams, forward, init_params

import oracles
from helpers import BOUNDARY_ROW, bias_net, channel_max_net, tiled_image


def unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=2, keepdims=True)


def random_map(shape, seed=0):
    rng = np.random.default_rng(seed)
    return IlluminantMap(unit_rows(rng.uniform(0.1, 1.0, size=shape + (3,))), patch_size=32)


def constant_map(shape, ill):
    cells = np.broadcast_to(np.asarray(ill), shape + (3,)).copy()
    return IlluminantMap(cells, patch_size=32)


def reflect_index(i, n):
    # numpy 'reflect' (no edge duplication) for a single-step pad
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - i - 2 if n > 1 else 0
    return i


def neighborhood(cells, gy, gx):
    gh, gw = cells.shape[:2]
    return np.array([
        cells[reflect_index(gy + dy, gh), reflect_index(gx + dx, gw)]
        for dy in (-1, 0, 1) for dx in (-1, 0, 1)
    ])


class TestEstimateLocalMap:
    def test_uniform_scene_all_cells_equal(self):
        rng = np.random.default_rng(0)
        texture = rng.uniform(0.3, 1.0, size=(32, 32))
        img = tiled_image(texture, (0.6, 0.8, 0.4), tiles=(2, 4))
        m = estimate_local_map(channel_max_net(), img, 32)
        assert (m.grid_h, m.grid_w) == (2, 4)
        first = m.estimates[0, 0]
        assert np.allclose(m.estimates, first[None, None, :], atol=1e-12)

    def test_grid_shape(self):
        rng = np.random.default_rng(1)
        img = LinearImage(rng.uniform(0.1, 1.0, size=(160, 320, 3)))
        m = estimate_local_map(channel_max_net(), img, 32)
        assert (m.grid_w, m.grid_h) == (10, 5)

    def test_degenerate_cell_borrows_nearest(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0.2, 0.9, size=(32, 96, 3))
        data[:, 32:64, :] = 0.5  # middle patch flat
        m = estimate_local_map(channel_max_net(), LinearImage(data), 32)
        # nearest non-degenerate neighbors are (0,0) and (2,0); tie prefers left
        assert np.array_equal(m.estimates[0, 1], m.estimates[0, 0])

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_cells_match_nearest_cell_loop(self, seed):
        rng = np.random.default_rng(seed)
        gh, gw = 7, 9
        data = rng.uniform(0.2, 0.9, size=(4 * gh + 3, 4 * gw + 2, 3))
        flat = rng.uniform(size=(gh, gw)) < 0.6
        flat[rng.integers(gh), rng.integers(gw)] = False
        for gy, gx in zip(*np.nonzero(flat)):
            data[4 * gy : 4 * gy + 4, 4 * gx : 4 * gx + 4] = 0.5
        m = estimate_local_map(channel_max_net(4, 2), LinearImage(data), 4)
        nearest = oracles.loop_nearest_filled(~flat)
        assert len(nearest) == flat.sum()
        for cell, source in nearest.items():
            assert np.array_equal(m.estimates[cell], m.estimates[source])

    def test_all_degenerate_rejected(self):
        img = LinearImage(np.full((64, 64, 3), 0.3))
        with pytest.raises(EstimationImpossibleError):
            estimate_local_map(channel_max_net(), img, 32)

    def test_direction_free_cells_borrow_nearest(self):
        # an untrained net whose output has no positive component on most
        # cells; estimate_image drops those rows, the map fills those cells
        params = init_params(HyperParams(patch_size=16, pool_size=4, kernel_count=8, fc_units=4), 10)
        img = LinearImage(np.random.default_rng(3).uniform(0.05, 1, (149, 215, 3)))
        estimate_image(params, img, "average", 16)
        m = estimate_local_map(params, img, 16)
        batch = prepared_patches(img, 16, resize_target=None)
        raw = forward(params, batch.data)
        usable = np.zeros((m.grid_h, m.grid_w), dtype=bool)
        gx, gy = (batch.origins // 16).T
        keep, _, units = oracles.loop_rectified_units(raw)
        usable[gy, gx] = keep
        assert len(batch) == usable.size and 0 < usable.sum() < usable.size
        assert np.array_equal(m.estimates[gy[keep], gx[keep]], units)
        for cell, source in oracles.loop_nearest_filled(usable).items():
            assert np.array_equal(m.estimates[cell], m.estimates[source])

    def test_row_at_the_threshold_borrows_nearest(self, monkeypatch):
        raw = np.array([[0.2, 0.4, 0.9], BOUNDARY_ROW])
        monkeypatch.setattr(estimator, "forward", lambda params, x: raw.copy())
        img = LinearImage(np.random.default_rng(5).uniform(0.1, 1.0, (8, 16, 3)))
        m = estimate_local_map(bias_net(), img, 8)
        _, _, units = oracles.loop_rectified_units(raw)
        assert m.estimates.shape == (1, 2, 3)
        assert np.array_equal(m.estimates[0, 0], units[0])
        assert np.array_equal(m.estimates[0, 1], units[0])

    def test_all_direction_free_rejected(self):
        net = channel_max_net()
        net = NetworkParams(conv_w=net.conv_w, conv_b=net.conv_b, fc_w=net.fc_w, fc_b=net.fc_b,
                            out_w=-net.out_w, out_b=net.out_b)
        img = LinearImage(np.random.default_rng(4).uniform(0.1, 1.0, (64, 64, 3)))
        with pytest.raises(EstimationImpossibleError):
            estimate_local_map(net, img, 32)


class TestFilters:
    def test_constant_map_fixed_point(self):
        m = constant_map((4, 5), normalize((0.5, 0.8, 0.3)).rgb)
        for filt in (filter_gaussian_3x3, filter_median_3x3):
            out = filt(m)
            assert np.allclose(out.estimates, m.estimates, atol=1e-12)

    def test_kernel_is_normalized_and_peaked(self):
        k = gaussian_3x3_kernel()
        assert k.shape == (3, 3)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert k[1, 1] == k.max()

    def test_median_removes_single_outlier_exactly(self):
        base = normalize((0.5, 0.7, 0.5)).rgb
        m = constant_map((5, 5), base)
        cells = m.estimates.copy()
        cells[2, 2] = normalize((1.0, 0.05, 0.05)).rgb
        noisy = IlluminantMap(cells, patch_size=32)
        cleaned = filter_median_3x3(noisy)
        assert np.allclose(cleaned.estimates, base[None, None, :], atol=1e-12)
        blurred = filter_gaussian_3x3(noisy)
        center_err = angular_error(blurred.estimates[2, 2], base)
        assert 0 < center_err < angular_error(cells[2, 2], base)

    def test_gaussian_matches_neighborhood_oracle(self):
        m = random_map((6, 7), seed=3)
        out = filter_gaussian_3x3(m)
        k = gaussian_3x3_kernel().reshape(9, 1)
        for gy in range(6):
            for gx in range(7):
                expected = (neighborhood(m.estimates, gy, gx) * k).sum(axis=0)
                expected /= np.linalg.norm(expected)
                assert np.allclose(out.estimates[gy, gx], expected, atol=1e-9)

    def test_median_value_from_neighborhood(self):
        m = random_map((5, 4), seed=4)
        out = filter_median_3x3(m)
        for gy in range(5):
            for gx in range(4):
                nb = neighborhood(m.estimates, gy, gx)
                med = np.median(nb, axis=0)
                # channel-wise median of 9 values is one of the 9 values
                for c in range(3):
                    assert med[c] in nb[:, c]
                assert np.allclose(out.estimates[gy, gx], med / np.linalg.norm(med), atol=1e-12)

    def test_filtering_never_worsens_single_outlier_max_error(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            base = normalize(rng.uniform(0.3, 1.0, 3)).rgb
            m = constant_map((5, 5), base)
            cells = m.estimates.copy()
            gy, gx = rng.integers(0, 5, size=2)
            cells[gy, gx] = normalize(rng.uniform(0.05, 1.0, 3)).rgb
            noisy = IlluminantMap(cells, patch_size=32)
            gt = constant_map((5, 5), base)
            before = max(angular_error_map(noisy, gt)[1])
            for filt in (filter_gaussian_3x3, filter_median_3x3):
                after = max(angular_error_map(filt(noisy), gt)[1])
                assert after <= before + 1e-9


class TestErrorMap:
    def test_identical_maps_zero(self):
        m = random_map((3, 3), seed=6)
        grid, flat = angular_error_map(m, m)
        assert np.allclose(grid, 0.0, atol=1e-6)
        assert len(flat) == 9

    def test_single_orthogonal_cell(self):
        base = np.array([1.0, 0.0, 0.0])
        gt = constant_map((3, 3), base)
        cells = gt.estimates.copy()
        cells[1, 2] = [0.0, 1.0, 0.0]
        est = IlluminantMap(cells, patch_size=32)
        grid, _ = angular_error_map(est, gt)
        assert grid[1, 2] == pytest.approx(90.0, abs=1e-9)
        grid_copy = grid.copy()
        grid_copy[1, 2] = 0
        assert np.allclose(grid_copy, 0.0)

    def test_stats_match_summarize(self):
        a = random_map((4, 5), seed=7)
        b = random_map((4, 5), seed=8)
        grid, flat = angular_error_map(a, b)
        stats = summarize(flat)
        assert stats.mean == pytest.approx(np.sort(grid.reshape(-1)).mean())
        assert stats.count == 20

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            angular_error_map(random_map((3, 3)), random_map((3, 4)))


class TestGridGroundTruth:
    def test_aligned_split_no_straddle(self):
        rng = np.random.default_rng(9)
        img = LinearImage(rng.uniform(0.2, 1.0, size=(96, 192, 3)))
        left, right = normalize((1, 0.6, 0.4)), normalize((0.4, 0.6, 1))
        _, gt_pixels = compose_two_illuminants(img, left, right)
        grid = grid_ground_truth(gt_pixels, 32)
        assert (grid.grid_w, grid.grid_h) == (6, 3)
        for gx in range(3):
            assert np.allclose(grid.estimates[:, gx], left.rgb, atol=1e-12)
        for gx in range(3, 6):
            assert np.allclose(grid.estimates[:, gx], right.rgb, atol=1e-12)

    def test_straddling_cell_takes_left_on_exact_tie(self):
        rng = np.random.default_rng(10)
        img = LinearImage(rng.uniform(0.2, 1.0, size=(32, 160, 3)))
        left, right = normalize((1, 0.5, 0.5)), normalize((0.5, 0.5, 1))
        _, gt_pixels = compose_two_illuminants(img, left, right)
        # split at x=80 bisects the cell spanning [64, 96)
        grid = grid_ground_truth(gt_pixels, 32)
        assert np.allclose(grid.estimates[0, 2], left.rgb, atol=1e-12)

    def test_majority_wins(self):
        left, right = normalize((1, 0.5, 0.5)), normalize((0.5, 0.5, 1))
        gt_pixels = np.empty((4, 4, 3))
        gt_pixels[:, :3] = left.rgb
        gt_pixels[:, 3:] = right.rgb
        grid = grid_ground_truth(gt_pixels, 4)
        assert np.allclose(grid.estimates[0, 0], left.rgb, atol=1e-12)


    @pytest.mark.parametrize("seed", range(3))
    def test_matches_loop_on_mixed_maps(self, seed):
        rng = np.random.default_rng(seed)
        palette = rng.uniform(0.1, 1.0, size=(4, 3))
        size, gh, gw = 4, 6, 8
        labels = rng.integers(0, 4, size=(gh * size + 1, gw * size + 3))
        labels[:size, :size] = 2  # a uniform cell
        # exact ties: two lights 8 pixels each, at random positions
        for gy, gx in [(1, 1), (2, 5), (5, 7)]:
            cell = np.repeat([0, 3], 8)
            rng.shuffle(cell)
            labels[gy * size : (gy + 1) * size, gx * size : (gx + 1) * size] = cell.reshape(4, 4)
        gt_pixels = palette[labels]
        cells = oracles.loop_grid_ground_truth(gt_pixels, size)
        expected = cells / np.linalg.norm(cells, axis=2, keepdims=True)
        assert np.array_equal(grid_ground_truth(gt_pixels, size).estimates, expected)


class TestExports:
    def test_ppm_upscaled_by_patch_size(self, tmp_path):
        m = random_map((2, 3), seed=11)
        path = tmp_path / "map.ppm"
        save_map_ppm(m, path)
        img = load_ppm16(path)
        assert (img.width, img.height) == (3 * 32, 2 * 32)
        # every pixel of a cell is the same color
        cell = img.data[:32, :32]
        assert np.allclose(cell, cell[0, 0][None, None, :], atol=1e-12)

    def test_csv_contents(self, tmp_path):
        m = random_map((2, 2), seed=12)
        path = tmp_path / "map.csv"
        save_map_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "grid_x,grid_y,r,g,b"
        assert len(lines) == 5
        x, y, r, g, b = lines[1].split(",")
        assert (x, y) == ("0", "0")
        assert float(r) == pytest.approx(m.estimates[0, 0, 0], abs=1e-9)
