import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patchcc.errors import EstimationImpossibleError, FormatError, ShapeMismatchError
from patchcc import estimator
from patchcc.estimator import DIRECTION_FREE_NORM, estimate_image, prepared_patches
from patchcc.evaluation import angular_error, summarize
from patchcc.image import (
    LinearImage,
    compose_two_illuminants,
    load_illuminant_map_ppm,
    normalize,
    save_illuminant_map_ppm,
    vector_norms,
)
from patchcc.localmap import (
    IlluminantMap,
    angular_error_map,
    estimate_local_map,
    filter_gaussian_3x3,
    filter_median_3x3,
    gaussian_3x3_kernel,
    grid_ground_truth,
    load_grid_ground_truth,
    save_map_csv,
    save_map_ppm,
)
from patchcc.image import load_ppm16
from patchcc.network import HyperParams, forward, init_params

import oracles
from helpers import BOUNDARY_ROW, bias_net, channel_max_net, tiled_image, write_ppm


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
        return -i if n > 1 else 0
    if i >= n:
        return 2 * n - i - 2 if n > 1 else 0
    return i


def neighborhood(cells, gy, gx):
    gh, gw = cells.shape[:2]
    return np.array([
        cells[reflect_index(gy + dy, gh), reflect_index(gx + dx, gw)]
        for dy in (-1, 0, 1) for dx in (-1, 0, 1)
    ])


# a 3x3 Latin square of the three basis vectors: every cell's reflect-padded
# 3x3 neighbourhood holds at most four of each, so every channel-wise median
# is (0, 0, 0)
LATIN_SQUARE = np.eye(3)[(np.arange(3)[:, None] + np.arange(3)) % 3]

# non-negative rows with no, one or two zero channels, one-hot rows included
NONNEGATIVE_ROWS = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
    st.tuples(*[st.just(0.0) | st.floats(1e-6, 1.0)] * 3).filter(any),
)


@st.composite
def unit_grids(draw):
    """(gh, gw, 3) grids of non-negative unit vectors, 1x1 to 5x5."""
    gh, gw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(NONNEGATIVE_ROWS, min_size=gh * gw, max_size=gh * gw))
    return unit_rows(np.array(rows).reshape(gh, gw, 3))


class TestEstimateLocalMap:
    def test_uniform_scene_all_cells_equal(self):
        rng = np.random.default_rng(0)
        texture = rng.uniform(0.3, 1.0, size=(32, 32))
        img = tiled_image(texture, (0.6, 0.8, 0.4), tiles=(2, 4))
        m = estimate_local_map(channel_max_net(), img)
        assert (m.grid_h, m.grid_w) == (2, 4)
        first = m.estimates[0, 0]
        assert np.allclose(m.estimates, first[None, None, :], atol=1e-12)

    def test_grid_shape(self):
        rng = np.random.default_rng(1)
        img = LinearImage(rng.uniform(0.1, 1.0, size=(160, 320, 3)))
        m = estimate_local_map(channel_max_net(), img)
        assert (m.grid_w, m.grid_h, m.patch_size) == (10, 5, 32)

    def test_degenerate_cell_borrows_nearest(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0.2, 0.9, size=(32, 96, 3))
        data[:, 32:64, :] = 0.5  # middle patch flat
        m = estimate_local_map(channel_max_net(), LinearImage(data))
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
        m = estimate_local_map(channel_max_net(4, 2), LinearImage(data))
        assert (m.patch_size, m.grid_h, m.grid_w) == (4, gh, gw)
        nearest = oracles.loop_nearest_filled(~flat)
        assert len(nearest) == flat.sum()
        for cell, source in nearest.items():
            assert np.array_equal(m.estimates[cell], m.estimates[source])

    def test_all_degenerate_rejected(self):
        img = LinearImage(np.full((64, 64, 3), 0.3))
        with pytest.raises(EstimationImpossibleError):
            estimate_local_map(channel_max_net(), img)

    def test_direction_free_cells_borrow_nearest(self):
        # an untrained net whose output has no positive component on most
        # cells; estimate_image drops those rows, the map fills those cells
        params = init_params(HyperParams(patch_size=16, pool_size=4, kernel_count=8, fc_units=4), 10)
        img = LinearImage(np.random.default_rng(3).uniform(0.05, 1, (149, 215, 3)))
        estimate_image(params, img, "average")
        m = estimate_local_map(params, img)
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
        m = estimate_local_map(bias_net(), img)
        _, _, units = oracles.loop_rectified_units(raw)
        assert m.estimates.shape == (1, 2, 3)
        assert np.array_equal(m.estimates[0, 0], units[0])
        assert np.array_equal(m.estimates[0, 1], units[0])

    def test_all_direction_free_rejected(self):
        net = channel_max_net()
        net = replace(net, out_w=-net.out_w)
        img = LinearImage(np.random.default_rng(4).uniform(0.1, 1.0, (64, 64, 3)))
        with pytest.raises(EstimationImpossibleError):
            estimate_local_map(net, img)


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

    @given(unit_grids())
    @example(LATIN_SQUARE)
    @settings(max_examples=100, deadline=None)
    def test_filters_give_valid_maps_without_warnings(self, cells):
        m = IlluminantMap(cells, patch_size=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blurred = filter_gaussian_3x3(m)
            cleaned = filter_median_3x3(m)
        assert blurred.estimates.shape == cleaned.estimates.shape == cells.shape
        gh, gw = cells.shape[:2]
        for gy in range(gh):
            for gx in range(gw):
                med = np.median(neighborhood(cells, gy, gx), axis=0)
                if vector_norms(med) < DIRECTION_FREE_NORM:
                    # no direction: the cell keeps its unfiltered estimate
                    assert cleaned.estimates[gy, gx].tobytes() == cells[gy, gx].tobytes()
                else:
                    want = med / np.linalg.norm(med)
                    assert np.allclose(cleaned.estimates[gy, gx], want, atol=1e-12)

    def test_median_keeps_every_cell_of_a_latin_square(self):
        m = IlluminantMap(LATIN_SQUARE, patch_size=32)
        assert filter_median_3x3(m).estimates.tobytes() == m.estimates.tobytes()

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


    @pytest.mark.parametrize("size", [1, 4, 6])
    def test_matches_tile_copies(self, size):
        rng = np.random.default_rng(size)
        palette = unit_rows(rng.uniform(0.1, 1.0, size=(1, 5, 3)))[0]
        gh, gw = 5, 6
        # one light per cell, plus a ragged border outside the grid
        labels = np.repeat(np.repeat(rng.integers(0, 5, size=(gh, gw)), size, 0), size, 1)
        labels = np.pad(labels, ((0, 3), (0, 2)), mode="wrap")
        labels[gh * size :] = rng.integers(0, 5, size=labels[gh * size :].shape)
        def cell(gy, gx):
            return labels[gy * size : (gy + 1) * size, gx * size : (gx + 1) * size]

        if size > 1:
            # rows agree and the first row varies: a tie, then a majority on the right
            cell(0, 1)[:, : size // 2], cell(0, 1)[:, size // 2 :] = 1, 2
            cell(1, 4)[:, :1], cell(1, 4)[:, 1:] = 1, 2
            cell(1, 2)[: size // 2], cell(1, 2)[size // 2 :] = 3, 4  # first row constant, rows differ
            cell(2, 3)[:] = 0
            cell(2, 3)[-1, -1] = 1  # one odd pixel, last in its cell
            cell(3, 0)[:] = 2
            cell(3, 0)[0, -1] = 3  # one odd pixel in the first row
            # three lights: a three-way tie when size * size divides by 3
            cell(4, 5)[:] = rng.permutation(np.arange(size * size) % 3).reshape(size, size)
        gt_pixels = palette[labels]
        grid = grid_ground_truth(gt_pixels, size)
        expected = oracles.tile_copy_grid_ground_truth(gt_pixels, size)
        assert grid.estimates.tobytes() == expected.tobytes()
        loop = oracles.loop_grid_ground_truth(gt_pixels, size)
        assert np.array_equal(grid.estimates, loop / np.linalg.norm(loop, axis=2, keepdims=True))


def pixel_path_grid(path, size):
    """The map file read per pixel, then gridded: the form `load_grid_ground_truth` replaces."""
    return grid_ground_truth(load_illuminant_map_ppm(path), size)


def shuffled_cell(rng, size, triples, counts):
    """A (size, size, 3) cell of raw samples, counts[i] of triples[i], in random order."""
    cell = np.repeat(np.asarray(triples), counts, axis=0)
    return rng.permutation(cell).reshape(size, size, 3)


class TestLoadGridGroundTruth:
    """The reader of raw map samples against the per-pixel path, byte for byte."""

    def assert_matches_pixel_path(self, path, size):
        got = load_grid_ground_truth(path, size)
        assert got.patch_size == size
        assert got.estimates.tobytes() == pixel_path_grid(path, size).estimates.tobytes()

    def assert_same_error(self, path, size, error, match):
        with pytest.raises(error, match=match) as new:
            load_grid_ground_truth(path, size)
        with pytest.raises(error) as old:
            pixel_path_grid(path, size)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("size", [1, 7, 16, 33])
    def test_two_light_maps(self, tmp_path, size):
        rng = np.random.default_rng(size)
        # sides that are not multiples of any size, and a split inside a cell
        img = LinearImage(rng.uniform(0.2, 1.0, size=(101, 75, 3)))
        left, right = (normalize(rng.uniform(0.05, 1.0, 3)) for _ in range(2))
        _, gt = compose_two_illuminants(img, left, right)
        path = tmp_path / "gt.ppm"
        save_illuminant_map_ppm(gt, path)
        self.assert_matches_pixel_path(path, size)

    def test_samples_of_one_direction_vote_together(self, tmp_path):
        # 300 x (1, 1, 1) and 300 x (2, 2, 2) are 600 pixels of one unit
        # vector, which beat 424 pixels of another: a vote on raw samples
        # would pick the 424
        rng = np.random.default_rng(3)
        samples = np.full((32, 64, 3), 500)
        samples[:, :32] = shuffled_cell(rng, 32, [(1, 1, 1), (2, 2, 2), (900, 40, 7)],
                                        [300, 300, 424])
        path = tmp_path / "gt.ppm"
        write_ppm(path, samples)
        self.assert_matches_pixel_path(path, 32)
        assert np.allclose(load_grid_ground_truth(path, 32).estimates[0, 0], 3 ** -0.5)

    @pytest.mark.parametrize("triples, counts", [
        ([(7, 3, 1), (1, 3, 7)], [18, 18]),
        ([(7, 3, 1), (1, 3, 7), (4, 4, 1)], [12, 12, 12]),
        # a tie between two raw samples of one direction and a third sample
        ([(2, 2, 2), (9, 1, 1), (1, 1, 1)], [9, 18, 9]),
    ])
    def test_ties_go_to_the_earliest_pixel(self, tmp_path, triples, counts):
        rng = np.random.default_rng(len(triples))
        samples = np.concatenate(
            [shuffled_cell(rng, 6, triples, counts) for _ in range(5)], axis=1)
        path = tmp_path / "gt.ppm"
        write_ppm(path, samples)
        self.assert_matches_pixel_path(path, 6)
        loop = oracles.loop_grid_ground_truth(load_illuminant_map_ppm(path), 6)
        assert np.array_equal(load_grid_ground_truth(path, 6).estimates,
                              loop / np.linalg.norm(loop, axis=2, keepdims=True))

    @pytest.mark.parametrize("where", [(0, 0), (20, 30), (34, 3), (-1, -1)])
    def test_zero_vector_inside_or_outside_the_grid(self, tmp_path, where):
        # 35x45 at patch size 16: rows 32-34 and columns 32-44 lie outside the grid
        samples = np.full((35, 45, 3), 1000)
        samples[where] = 0
        path = tmp_path / "gt.ppm"
        write_ppm(path, samples)
        self.assert_same_error(path, 16, FormatError, "zero vectors")

    def test_map_smaller_than_one_patch(self, tmp_path):
        samples = np.full((15, 40, 3), 1000)
        path = tmp_path / "gt.ppm"
        write_ppm(path, samples)
        self.assert_same_error(path, 16, ShapeMismatchError, "smaller than one patch")
        # the zero check comes first
        samples[-1, -1] = 0
        write_ppm(path, samples)
        self.assert_same_error(path, 16, FormatError, "zero vectors")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "gt.ppm"
        write_ppm(path, np.full((8, 8, 3), 1000))
        path.write_bytes(path.read_bytes()[:-1])
        self.assert_same_error(path, 4, FormatError, "truncated payload")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_pixel_path_on_small_maps(self, data):
        size = data.draw(st.integers(1, 5), label="size")
        gh, gw = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        extra_h, extra_w = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        # few small triples and their multiples, so raw samples often share a direction
        triple = st.builds(lambda base, k: tuple(k * c for c in base),
                           st.tuples(*[st.integers(0, 3)] * 3).filter(any), st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        samples = np.empty((gh * size + extra_h, gw * size + extra_w, 3), dtype=np.int64)
        for gy in range(-(-samples.shape[0] // size)):
            for gx in range(-(-samples.shape[1] // size)):
                palette = np.array(data.draw(st.lists(triple, min_size=1, max_size=4)))
                cell = samples[gy * size : (gy + 1) * size, gx * size : (gx + 1) * size]
                cell[:] = palette[rng.integers(0, len(palette), size=cell.shape[:2])]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "gt.ppm"
            write_ppm(path, samples)
            self.assert_matches_pixel_path(path, size)


class TestExports:
    @pytest.mark.parametrize("grid, size", [((2, 3), 32), ((3, 1), 5), ((1, 1), 1), ((4, 7), 2)])
    def test_ppm_bytes_match_full_size_quantizing(self, tmp_path, grid, size):
        rng = np.random.default_rng(size)
        m = IlluminantMap(unit_rows(rng.uniform(0.0, 1.0, size=grid + (3,))), patch_size=size)
        path = tmp_path / "map.ppm"
        save_map_ppm(m, path)
        assert path.read_bytes() == oracles.repeat_then_quantize_map(m.estimates, size)

    def test_ppm_upscaled_by_patch_size(self, tmp_path):
        m = random_map((2, 3), seed=11)
        path = tmp_path / "map.ppm"
        save_map_ppm(m, path)
        img = load_ppm16(path)
        assert (img.width, img.height) == (3 * 32, 2 * 32)
        # every pixel of a cell is the same color
        cell = img.data[:32, :32]
        assert np.allclose(cell, cell[0, 0][None, None, :], atol=1e-12)

    @pytest.mark.parametrize("grid", [(1, 1), (1, 9), (6, 1), (37, 56)])
    def test_csv_bytes_match_csv_writer(self, tmp_path, grid):
        rng = np.random.default_rng(grid[0] * 100 + grid[1])
        cells = unit_rows(rng.uniform(0.0, 1.0, size=grid + (3,)))
        cells[-1, -1] = (0.0, 1.0, 0.0)  # exact zeros and one
        m = IlluminantMap(cells, patch_size=32)
        save_map_csv(m, tmp_path / "map.csv")
        oracles.csv_writer_map_csv(m, tmp_path / "oracle.csv")
        got = (tmp_path / "map.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + grid[0] * grid[1]
        assert got.endswith(b",0.000000000,1.000000000,0.000000000\r\n")

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
