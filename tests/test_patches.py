import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchcc import lanes
from patchcc.errors import ParameterError, SamplingImpossibleError
from patchcc.image import LANE_STRIP_ROWS, LinearImage, load_ppm16
from patchcc.patches import (
    RESIZE_STRIP_ROWS,
    PatchBatch,
    ExclusionMask,
    extract_grid_patches,
    histogram_stretch,
    resize_max_side,
    sample_random_patches,
    stretch_into,
    stretched_grid_patches,
)

import oracles
from helpers import batch_of, exact_taps, write_ppm


def random_image(shape, seed=0):
    rng = np.random.default_rng(seed)
    return LinearImage(rng.uniform(0.0, 1.0, size=shape))


class TestResize:
    def test_downscale_rule(self):
        img = LinearImage(np.full((1600, 2400, 3), 0.3))
        out = resize_max_side(img, 1200)
        assert (out.width, out.height) == (1200, 800)
        assert np.allclose(out.data, 0.3, atol=1e-12)

    def test_never_upscales(self):
        img = random_image((600, 800, 3))
        assert resize_max_side(img, 1200) is img

    def test_rounding(self):
        img = LinearImage(np.zeros((100, 333, 3)))
        out = resize_max_side(img, 100)
        # 333 -> 100, 100 * 100/333 = 30.03 -> 30
        assert (out.width, out.height) == (100, 30)

    def test_bilinear_ramp_preserved(self):
        # a linear horizontal ramp stays linear under bilinear downscaling
        data = np.broadcast_to(np.linspace(0, 1, 64)[None, :, None], (32, 64, 3)).copy()
        out = resize_max_side(LinearImage(data), 32)
        row = out.data[10, :, 0]
        diffs = np.diff(row[1:-1])
        assert np.allclose(diffs, diffs[0], atol=1e-9)


class TestGridPatches:
    def test_64x64_size_32(self):
        img = random_image((64, 64, 3))
        patches = extract_grid_patches(img, 32)
        assert patches.origins.tolist() == [[0, 0], [32, 0], [0, 32], [32, 32]]
        assert patches.data.shape == (4, 32, 32, 3)

    def test_partial_borders_discarded(self):
        img = random_image((40, 70, 3))
        assert len(extract_grid_patches(img, 32)) == 2

    def test_patch_content_is_source_window(self):
        img = random_image((64, 64, 3), seed=1)
        patches = extract_grid_patches(img, 32)
        assert patches.origins[1].tolist() == [32, 0]
        assert np.array_equal(patches.data[1], img.data[0:32, 32:64, :])

    def test_smaller_than_patch_gives_empty(self):
        patches = extract_grid_patches(random_image((10, 10, 3)), 32)
        assert len(patches) == 0 and patches.data.shape == (0, 32, 32, 3)

    def test_disjoint_and_covering(self):
        h, w, size = 13, 17, 4
        img = LinearImage((np.arange(h * w * 3).reshape(h, w, 3) % 256) / 255.0)
        patches = extract_grid_patches(img, size)
        assert len(patches) == (w // size) * (h // size)
        seen = np.zeros((h, w), dtype=int)
        for (x, y), data in zip(patches.origins, patches.data):
            seen[y : y + size, x : x + size] += 1
            assert np.array_equal(data, img.data[y : y + size, x : x + size])
        assert seen.max() <= 1
        assert seen[: (h // size) * size, : (w // size) * size].min() == 1
        assert seen.sum() == len(patches) * size * size


class TestRandomSampling:
    def test_deterministic_for_seed(self):
        img = random_image((48, 64, 3))
        a = sample_random_patches(img, 16, 10, seed=42)
        b = sample_random_patches(img, 16, 10, seed=42)
        assert np.array_equal(a.origins, b.origins)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        img = random_image((48, 64, 3))
        a = sample_random_patches(img, 16, 10, seed=1)
        b = sample_random_patches(img, 16, 10, seed=2)
        assert not np.array_equal(a.origins, b.origins)

    def test_mask_forces_right_half(self):
        img = random_image((32, 64, 3))
        mask = ExclusionMask.from_rects([(0, 0, 32, 32)])
        patches = sample_random_patches(img, 32, 25, mask=mask, seed=3)
        # the only mask-free origin is x = 32 (footprints [x, x+32) must miss [0, 32))
        assert len(patches) == 25 and np.all(patches.origins == [32, 0])

    def test_count_zero(self):
        patches = sample_random_patches(random_image((32, 32, 3)), 16, 0)
        assert len(patches) == 0 and patches.data.shape == (0, 16, 16, 3)

    def test_mask_everything_impossible(self):
        img = random_image((32, 32, 3))
        mask = ExclusionMask.from_rects([(0, 0, 32, 32)])
        with pytest.raises(SamplingImpossibleError):
            sample_random_patches(img, 16, 1, mask=mask, seed=0)

    def test_huge_rectangle_rejected(self):
        with pytest.raises(ParameterError):
            ExclusionMask.from_rects([(0, 0, 2**62, 2**62)])

    def test_image_too_small(self):
        with pytest.raises(SamplingImpossibleError):
            sample_random_patches(random_image((8, 8, 3)), 16, 1)

    def test_footprints_never_touch_mask(self):
        img = random_image((60, 80, 3), seed=4)
        rects = [(5, 5, 20, 12), (40, 30, 25, 20)]
        mask = ExclusionMask.from_rects(rects)
        patches = sample_random_patches(img, 10, 200, mask=mask, seed=5)
        assert len(patches) == 200
        for x, y in patches.origins:
            for rx, ry, rw, rh in rects:
                overlap_x = max(0, min(x + 10, rx + rw) - max(x, rx))
                overlap_y = max(0, min(y + 10, ry + rh) - max(y, ry))
                assert overlap_x * overlap_y == 0

    def test_composite_seed_contract(self):
        # per-image generators keyed by (global_seed, image_index)
        img = random_image((40, 40, 3))
        a = sample_random_patches(img, 8, 5, seed=[7, 0])
        b = sample_random_patches(img, 8, 5, seed=[7, 1])
        assert not np.array_equal(a.origins, b.origins)


class TestResampledMask:
    @pytest.mark.parametrize("shape", [(70, 190), (40, 240), (133, 37)])
    @pytest.mark.parametrize("size", [1, 5, 16])
    def test_a_patch_touches_a_mapped_rectangle_iff_its_source_span_does(self, shape, size):
        # rectangles of one pixel and more, inside the image, across its
        # edges and outside it
        src = random_image(shape + (3,), seed=6)
        dst = resize_max_side(src, 120)
        rng = np.random.default_rng(size)
        rects = [(0, 0, 1, 1), (src.width - 1, src.height - 1, 1, 1), (-9, -9, 4, 4),
                 (src.width, 0, 5, src.height)]
        rects += [(int(rng.integers(-10, src.width + 10)), int(rng.integers(-10, src.height + 10)),
                   int(rng.integers(1, 12)), int(rng.integers(1, 12))) for _ in range(6)]
        mask = ExclusionMask.from_rects(rects).resampled(src, dst)
        oy, ox = np.mgrid[: dst.height - size + 1, : dst.width - size + 1].reshape(2, -1)
        lo_x, hi_x = exact_taps(src.width, dst.width)
        lo_y, hi_y = exact_taps(src.height, dst.height)
        # the source span a patch reads, from its first pixel's low tap to its
        # last pixel's high one
        x0, x1, y0, y1 = lo_x[ox], hi_x[ox + size - 1], lo_y[oy], hi_y[oy + size - 1]
        touches = np.zeros(len(ox), bool)
        for rx, ry, rw, rh in rects:
            touches |= (x0 < rx + rw) & (rx <= x1) & (y0 < ry + rh) & (ry <= y1)
        assert 0 < touches.sum() < len(touches)
        assert np.array_equal(mask.intersects(np.stack([ox, oy], axis=1), size), touches)

    def test_an_image_left_at_its_size_keeps_its_mask(self):
        img = random_image((40, 60, 3))
        mask = ExclusionMask.from_rects([(3, 4, 5, 6)])
        assert mask.resampled(img, resize_max_side(img, 1200)) is mask


class TestHistogramStretch:
    def test_affine_map_example(self):
        data = np.full((2, 2, 3), 0.4)
        data[0, 0, 0] = 0.2
        data[1, 1, 2] = 0.6
        out = histogram_stretch(batch_of(data))
        assert out.data[0][0, 1, 1] == pytest.approx(0.5)
        assert out.data.min() == 0.0 and out.data.max() == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        data = rng.uniform(0.1, 0.9, size=(8, 8, 3))
        a = histogram_stretch(batch_of(data))
        b = histogram_stretch(batch_of(0.25 * data))
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_constant_patch_degenerate(self):
        out = histogram_stretch(batch_of(np.full((4, 4, 3), 0.7)))
        assert out.degenerate == 1
        assert len(out) == 0 and out.origins.shape == (0, 2)

    def test_joint_not_per_channel(self):
        # red spans [0.2, 0.4], green is constant 0.3: a per-channel stretch
        # would blow green up; the joint stretch keeps it strictly inside (0, 1)
        data = np.zeros((2, 2, 3))
        data[:, 0] = [0.2, 0.3, 0.25]
        data[:, 1] = [0.4, 0.3, 0.25]
        out = histogram_stretch(batch_of(data))
        patch = out.data[0]
        assert np.allclose(patch[:, :, 1], 0.5)
        assert np.all(patch[:, 0, 0] == 0.0) and np.all(patch[:, 1, 0] == 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.05, 20.0),
        st.floats(0.0, 5.0),
    )
    def test_affine_invariance_property(self, seed, a, b):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 1.0, size=(4, 4, 3))
        data[0, 0, 0], data[1, 1, 1] = 0.0, 1.0  # guarantee contrast
        s1 = histogram_stretch(batch_of(data))
        s2 = histogram_stretch(batch_of(a * data + b))
        assert s1.degenerate == s2.degenerate == 0
        assert np.max(np.abs(s1.data - s2.data)) < 1e-9

    def test_attains_zero_and_one(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            data = np.random.default_rng(seed).uniform(0.2, 0.8, size=(6, 6, 3))
            out = histogram_stretch(batch_of(data))
            assert out.data.min() == 0.0
            assert out.data.max() == 1.0


SAMPLING_CASES = {
    "no_mask": ((48, 64), 16, 40, (), 42),
    "composite_seed": ((40, 40), 8, 25, (), [7, 3]),
    "patch_fills_width": ((40, 16), 16, 30, (), 5),
    "patch_fills_height": ((16, 40), 16, 30, (), 6),
    "mask_forces_rejections": ((60, 80), 10, 200, ((5, 5, 20, 12), (40, 30, 25, 20)), 5),
    "one_free_column": ((32, 64), 32, 25, ((0, 0, 32, 32),), 3),
    "several_chunks": ((50, 300), 4, 3000, ((0, 0, 250, 50),), 11),
}


class TestArrayPipelineMatchesLoops:
    """The array pipeline against the per-patch loops in tests/oracles.py."""

    @pytest.mark.parametrize("case", list(SAMPLING_CASES))
    def test_sampling_matches_loop(self, case):
        shape, size, count, rects, seed = SAMPLING_CASES[case]
        img = random_image(shape + (3,), seed=1)
        batch = sample_random_patches(img, size, count, ExclusionMask.from_rects(rects), seed)
        origins, patches = oracles.loop_sample_patches(img.data, size, count, rects, seed)
        assert np.array_equal(batch.origins, np.array(origins).reshape(-1, 2))
        assert np.array_equal(batch.data, np.array(patches).reshape(-1, size, size, 3))

    def test_rejection_limit_matches_loop(self):
        # one free origin among 4000: runs of more than 10,000 rejections
        # happen for some seeds and not for others
        img = random_image((1, 4000, 3))
        rects = ((1, 0, 3999, 1),)
        mask = ExclusionMask.from_rects(rects)
        outcomes = set()
        for seed in range(12):
            try:
                expected = oracles.loop_sample_patches(img.data, 1, 3, rects, seed)
            except SamplingImpossibleError:
                with pytest.raises(SamplingImpossibleError):
                    sample_random_patches(img, 1, 3, mask, seed)
                outcomes.add("raised")
            else:
                batch = sample_random_patches(img, 1, 3, mask, seed)
                assert batch.origins.tolist() == [list(o) for o in expected[0]]
                outcomes.add("sampled")
        assert outcomes == {"raised", "sampled"}

    def test_stretch_matches_loop(self):
        rng = np.random.default_rng(21)
        data = rng.uniform(0.0, 1.0, size=(30, 6, 6, 3))
        data[3] = 0.25                       # flat
        data[7] = 0.5 + 1e-13 * rng.uniform(size=(6, 6, 3))  # range below 1e-12
        data[8] = 0.5
        data[8, 0, 0, 0] += 2e-12            # range just above 1e-12
        data[20:24] = rng.uniform(0.3, 0.4)  # a run of flat patches
        batch = batch_of(*data)
        out = histogram_stretch(batch)
        expected = [oracles.loop_histogram_stretch(p) for p in data]
        kept = [i for i, e in enumerate(expected) if e is not None]
        assert out.degenerate == len(data) - len(kept) == 6
        assert np.array_equal(out.data, np.stack([expected[i] for i in kept]))
        assert np.array_equal(out.origins, batch.origins[kept])

    def test_grid_then_stretch_matches_loop(self):
        img = random_image((40, 70, 3), seed=3)
        data = img.data.copy()
        data[0:8, 8:16] = 0.6  # one flat tile
        img = LinearImage(data)
        out = histogram_stretch(extract_grid_patches(img, 8))
        expected = [
            ((x, y), oracles.loop_histogram_stretch(data[y : y + 8, x : x + 8]))
            for y in range(0, 40, 8) for x in range(0, 64, 8)
        ]
        expected = [(o, p) for o, p in expected if p is not None]
        assert out.degenerate == 1
        assert out.origins.tolist() == [list(o) for o, _ in expected]
        assert np.array_equal(out.data, np.stack([p for _, p in expected]))


# (height, width), patch size, count, exclusion rectangles, seed; every case
# draws origins at x = W - S and y = H - S
GATHER_CASES = {
    "non_square": ((37, 61), 8, 400, (), 1),
    "tall": ((70, 20), 5, 400, (), 2),
    "size_one": ((9, 13), 1, 400, (), 3),
    "size_is_the_width": ((30, 12), 12, 100, (), 4),
    "size_is_both_sides": ((16, 16), 16, 5, (), 5),
    "masked": ((60, 80), 10, 600, ((5, 5, 20, 12), (40, 30, 25, 20)), 6),
}


class TestOnePassFormsMatchParentForms:
    """Resizing and stretching against their earlier full-resolution forms
    in tests/oracles.py, bit for bit."""

    # (height, width), target: every scale here is non-integer
    @pytest.mark.parametrize("shape, target", [
        ((181, 120), 120), ((121, 173), 100), ((50, 50), 33), ((7, 300), 128), ((300, 2), 17),
    ])
    def test_bilinear_matches_row_gathers(self, shape, target):
        img = random_image(shape + (3,), seed=shape[0])
        out = resize_max_side(img, target)
        assert max(out.width, out.height) == target
        expected = oracles.row_gather_bilinear(img.data, out.height, out.width)
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("shape, target, out_shape", [
        # the paper's downscale of an 1800x1200 image
        ((1200, 1800), 1200, (800, 1200)),
        # 37 output rows: two whole strips and a short one
        ((57, 80), 52, (2 * RESIZE_STRIP_ROWS + 5, 52)),
    ])
    def test_strips_match_row_gathers_on_any_cpu_count(self, monkeypatch, cpus, shape, target,
                                                       out_shape):
        # `spread` runs the strips in one lane on one CPU and in several on four
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        img = random_image(shape + (3,), seed=shape[1])
        out = resize_max_side(img, target)
        assert out.data.shape[:2] == out_shape
        expected = oracles.row_gather_bilinear(img.data, *out_shape)
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", list(GATHER_CASES))
    def test_gather_matches_fancy_index(self, case):
        (h, w), size, count, rects, seed = GATHER_CASES[case]
        img = random_image((h, w, 3), seed=seed)
        batch = sample_random_patches(img, size, count, ExclusionMask.from_rects(rects), seed)
        assert (batch.origins[:, 0] == w - size).any() and (batch.origins[:, 1] == h - size).any()
        expected = oracles.fancy_index_patches(img.data, batch.origins, size)
        assert batch.data.shape == expected.shape == (count, size, size, 3)
        assert batch.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("flat", ["none", "some", "all"])
    def test_stretch_matches_two_temporaries(self, flat):
        rng = np.random.default_rng(31)
        data = rng.uniform(0.0, 3.0, size=(12, 5, 5, 3))
        if flat == "some":
            data[[0, 5, 11]] = 0.4
            data[7] = 0.5 + 1e-13 * rng.uniform(size=(5, 5, 3))
        elif flat == "all":
            data[:] = rng.uniform(size=(12, 1, 1, 1))
        before = data.copy()
        batch = PatchBatch(data, rng.integers(0, 100, size=(12, 2)))
        expected, keep = oracles.two_temporary_histogram_stretch(data)
        for dtype in (np.float64, np.float32):
            out = histogram_stretch(batch, dtype)
            assert out.data.dtype == dtype
            assert out.data.tobytes() == expected.astype(dtype).tobytes()
            assert np.array_equal(out.origins, batch.origins[keep])
            assert out.degenerate == len(data) - keep.sum() == {"none": 0, "some": 4,
                                                                "all": 12}[flat]
        assert np.array_equal(batch.data, before)  # the input batch is left alone

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("flat", ["none", "some", "all"])
    def test_stretch_into_matches_histogram_stretch(self, flat, dtype):
        rng = np.random.default_rng(33)
        data = rng.uniform(0.0, 3.0, size=(12, 5, 5, 3))
        if flat == "some":
            data[[0, 5, 11]] = 0.4
        elif flat == "all":
            data[:] = 0.6
        expected = histogram_stretch(PatchBatch(data.copy(), np.zeros((12, 2), int)), dtype)
        out = np.full((14, 5, 5, 3), 7.0, dtype)
        kept = stretch_into(data, out[1:])
        assert kept == len(expected) == {"none": 12, "some": 9, "all": 0}[flat]
        assert out[1 : kept + 1].tobytes() == expected.data.tobytes()
        assert (out[0] == 7.0).all() and (out[kept + 1 :] == 7.0).all()

    @pytest.mark.parametrize("flat", ["none", "some", "all"])
    def test_grid_stretch_matches_two_temporaries(self, flat):
        # 45x70 leaves partial border tiles on both axes
        rng = np.random.default_rng(32)
        data = rng.uniform(0.0, 3.0, size=(45, 70, 3))
        if flat == "some":
            data[0:8, 8:16] = 0.4
            data[16:24, 56:64] = 0.5 + 1e-13 * rng.uniform(size=(8, 8, 3))
        elif flat == "all":
            data[:] = 0.7
        img = LinearImage(data)
        before = img.data.copy()
        tiles = extract_grid_patches(img, 8)
        expected, keep = oracles.two_temporary_histogram_stretch(tiles.data)
        for dtype in (np.float64, np.float32):
            out = stretched_grid_patches(img, 8, dtype)
            assert out.data.dtype == dtype
            assert out.data.shape == expected.shape and out.data.flags.c_contiguous
            assert out.data.tobytes() == expected.astype(dtype).tobytes()
            assert np.array_equal(out.origins, tiles.origins[keep])
            assert out.degenerate == len(keep) - keep.sum() == {"none": 0, "some": 2,
                                                                "all": 40}[flat]
        assert np.array_equal(img.data, before)  # the image is left alone

    def test_grid_stretch_smaller_than_patch_is_empty(self):
        out = stretched_grid_patches(random_image((10, 40, 3)), 16)
        assert out.data.shape == (0, 16, 16, 3) and out.origins.shape == (0, 2)
        assert out.degenerate == 0

    def test_grid_stretch_copies_the_tiles_once(self):
        img = random_image((400, 600, 3), seed=4)
        tracemalloc.start()
        try:
            out = stretched_grid_patches(img, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 12 * 18
        assert peak < 1.25 * out.data.nbytes


class TestStretchStripsMatchSinglePass:
    """The grid stretch runs in strips of LANE_STRIP_ROWS // size tile rows over
    the CPUs; it must give the bits, origins and flat count of the
    single-pass form (tests/oracles.py) on any number of them."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("size", [16, 32])
    def test_bits_on_any_cpu_count(self, monkeypatch, cpus, dtype, size):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        rows = LANE_STRIP_ROWS // size  # tile rows per strip
        # two whole strips, a partial third, and partial border tiles
        grid_h = 2 * rows + rows // 2 + 1
        rng = np.random.default_rng(size)
        data = rng.uniform(0.0, 3.0, size=(grid_h * size + 5, 7 * size + 3, 3))
        # flat tiles in every strip, one near-flat, and the second strip's
        # last tile row all flat
        flat = [(0, 0), (rows - 1, 6), (rows + 1, 3), (2 * rows, 0), (grid_h - 1, 6)]
        for ty, tx in flat:
            data[ty * size : (ty + 1) * size, tx * size : (tx + 1) * size] = 0.25 * (tx + 1)
        data[size : 2 * size, :size] = 0.5 + 1e-13 * rng.uniform(size=(size, size, 3))
        data[(2 * rows - 1) * size : 2 * rows * size] = 0.7
        img = LinearImage(data)
        before = img.data.copy()
        out = stretched_grid_patches(img, size, dtype)
        expected, origins, degenerate = oracles.single_pass_grid_stretch(img.data, size, dtype)
        assert out.data.dtype == dtype and out.data.flags.c_contiguous
        assert out.data.shape == expected.shape
        assert out.data.tobytes() == expected.tobytes()
        assert np.array_equal(out.origins, origins)
        assert out.degenerate == degenerate == len(flat) + 1 + 7
        assert np.array_equal(img.data, before)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_every_strip_flat(self, monkeypatch, cpus):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        out = stretched_grid_patches(LinearImage(np.full((3 * LANE_STRIP_ROWS, 40, 3), 0.3)), 16)
        assert out.data.shape == (0, 16, 16, 3) and out.origins.shape == (0, 2)
        assert out.degenerate == 3 * (LANE_STRIP_ROWS // 16) * 2

    def test_a_160px_scene_is_one_strip(self, tmp_path, monkeypatch):
        # small scenes, such as fine-tuning's, decode and stretch on the
        # calling thread; a taller one goes to the pool
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 4)
        pool, submitted = lanes._POOL, []

        class Recording:
            def submit(self, fn, *args):
                submitted.append(fn)
                return pool.submit(fn, *args)

        monkeypatch.setattr(lanes, "_POOL", Recording())
        rng = np.random.default_rng(5)
        for side, pooled in ((160, False), (161, True)):
            path = tmp_path / f"scene{side}.ppm"
            write_ppm(path, rng.integers(0, 65536, size=(side, 160, 3)))
            batch = stretched_grid_patches(load_ppm16(path), 32, np.float32)
            assert len(batch) == 25
            assert bool(submitted) == pooled
