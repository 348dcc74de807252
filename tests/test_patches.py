import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchcc.errors import ParameterError, SamplingImpossibleError
from patchcc.image import LinearImage
from patchcc.patches import (
    ExclusionMask,
    extract_grid_patches,
    histogram_stretch,
    resize_max_side,
    sample_random_patches,
)

import oracles
from helpers import batch_of


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
