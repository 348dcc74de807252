import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patchcc.errors import (
    FormatError,
    ImageTooSmallError,
    InvalidIlluminantError,
    PipelineError,
    ShapeMismatchError,
)
from patchcc import lanes
from patchcc.image import (
    ILLUMINANT_MAP_SCALE,
    LANE_STRIP_ROWS,
    Illuminant,
    LinearImage,
    cast_illuminant,
    compose_two_illuminants,
    correct_von_kries,
    load_illuminant_map_ppm,
    load_ppm16,
    map_sample_units,
    neutral_illuminant,
    normalize,
    save_illuminant_map_ppm,
    save_ppm16,
)

import oracles
from helpers import write_ppm


def random_image(shape, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return LinearImage(rng.uniform(lo, hi, size=shape))


class TestNormalize:
    def test_symmetric(self):
        ill = normalize((1, 1, 1))
        assert np.allclose(ill.rgb, 1 / math.sqrt(3))
        assert abs(np.linalg.norm(ill.rgb) - 1) < 1e-9

    def test_axis(self):
        assert np.array_equal(normalize((2, 0, 0)).rgb, [1, 0, 0])

    def test_hand_checked(self):
        # oracle: norm of (0.3, 0.5, 0.4) is sqrt(0.09 + 0.25 + 0.16) = sqrt(0.5)
        norm = math.sqrt(0.3**2 + 0.5**2 + 0.4**2)
        expected = np.array([0.3, 0.5, 0.4]) / norm
        assert np.allclose(normalize((0.3, 0.5, 0.4)).rgb, expected, atol=1e-12)
        assert abs(np.linalg.norm(normalize((0.3, 0.5, 0.4)).rgb) - 1) < 1e-9

    @pytest.mark.parametrize("bad", [(0, 0, 0), (-1, 1, 1), (np.nan, 1, 1), (np.inf, 0, 0)])
    def test_rejects_bad_vectors(self, bad):
        with pytest.raises(InvalidIlluminantError):
            normalize(bad)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(InvalidIlluminantError, match="not of unit length"):
            Illuminant(np.array([0.5, 0.5, 0.5]))
        # within 1e-9 of unit length is accepted
        Illuminant(np.array([1 + 5e-10, 0, 0]))
        with pytest.raises(InvalidIlluminantError, match="not of unit length"):
            Illuminant(np.array([1 + 2e-9, 0, 0]))


class TestVonKries:
    def test_neutral_correction_scales(self):
        img = LinearImage(np.full((2, 2, 3), 0.2))
        out = correct_von_kries(img, neutral_illuminant())
        assert np.allclose(out.data, 0.2 * math.sqrt(3), atol=1e-12)

    def test_cast_correct_roundtrip(self):
        img = random_image((12, 9, 3), seed=1)
        ill = normalize((0.5, 0.9, 0.7))
        back = correct_von_kries(cast_illuminant(img, ill), ill)
        assert np.max(np.abs(back.data - img.data)) <= 1e-6

    def test_channelwise_quotient_oracle(self):
        img = LinearImage(np.array([[[0.4, 0.2, 0.1]]]))
        ill = normalize((0.8, 0.5, 0.33))
        out = correct_von_kries(img, ill)
        for c in range(3):  # per-pixel loop oracle
            assert out.data[0, 0, c] == pytest.approx(img.data[0, 0, c] / ill.rgb[c], abs=1e-12)

    def test_rejects_zero_channel(self):
        img = random_image((2, 2, 3))
        with pytest.raises(InvalidIlluminantError):
            correct_von_kries(img, normalize((1, 1, 0)))

    def test_not_clamped_above_one(self):
        img = LinearImage(np.full((1, 1, 3), 0.9))
        out = correct_von_kries(img, neutral_illuminant())
        assert np.all(out.data > 1.0)


class TestCast:
    def test_neutral_scales_by_inverse_sqrt3(self):
        img = random_image((4, 4, 3), seed=2)
        out = cast_illuminant(img, neutral_illuminant())
        assert np.allclose(out.data, img.data / math.sqrt(3), atol=1e-15)

    def test_white_reflects_illuminant(self):
        ill = normalize((0.6, 0.6, 0.5291))
        white = LinearImage(np.ones((1, 1, 3)))
        out = cast_illuminant(white, ill)
        assert np.array_equal(out.data[0, 0], ill.rgb)
        assert np.allclose(out.data[0, 0], [0.6, 0.6, 0.5291], atol=1e-4)

    def test_exact_per_channel_scaling(self):
        img = random_image((5, 7, 3), seed=3)
        ill = normalize((0.3, 0.8, 0.6))
        out = cast_illuminant(img, ill)
        for c in range(3):
            assert np.array_equal(out.data[:, :, c], img.data[:, :, c] * ill.rgb[c])

    def test_cast_by_a_non_unit_vector_impossible(self):
        # no Illuminant of another length exists to cast by
        with pytest.raises(InvalidIlluminantError, match="not of unit length"):
            cast_illuminant(random_image((2, 2, 3)), Illuminant(np.array([0.5, 0.5, 0.5])))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        img = LinearImage(rng.uniform(0, 1, size=(6, 5, 3)))
        ill = normalize(rng.uniform(0.1, 1.0, size=3))
        back = correct_von_kries(cast_illuminant(img, ill), ill)
        assert np.max(np.abs(back.data - img.data)) <= 1e-6


class TestComposeTwoIlluminants:
    def test_equal_illuminants_match_single_cast(self):
        img = random_image((6, 8, 3), seed=4)
        ill = normalize((0.5, 1.0, 0.8))
        composed, gt = compose_two_illuminants(img, ill, ill)
        assert np.array_equal(composed.data, cast_illuminant(img, ill).data)
        assert np.allclose(gt, ill.rgb)

    def test_split_boundary_width4(self):
        img = LinearImage(np.ones((2, 4, 3)))
        left = normalize((1, 0.5, 0.5))
        right = normalize((0.5, 0.5, 1))
        composed, gt = compose_two_illuminants(img, left, right)
        for x in (0, 1):
            assert np.array_equal(composed.data[0, x], left.rgb)
            assert np.array_equal(gt[0, x], left.rgb)
        for x in (2, 3):
            assert np.array_equal(composed.data[0, x], right.rgb)
            assert np.array_equal(gt[0, x], right.rgb)

    def test_per_pixel_oracle(self):
        img = random_image((5, 7, 3), seed=5)
        left = normalize((0.9, 0.7, 0.4))
        right = normalize((0.4, 0.7, 0.9))
        composed, gt = compose_two_illuminants(img, left, right)
        split = img.width // 2
        for y in range(img.height):
            for x in range(img.width):
                ill = left.rgb if x < split else right.rgb
                assert np.array_equal(gt[y, x], ill)
                assert np.array_equal(composed.data[y, x], img.data[y, x] * ill)

    def test_too_narrow(self):
        with pytest.raises(ImageTooSmallError):
            compose_two_illuminants(random_image((3, 1, 3)), neutral_illuminant(), neutral_illuminant())


HEADER_TOKENS = st.sampled_from([b"P6", b"P5", b"0", b"1", b"2", b"-1", b"+2", b"1_0", b"x",
                                 b"255", b"65535", b"65536", b"4294967296", b"9" * 5000])
HEADER_GAPS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"# c\n", b"#", b""])


@st.composite
def ppm_files(draw):
    """PPM file bytes and, for a well-formed file, its (H, W, 3) samples: a
    well-formed file with or without a comment, one with a few bytes cut,
    replaced or inserted, a header of drawn tokens and gaps, or any bytes."""
    kind = draw(st.sampled_from(["valid", "mutated", "tokens", "bytes"]))
    if kind in ("valid", "mutated"):
        h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        samples = np.array(draw(st.lists(st.integers(0, 65535), min_size=h * w * 3,
                                         max_size=h * w * 3)), ">u2").reshape(h, w, 3)
        comment = draw(st.sampled_from([b"", b"# c\n"]))
        data = b"P6\n" + comment + b"%d %d\n65535\n" % (w, h) + samples.tobytes()
        if kind == "valid":
            return data, samples
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.binary(max_size=3)) + data[at + draw(st.integers(0, 3)):], None
    if kind == "tokens":
        header = b"".join(draw(HEADER_TOKENS) + draw(HEADER_GAPS) for _ in range(4))
        return header + draw(st.binary(max_size=100)), None
    return draw(st.binary(max_size=64)), None


class TestPpmIO:
    @settings(max_examples=150, deadline=None)
    @given(ppm_files())
    @example((b"P6\n1 1\n65535", None))
    @example((b"P6 2 2 65535\n" + b"\x00" * 23, None))
    @example((b"P6 65535 65535 65535\n" + b"\x00" * 6, None))
    def test_round_trip_or_pipeline_error(self, case):
        data, samples = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.ppm")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                img = load_ppm16(path)
            except PipelineError:
                assert samples is None
                return
            if samples is not None:
                assert np.array_equal(img.data, samples.astype(np.float64) / 65535)
            save_ppm16(img, path)
            assert np.array_equal(load_ppm16(path).data, img.data)

    def test_single_pixel(self, tmp_path):
        path = tmp_path / "one.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes([0xFF, 0xFF, 0, 0, 0, 0]))
        img = load_ppm16(path)
        assert img.width == 1 and img.height == 1
        assert np.array_equal(img.data[0, 0], [1.0, 0.0, 0.0])

    def test_roundtrip_bound(self, tmp_path):
        img = random_image((9, 13, 3), seed=6)
        path = tmp_path / "rt.ppm"
        save_ppm16(img, path)
        back = load_ppm16(path)
        assert np.max(np.abs(back.data - img.data)) <= 1.0 / 65535

    def test_double_roundtrip_identical(self, tmp_path):
        img = random_image((4, 4, 3), seed=7)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        save_ppm16(img, a)
        save_ppm16(load_ppm16(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_names_lengths(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 5)
        with pytest.raises(FormatError) as err:
            load_ppm16(path)
        assert "expected 24 bytes" in str(err.value)
        assert "got 5" in str(err.value)
        assert err.value.offset is not None

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "8bit.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + b"\x00" * 3)
        with pytest.raises(FormatError, match="maxval"):
            load_ppm16(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "pgm.ppm"
        path.write_bytes(b"P5\n1 1\n65535\n" + b"\x00" * 2)
        with pytest.raises(FormatError, match="magic"):
            load_ppm16(path)

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n65535\n" + b"\x00" * 6)
        img = load_ppm16(path)
        assert np.array_equal(img.data[0, 0], [0, 0, 0])

    def test_round_half_up(self, tmp_path):
        # 0.5 / 65535 quantizes up to 1
        img = LinearImage(np.full((1, 1, 3), 0.5 / 65535))
        path = tmp_path / "half.ppm"
        save_ppm16(img, path)
        assert load_ppm16(path).data[0, 0, 0] == pytest.approx(1.0 / 65535)

    def test_illuminant_map_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        gt = rng.uniform(0.1, 1.0, size=(6, 4, 3))
        gt /= np.linalg.norm(gt, axis=2, keepdims=True)
        path = tmp_path / "map.ppm"
        save_illuminant_map_ppm(gt, path)
        back = load_illuminant_map_ppm(path)
        assert np.allclose(np.linalg.norm(back, axis=2), 1.0, atol=1e-12)
        assert np.max(np.abs(back - gt)) < 1e-4


class TestLinearImageInvariants:
    def test_rejects_negative(self):
        with pytest.raises(Exception):
            LinearImage(np.full((2, 2, 3), -0.1))

    def test_rejects_nan(self):
        data = np.zeros((2, 2, 3))
        data[0, 0, 0] = np.nan
        with pytest.raises(Exception):
            LinearImage(data)

    def test_immutable(self):
        img = random_image((2, 2, 3))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 5.0

    def test_allows_values_above_one(self):
        img = LinearImage(np.full((1, 1, 3), 1.7))
        assert img.data.max() == 1.7


class TestLinearImageOwnership:
    def test_fresh_owned_array_adopted_and_frozen(self):
        data = np.random.default_rng(1).uniform(size=(3, 4, 3))
        img = LinearImage(data)
        assert np.shares_memory(img.data, data)
        assert not data.flags.writeable
        with pytest.raises(ValueError):
            data[0, 0, 0] = 0.5

    @pytest.mark.parametrize("kind", ["view", "read_only_view", "buffer", "fortran"])
    def test_other_arrays_copied(self, kind):
        base = np.random.default_rng(2).uniform(size=(4, 5, 3))
        data = {
            "view": base[1:],
            "read_only_view": base[:, 1:],
            "buffer": np.frombuffer(base.tobytes()).reshape(base.shape),
            "fortran": np.asfortranarray(base),
        }[kind]
        if kind == "read_only_view":
            data.setflags(write=False)
        img = LinearImage(data)
        assert not np.shares_memory(img.data, data)
        assert img.data.flags.c_contiguous and not img.data.flags.writeable
        assert np.array_equal(img.data, data)
        assert base.flags.writeable

    def test_converted_input_left_writable(self):
        data = np.full((2, 2, 3), 0.25, dtype=np.float32)
        img = LinearImage(data)
        assert img.data.dtype == np.float64 and data.flags.writeable

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
        (-1e-300, "negative"),
    ])
    def test_invalid_values_still_raise(self, bad, message):
        data = np.full((3, 3, 3), 0.5)
        data[2, 1, 0] = bad
        with pytest.raises(ShapeMismatchError, match=message):
            LinearImage(data)
        assert data.flags.writeable  # a rejected array is not frozen

    def test_non_finite_reported_before_negative(self):
        data = np.full((2, 2, 3), -0.5)
        data[1, 1, 2] = np.nan
        with pytest.raises(ShapeMismatchError, match="non-finite"):
            LinearImage(data)

    def test_negative_zero_allowed(self):
        assert LinearImage(np.full((1, 1, 3), -0.0)).data.min() == 0.0


def exact_half_steps():
    """Map components v, one per 16-bit code k, with v / sqrt(3) * 65535
    exactly k + 0.5 in float64."""
    found = []
    for k in range(0, 65535, 2311):
        v0 = (k + 0.5) / 65535 / ILLUMINANT_MAP_SCALE
        steps = [v0 + n * np.spacing(v0) for n in range(-64, 65)]
        found += [v for v in steps if v * ILLUMINANT_MAP_SCALE * 65535 == k + 0.5][:1]
    return np.array(found)


class TestIlluminantMapMatchesParentForms:
    """The map encoder and decoder against their earlier full-resolution
    forms in tests/oracles.py, byte for byte."""

    @pytest.mark.parametrize("cell_size", [1, 3, 32])
    def test_half_steps_and_values_above_one(self, tmp_path, cell_size):
        halves = exact_half_steps()
        assert len(halves) > 20
        values = np.concatenate([halves, [0.0, 1.0, 1.7, 1.0 / ILLUMINANT_MAP_SCALE, 5.0, 1e300]])
        gt = np.resize(values, 7 * 5 * 3).reshape(7, 5, 3)
        path = tmp_path / "map.ppm"
        save_illuminant_map_ppm(gt, path, cell_size=cell_size)
        data = path.read_bytes()
        assert data == oracles.repeat_then_quantize_map(gt, cell_size)
        codes = np.frombuffer(data[-gt.size * cell_size**2 * 2:], ">u2")
        assert codes.max() == 65535
        # round half up: each exact half step lands on the code above it
        one = tmp_path / "one.ppm"
        save_illuminant_map_ppm(halves.reshape(1, -1, 1).repeat(3, axis=2), one)
        k = np.frombuffer(one.read_bytes()[-halves.size * 6:], ">u2")[::3]
        assert np.array_equal(k.astype(float), np.floor(halves * ILLUMINANT_MAP_SCALE * 65535) + 1)

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_invalid_map_raises_before_writing(self, tmp_path, bad):
        gt = np.full((2, 3, 3), 0.5)
        gt[1, 2, 1] = bad
        path = tmp_path / "map.ppm"
        with pytest.raises(ShapeMismatchError):
            save_illuminant_map_ppm(gt, path, cell_size=4)
        with pytest.raises(ShapeMismatchError):
            oracles.repeat_then_quantize_map(gt, 4)
        assert not path.exists()

    @pytest.mark.parametrize("cell_size", [0, -2])
    def test_cell_size_below_one_raises(self, tmp_path, cell_size):
        with pytest.raises(ImageTooSmallError):
            save_illuminant_map_ppm(np.full((2, 2, 3), 0.5), tmp_path / "m.ppm", cell_size)

    @pytest.mark.parametrize("shape", [(1, 1), (23, 37), (70, 45), (32, 9)])
    def test_load_matches_linear_image_form(self, tmp_path, shape):
        rng = np.random.default_rng(shape[0])
        samples = rng.integers(0, 65536, size=shape + (3,))
        samples[0, 0] = (1, 0, 0)
        samples[-1, -1] = 65535
        path = tmp_path / "map.ppm"
        write_ppm(path, samples)
        back = load_illuminant_map_ppm(path)
        assert back.tobytes() == oracles.linear_image_illuminant_map(path).tobytes()
        assert back.flags.writeable

    @pytest.mark.parametrize("where", [(0, 0), (5, 7), (-1, -1)])
    def test_zero_vector_raises_inside_and_outside_the_grid(self, tmp_path, where):
        # 35x45 at patch size 16: (-1, -1) lies outside the 2x2 grid of cells
        samples = np.full((35, 45, 3), 1000)
        samples[where] = 0
        path = tmp_path / "map.ppm"
        write_ppm(path, samples)
        for load in (load_illuminant_map_ppm, oracles.linear_image_illuminant_map):
            with pytest.raises(FormatError, match="zero vectors"):
                load(path)

    def test_round_trip_through_a_synthesized_map(self, tmp_path):
        img = random_image((40, 50, 3), seed=4)
        left, right = normalize((1.0, 0.7, 0.3)), normalize((0.2, 0.6, 1.0))
        _, gt = compose_two_illuminants(img, left, right)
        path = tmp_path / "gt.ppm"
        save_illuminant_map_ppm(gt, path)
        assert path.read_bytes() == oracles.repeat_then_quantize_map(gt, 1)
        assert load_illuminant_map_ppm(path).tobytes() == (
            oracles.linear_image_illuminant_map(path).tobytes())


class TestScalingStripsMatchWholeArrayForm:
    """16-bit samples are scaled in strips of LANE_STRIP_ROWS rows over the CPUs;
    the bits must be those of the whole-array form (tests/oracles.py) on any
    number of them."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("height", [1, LANE_STRIP_ROWS, 2 * LANE_STRIP_ROWS + 37])
    def test_bits_on_any_cpu_count(self, tmp_path, monkeypatch, cpus, height):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
        width = -(-65536 // (3 * height))  # room for every 16-bit code
        rng = np.random.default_rng(height)
        samples = rng.permutation(np.arange(height * width * 3) % 65536)
        samples = samples.reshape(height, width, 3)
        path = tmp_path / "img.ppm"
        write_ppm(path, samples)
        expected = oracles.whole_array_scaled_samples(samples.astype(">u2"))
        assert load_ppm16(path).data.tobytes() == expected.tobytes()
        units = map_sample_units(np.maximum(samples, 1).astype(">u2"))
        want = oracles.whole_array_scaled_samples(np.maximum(samples, 1).astype(">u2"))
        want /= ILLUMINANT_MAP_SCALE
        want /= np.linalg.norm(want, axis=-1, keepdims=True)
        assert units.tobytes() == want.tobytes()
