import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from patchcc.errors import FormatError, ImageTooSmallError, InvalidIlluminantError, PipelineError
from patchcc.image import (
    Illuminant,
    LinearImage,
    cast_illuminant,
    compose_two_illuminants,
    correct_von_kries,
    load_illuminant_map_ppm,
    load_ppm16,
    neutral_illuminant,
    normalize,
    save_illuminant_map_ppm,
    save_ppm16,
)


def random_image(shape, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return LinearImage(rng.uniform(lo, hi, size=shape))


class TestNormalize:
    def test_symmetric(self):
        ill = normalize((1, 1, 1))
        assert np.allclose(ill.rgb, 1 / math.sqrt(3))
        assert ill.normalized

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

    def test_normalized_tag_checked(self):
        with pytest.raises(InvalidIlluminantError):
            Illuminant(np.array([0.5, 0.5, 0.5]), normalized=True)


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

    def test_saturation_counter(self):
        img = LinearImage(np.full((1, 1, 3), 0.9))
        out = correct_von_kries(img, neutral_illuminant())
        assert out.meta["saturated_values"] == 3
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

    def test_requires_normalized(self):
        with pytest.raises(InvalidIlluminantError):
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
