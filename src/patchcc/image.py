"""Linear-RGB images, illuminant vectors, diagonal casting/correction, and 16-bit PPM IO.

Pixel data lives in float64 numpy arrays of shape (height, width, 3) holding
linear radiometric values, read-only so images can be shared freely between
workers. Decoding divides the 16-bit samples into one such array in strips
of `LANE_STRIP_ROWS` rows spread over the CPUs (`lanes.spread`). A
`LinearImage` takes ownership of a C-contiguous array that owns its memory
(`base is None`), such as a fresh result of numpy arithmetic, and freezes it
in place; any other array, a view included, is copied first. So an array
must not be written after it is wrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    ImageTooSmallError,
    InvalidIlluminantError,
    ShapeMismatchError,
)
from .lanes import spread

PPM_MAXVAL = 65535

# image rows per strip of the full-size passes spread over the CPUs, the
# 16-bit scaling here and the grid stretch (`patches.stretched_grid_patches`,
# in whole tile rows): a 160x160 scene is one strip, so the small scenes of
# training and fine-tuning touch no thread pool, and an 1800x1200 one makes
# eight strips
LANE_STRIP_ROWS = 160

# Unit illuminant vectors are stored in PPM files scaled by this factor so the
# largest possible component (1.0) still fits below maxval.
ILLUMINANT_MAP_SCALE = 1.0 / math.sqrt(3.0)


def vector_norms(v) -> np.ndarray:
    """Length of each vector along the last axis: one dot product per vector,
    with the bits of `np.linalg.norm` of that vector alone."""
    return np.sqrt(np.vecdot(v, v))


@dataclass(frozen=True, eq=False)
class Illuminant:
    """An RGB light color of unit Euclidean length, nonnegative with at
    least one positive component: the illuminant is only recoverable up to
    scale. `normalize` makes one from any nonnegative, nonzero 3-vector.
    """

    rgb: np.ndarray

    def __post_init__(self):
        rgb = np.asarray(self.rgb, dtype=np.float64).reshape(3).copy()
        if not np.all(np.isfinite(rgb)):
            raise InvalidIlluminantError(f"non-finite illuminant components: {rgb}")
        if np.any(rgb < 0):
            raise InvalidIlluminantError(f"negative illuminant components: {rgb}")
        if not np.any(rgb > 0):
            raise InvalidIlluminantError("illuminant is the zero vector")
        norm = vector_norms(rgb)
        if abs(norm - 1.0) > 1e-9:
            raise InvalidIlluminantError(f"illuminant is not of unit length: |v|={norm}")
        rgb.setflags(write=False)
        object.__setattr__(self, "rgb", rgb)

    def __repr__(self):
        r, g, b = self.rgb
        return f"Illuminant({r:.6f}, {g:.6f}, {b:.6f})"


def normalize(v) -> Illuminant:
    """Scale a nonnegative, nonzero 3-vector to unit Euclidean length."""
    if isinstance(v, Illuminant):
        v = v.rgb
    arr = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(arr)):
        raise InvalidIlluminantError(f"non-finite vector: {arr}")
    if np.any(arr < 0):
        raise InvalidIlluminantError(f"negative components: {arr}")
    norm = float(vector_norms(arr))
    if norm == 0.0:
        raise InvalidIlluminantError("cannot normalize the zero vector")
    return Illuminant(arr / norm)


def neutral_illuminant() -> Illuminant:
    """The achromatic unit illuminant (1,1,1)/sqrt(3)."""
    return normalize((1.0, 1.0, 1.0))


@dataclass(frozen=True, eq=False)
class LinearImage:
    """Immutable linear-RGB raster: data[y, x] = (R, G, B), finite and >= 0.

    Values are nominally in [0, 1] (scaled 16-bit samples) but may exceed 1
    after von Kries correction; no upper clamp is applied anywhere.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ShapeMismatchError(f"expected (H, W, 3) pixel array, got {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ImageTooSmallError(f"image dimensions must be >= 1, got {data.shape}")
        # min and max propagate NaN, so they also find every non-finite value
        lo, hi = float(data.min()), float(data.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ShapeMismatchError("pixel data contains non-finite values")
        if lo < 0:
            raise ShapeMismatchError("pixel data contains negative values")
        if data.base is not None or not data.flags.c_contiguous:
            data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def __repr__(self):
        return f"LinearImage({self.width}x{self.height})"


def cast_illuminant(img: LinearImage, ill: Illuminant) -> LinearImage:
    """Multiply each pixel channel-wise by an illuminant.

    Synthesis inverse of `correct_von_kries`; used to build ground-truth
    scenes with a known light color.
    """
    return LinearImage(img.data * ill.rgb[None, None, :])


def correct_von_kries(img: LinearImage, ill: Illuminant) -> LinearImage:
    """Divide each pixel channel-wise by the illuminant (diagonal correction).

    The output is clamped below at 0 but not above 1.
    """
    if np.any(ill.rgb <= 0):
        raise InvalidIlluminantError(
            f"von Kries correction needs strictly positive channels, got {ill.rgb}"
        )
    out = img.data / ill.rgb[None, None, :]
    return LinearImage(np.maximum(out, 0.0))


def compose_two_illuminants(
    img: LinearImage, left: Illuminant, right: Illuminant
) -> tuple[LinearImage, np.ndarray]:
    """Cast the left half of the image with one illuminant and the right half
    with another.

    Columns [0, width//2) get `left`, the rest get `right`. Returns the cast
    image and an (H, W, 3) per-pixel ground-truth map of unit illuminants.
    """
    if img.width < 2:
        raise ImageTooSmallError("two-illuminant composition needs width >= 2")
    split = img.width // 2
    out = np.empty_like(img.data)
    out[:, :split, :] = img.data[:, :split, :] * left.rgb[None, None, :]
    out[:, split:, :] = img.data[:, split:, :] * right.rgb[None, None, :]
    gt = np.empty_like(img.data)
    gt[:, :split, :] = left.rgb
    gt[:, split:, :] = right.rgb
    return LinearImage(out), gt


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Read one whitespace-delimited header token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("unexpected end of header", offset=pos)
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace() and buf[pos : pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos


def _parse_ppm16(buf: bytes) -> np.ndarray:
    """The (H, W, 3) big-endian samples of a 16-bit P6 PPM, a read-only view
    of `buf`."""
    magic, pos = _next_token(buf, 0)
    if magic != b"P6":
        raise FormatError(f"not a binary PPM (magic {magic!r})", offset=0)
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"bad {name} field {tok!r}", offset=pos - len(tok)) from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}", offset=pos)
    if maxval != PPM_MAXVAL:
        raise FormatError(f"maxval must be {PPM_MAXVAL}, got {maxval}", offset=pos)
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise FormatError("missing whitespace after maxval", offset=pos)
    pos += 1
    count = width * height * 3
    got = len(buf) - pos
    if got < 2 * count:
        raise FormatError(
            f"truncated payload: expected {2 * count} bytes, got {got}", offset=pos
        )
    return np.frombuffer(buf, dtype=">u2", count=count, offset=pos).reshape(height, width, 3)


def _read_ppm16(path) -> np.ndarray:
    """The (H, W, 3) big-endian samples of a 16-bit PPM file, a read-only
    view of its bytes."""
    with open(path, "rb") as fh:
        return _parse_ppm16(fh.read())


def _scaled_samples(samples: np.ndarray) -> np.ndarray:
    """16-bit samples (..., 3) scaled to [0, 1], as a new float64 array.

    Strips of `LANE_STRIP_ROWS` entries of the first axis run through
    `lanes.spread`, each divided straight into its rows of the result.
    A sample's float64 value is exact, so each result is one correctly
    rounded division: the bits of the whole-array form on any number of
    CPUs."""
    out = np.empty(samples.shape)

    def strip(first: int):
        rows = slice(first, first + LANE_STRIP_ROWS)
        np.divide(samples[rows], PPM_MAXVAL, out=out[rows])

    spread(strip, range(0, len(samples), LANE_STRIP_ROWS))
    return out


def load_ppm16(path) -> LinearImage:
    """Load a binary P6 PPM with 16-bit big-endian samples, scaled to [0, 1]."""
    return LinearImage(_scaled_samples(_read_ppm16(path)))


def _quantize16(values: np.ndarray) -> np.ndarray:
    """Clamp to [0, 1] and quantize to 16 bits with round-half-up."""
    q = np.clip(values, 0.0, 1.0)
    q *= PPM_MAXVAL
    q += 0.5
    np.floor(q, out=q)
    return q.astype(">u2")


def _write_ppm16(samples: np.ndarray, path, comment: str | None = None, cell_size: int = 1):
    """Write (H, W, 3) big-endian 16-bit samples as a binary P6 PPM, each
    sample as a cell_size x cell_size block. Each band of cell_size file rows
    is built from one repeated row and written at once, so no full-size copy
    is made."""
    header = b"P6\n"
    if comment:
        header += b"# " + comment.encode("ascii") + b"\n"
    height, width = samples.shape[0] * cell_size, samples.shape[1] * cell_size
    header += f"{width} {height}\n{PPM_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        if cell_size == 1:
            fh.write(samples.tobytes())
            return
        for row in samples:
            fh.write(np.repeat(row, cell_size, axis=0).tobytes() * cell_size)


def save_ppm16(img: LinearImage, path):
    """Write a binary P6 PPM with 16-bit big-endian samples."""
    _write_ppm16(_quantize16(img.data), path)


def save_illuminant_map_ppm(gt_map: np.ndarray, path, cell_size: int = 1):
    """Serialize a map of unit illuminants as a 16-bit PPM, each map pixel
    written as a cell_size x cell_size block.

    Components are scaled by 1/sqrt(3) so every unit vector fits in [0, 1];
    the scaling is recorded in a header comment. Quantizing commutes with
    the repetition, so the map is checked and quantized at its own size and
    repeated only as it is written, one band of cell_size rows at a time.
    """
    if cell_size < 1:
        raise ImageTooSmallError(f"cell size must be >= 1, got {cell_size}")
    scaled = LinearImage(np.asarray(gt_map, dtype=np.float64) * ILLUMINANT_MAP_SCALE)
    _write_ppm16(_quantize16(scaled.data), path,
                 comment="illuminant map: unit RGB scaled by 65535/sqrt(3)", cell_size=cell_size)


def read_map_samples(path) -> np.ndarray:
    """The (H, W, 3) big-endian samples of an illuminant map file, a
    read-only view of its bytes. Raises `FormatError` when any pixel of the
    map, inside a patch grid or not, is the zero vector: its three 16-bit
    words are 0, whatever their byte order."""
    samples = _read_ppm16(path)
    words = samples.view(np.uint16)
    if not (words[..., 0] | words[..., 1] | words[..., 2]).all():
        raise FormatError("illuminant map contains zero vectors")
    return samples


def map_sample_units(samples: np.ndarray) -> np.ndarray:
    """The unit illuminants of nonzero 16-bit map samples (..., 3), as a new
    float64 array: scale to [0, 1], unscale by `ILLUMINANT_MAP_SCALE`, then
    divide by `np.linalg.norm` along the last axis. Every step is
    elementwise, so equal samples give equal bits wherever they lie."""
    units = _scaled_samples(samples)
    units /= ILLUMINANT_MAP_SCALE
    units /= np.linalg.norm(units, axis=-1, keepdims=True)
    return units


def load_illuminant_map_ppm(path) -> np.ndarray:
    """Read a map written by `save_illuminant_map_ppm`, each pixel made a
    unit illuminant by `map_sample_units`. Raises `FormatError` on a zero
    vector."""
    return map_sample_units(read_map_samples(path))
