"""Derivative/Minkowski-norm illuminant estimators (the gray-world family).

A single response formula covers the classic statistical estimators: smooth
the image at scale sigma, take the magnitude of the order-n derivative, and
reduce each channel with a Minkowski p-norm. Named presets select the six
standard (n, p, sigma) triples; p = inf means the channel-wise maximum.

`minkowski_response` holds one full-size array at most: for sigma > 0, the
axis-0 smoothing pass over the whole image. Everything after it runs in
strips of `STRIP_ROWS` image rows: the axis-1 smoothing pass of the strip's
rows (plus one halo row above and below for n >= 1), the clamp at 0, the
order-n derivative (edges replicated only at the image's true borders), the
power, and the fold into the per-channel reduction. The stages pass plain
float64 arrays: `gaussian_smooth` and `derivative_magnitude` take and return
ndarrays, and only `minkowski_response` and `minkowski_estimate` take a
`LinearImage`. Smoothing runs scipy's `correlate1d` in "mirror" mode on the
unpadded rows, which gives the same bytes as reflect-padding by the kernel
radius, correlating with zero fill and cropping (tests/oracles.py keeps that
form). Nothing between the stages checks the data; `minkowski_estimate`
instead tests the 3-vector response for NaN or Inf, which is where an
overflow in any stage ends up, and raises `NumericFaultError`.

The strips change no byte of the whole-image form (tests/oracles.py
`wrapped_minkowski_response`), whatever `STRIP_ROWS` is: every stage is
elementwise or works on single rows or columns, the maximum is exact in any
order (a strip reduces its contiguous (rows, W*3) view first), and the
channel sums go on row by row across strips. Numpy reduces axis 0 of an
(N, 3) array row by row, so each strip's reduction starts from the running
total as its first row and gives the bits of one `mean(axis=0)` over the
whole image. Repeat runs give the same bits. These sums are not pairwise, so
their relative error grows with N (2e-14 to 9e-14 at 1800x1200 pixels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEstimateError, NumericFaultError, ParameterError
from .image import Illuminant, LinearImage, normalize, neutral_illuminant

PRESETS = {
    "GW": (0, 1.0, 0.0),  # Gray World
    "WP": (0, math.inf, 0.0),  # White Point
    "SoG": (0, 4.0, 0.0),  # Shades of Gray
    "gGW": (0, 9.0, 9.0),  # general Gray World
    "GE1": (1, 1.0, 6.0),  # 1st-order Gray Edge
    "GE2": (2, 1.0, 1.0),  # 2nd-order Gray Edge
}

# image rows per strip of `minkowski_response`. At 1800 px wide a 32-row
# strip is 1.4 MB per float64 temporary; 16 to 128 rows ran within noise of
# each other on one 1800x1200 image
STRIP_ROWS = 32
# largest Gaussian scale, far wider than any image: its kernel has 600,001
# taps (4.8 MB). Much wider kernels cannot be allocated at all (sigma = 1e12
# would take 43.7 TiB, and numpy refuses the size of sigma = 1e300)
MAX_SIGMA = 1e5


@dataclass(frozen=True)
class EdgeFrameworkParams:
    """(n, p, sigma): derivative order, Minkowski norm, Gaussian scale.

    n is 0, 1 or 2; p > 0 or inf; 0 <= sigma <= `MAX_SIGMA` (1e5), and
    sigma > 0 for n >= 1. Anything else raises `ParameterError`.
    """

    n: int
    p: float
    sigma: float

    def __post_init__(self):
        if self.n not in (0, 1, 2):
            raise ParameterError(f"derivative order must be 0, 1 or 2, got {self.n}")
        if not (self.p > 0):  # also rejects NaN; inf is allowed
            raise ParameterError(f"Minkowski norm must be > 0 or inf, got {self.p}")
        if not 0 <= self.sigma <= MAX_SIGMA:  # also rejects NaN and inf
            raise ParameterError(f"sigma must be in [0, {MAX_SIGMA:g}], got {self.sigma}")
        if self.n >= 1 and self.sigma == 0:
            raise ParameterError("derivative orders >= 1 need sigma > 0")


def preset(name: str) -> EdgeFrameworkParams:
    """Look up one of the six named estimator parameterizations."""
    if name not in PRESETS:
        raise ParameterError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESETS)}"
        )
    n, p, sigma = PRESETS[name]
    return EdgeFrameworkParams(n=n, p=p, sigma=sigma)


def gaussian_kernel(sigma: float) -> np.ndarray:
    """1-D Gaussian taps truncated at radius ceil(3*sigma), normalized to sum 1.

    0 < sigma <= `MAX_SIGMA`, else `ParameterError`.
    """
    if not 0 < sigma <= MAX_SIGMA:  # also rejects NaN
        raise ParameterError(f"sigma must be in (0, {MAX_SIGMA:g}], got {sigma}")
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_smooth(data: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    """Correlate (H, W, 3) data with `gaussian_kernel(sigma)` along one axis,
    mirror borders, into a new array.

    Each line along `axis` is correlated on its own, so the rows of an
    axis-1 pass over a strip of rows are the bytes of those rows of the pass
    over the whole array.
    """
    # imported here, not at module load: scipy.ndimage is about half the
    # import time of every patchcc command, and only smoothing needs it
    from scipy import ndimage

    return ndimage.correlate1d(data, gaussian_kernel(sigma), axis=axis, mode="mirror")


def derivative_magnitude(data: np.ndarray, n: int, halo: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Per-channel magnitude of the order-n spatial derivative of (H, W, 3) data.

    n=0 returns `data` itself (the pixels are nonnegative, so it is their
    absolute value), n=1 the central-difference gradient magnitude, n=2 the
    Hessian magnitude sqrt(dxx^2 + dyy^2 + 2*dxy^2). For n >= 1, `halo`
    counts the rows (0 or 1) that `data` holds above and below the rows to
    differentiate, which are read but get no output row; where there is no
    such row (the image's top or bottom) the edge row is replicated, and
    columns are always replicated. The default (0, 0) differentiates every
    row of `data`. The in-place steps keep the operation order of the plain
    expressions in the comments, so the bits are theirs.
    """
    if n == 0:
        return data
    if n not in (1, 2):
        raise ParameterError(f"derivative order must be 0, 1 or 2, got {n}")
    top, bottom = halo
    p = np.pad(data, ((1 - top, 1 - bottom), (1, 1), (0, 0)), mode="edge")
    c = p[1:-1, 1:-1]
    up, down = p[:-2, 1:-1], p[2:, 1:-1]
    left, right = p[1:-1, :-2], p[1:-1, 2:]
    if n == 1:
        # sqrt(dx*dx + dy*dy), dx = 0.5*(right - left), dy = 0.5*(down - up)
        dx = np.subtract(right, left)
        dx *= 0.5
        dy = np.subtract(down, up)
        dy *= 0.5
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)
    # sqrt(dxx*dxx + dyy*dyy + (2.0*dxy)*dxy), dxx = (right - 2.0*c) + left,
    # dyy = (down - 2.0*c) + up, dxy = 0.25*(((se - sw) - ne) + nw)
    twice_c = np.multiply(c, 2.0)
    dxx = np.subtract(right, twice_c)
    dxx += left
    dyy = np.subtract(down, twice_c, out=twice_c)
    dyy += up
    dxy = np.subtract(p[2:, 2:], p[2:, :-2])
    dxy -= p[:-2, 2:]
    dxy += p[:-2, :-2]
    dxy *= 0.25
    dxx *= dxx
    dyy *= dyy
    dxx += dyy
    np.multiply(dxy, 2.0, out=dyy)
    dyy *= dxy
    dxx += dyy
    return np.sqrt(dxx, out=dxx)


def minkowski_response(img: LinearImage, params: EdgeFrameworkParams) -> np.ndarray:
    """Per-channel Minkowski-p reduction of the smoothed derivative magnitude.

    Finite p computes (sum |v|^p / N)^(1/p); p = inf takes the channel maximum.
    Returned unnormalized; `minkowski_estimate` handles normalization. Works
    in strips of `STRIP_ROWS` image rows (see the module docstring).
    """
    n, p, sigma = params.n, params.p, params.sigma
    data = img.data
    if sigma > 0:
        data = gaussian_smooth(data, sigma, axis=0)  # the one full-size array
    height = data.shape[0]
    halo = 1 if n else 0  # rows the derivative reads above and below a strip
    total = np.full(3, -np.inf) if math.isinf(p) else np.zeros(3)
    for top in range(0, height, STRIP_ROWS):
        bottom = min(top + STRIP_ROWS, height)
        first, last = max(top - halo, 0), min(bottom + halo, height)
        rows = data[first:last]
        if sigma > 0:
            rows = gaussian_smooth(rows, sigma, axis=1)
            # Gaussian taps are nonnegative, so any negative output is roundoff noise.
            np.maximum(rows, 0.0, out=rows)
        values = derivative_magnitude(rows, n, (top - first, last - bottom))
        if math.isinf(p):
            # a max is exact in any order: down the contiguous (rows, W*3)
            # view first, then over the one row of (W, 3) that is left
            column_max = values.reshape(len(values), -1).max(axis=0)
            np.maximum(total, column_max.reshape(-1, 3).max(axis=0), out=total)
            continue
        values = values.reshape(-1, 3)
        # the running total heads the strip's rows, so the reduction goes on
        # adding row by row, as one reduction over the whole image would
        block = np.empty((len(values) + 1, 3))
        block[0] = total
        if p == 1.0:
            block[1:] = values
        else:
            np.power(values, p, out=block[1:])
        total = np.add.reduce(block, axis=0)
    if not math.isinf(p):
        total = np.power(total / (height * data.shape[1]), 1.0 / p)
    # n = 0 skips np.abs, so a channel of -0.0 pixels has the maximum -0.0;
    # adding +0.0 turns it into the +0.0 that np.abs gave and changes no other value
    return total + 0.0


def minkowski_estimate(img: LinearImage, params: EdgeFrameworkParams) -> Illuminant:
    """Estimate the scene illuminant direction from channel statistics."""
    response = minkowski_response(img, params)
    if not np.all(np.isfinite(response)):
        raise NumericFaultError(
            f"non-finite response {response} for (n={params.n}, p={params.p}, "
            f"sigma={params.sigma}): the image overflows the estimator"
        )
    if not np.any(response > 0):
        raise DegenerateEstimateError(
            f"all-zero response for (n={params.n}, p={params.p}, sigma={params.sigma})"
        )
    return normalize(response)


def do_nothing() -> Illuminant:
    """Baseline that always answers the achromatic illuminant."""
    return neutral_illuminant()


# name -> estimator of one image's illuminant: Do Nothing and the six presets.
# The lambdas look `minkowski_estimate` up at call time, so a wrapper installed
# on this module (perfbench's tracer) sees every call.
ESTIMATORS = {
    "DN": lambda img: do_nothing(),
    **{name: (lambda img, name=name: minkowski_estimate(img, preset(name))) for name in PRESETS},
}
