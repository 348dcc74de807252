"""Derivative/Minkowski-norm illuminant estimators (the gray-world family).

A single response formula covers the classic statistical estimators: smooth
the image at scale sigma, take the magnitude of the order-n derivative, and
reduce each channel with a Minkowski p-norm. Named presets select the six
standard (n, p, sigma) triples; p = inf means the channel-wise maximum.

The stages pass plain float64 arrays: `gaussian_smooth` and
`derivative_magnitude` take and return (H, W, 3) ndarrays, and only
`minkowski_response` and `minkowski_estimate` take a `LinearImage`.
Smoothing runs scipy's `correlate1d` in "mirror" mode on the unpadded image,
which gives the same bytes as reflect-padding by the kernel radius,
correlating with zero fill and cropping (tests/oracles.py keeps that form).
Nothing between the stages checks the data; `minkowski_estimate` instead
tests the 3-vector response for NaN or Inf, which is where an overflow in any
stage ends up, and raises `NumericFaultError`.

Repeat runs give the same bits. The channel means of `minkowski_response` are
not pairwise sums: numpy reduces axis 0 of the (N, 3) response row by row, so
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


@dataclass(frozen=True)
class EdgeFrameworkParams:
    """(n, p, sigma): derivative order, Minkowski norm, Gaussian scale."""

    n: int
    p: float
    sigma: float

    def __post_init__(self):
        if self.n not in (0, 1, 2):
            raise ParameterError(f"derivative order must be 0, 1 or 2, got {self.n}")
        if not (self.p > 0):  # also rejects NaN; inf is allowed
            raise ParameterError(f"Minkowski norm must be > 0 or inf, got {self.p}")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ParameterError(f"sigma must be finite and >= 0, got {self.sigma}")
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
    """1-D Gaussian taps truncated at radius ceil(3*sigma), normalized to sum 1."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_smooth(data: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing of an (H, W, 3) array, mirror borders.

    sigma = 0 returns `data` itself.
    """
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return data
    # imported here, not at module load: scipy.ndimage is about half the
    # import time of every patchcc command, and only smoothing needs it
    from scipy import ndimage

    kernel = gaussian_kernel(sigma)
    out = ndimage.correlate1d(data, kernel, axis=0, mode="mirror")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="mirror")
    # Gaussian taps are nonnegative, so any negative output is roundoff noise.
    return np.maximum(out, 0.0, out=out)


def derivative_magnitude(data: np.ndarray, n: int) -> np.ndarray:
    """Per-channel magnitude of the order-n spatial derivative of (H, W, 3) data.

    n=0 returns `data` itself (the pixels are nonnegative, so it is their
    absolute value), n=1 the central-difference gradient magnitude, n=2 the
    Hessian magnitude sqrt(dxx^2 + dyy^2 + 2*dxy^2). Borders are replicated
    before differencing. The in-place steps keep the operation order of the
    plain expressions in the comments, so the bits are theirs.
    """
    if n == 0:
        return data
    if n not in (1, 2):
        raise ParameterError(f"derivative order must be 0, 1 or 2, got {n}")
    p = np.pad(data, ((1, 1), (1, 1), (0, 0)), mode="edge")
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
    Returned unnormalized; `minkowski_estimate` handles normalization.
    """
    response = derivative_magnitude(gaussian_smooth(img.data, params.sigma), params.n)
    flat = response.reshape(-1, 3)
    if math.isinf(params.p):
        reduced = flat.max(axis=0)
    else:
        powered = flat if params.p == 1.0 else np.power(flat, params.p)
        reduced = np.power(powered.mean(axis=0), 1.0 / params.p)
    # n = 0 skips np.abs, so a channel of -0.0 pixels reduces to -0.0;
    # adding +0.0 turns it into the +0.0 that np.abs gave and changes no other value
    return reduced + 0.0


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
