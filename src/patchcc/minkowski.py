"""Derivative/Minkowski-norm illuminant estimators (the gray-world family).

A single response formula covers the classic statistical estimators: smooth
the image at scale sigma, take the magnitude of the order-n derivative, and
reduce each channel with a Minkowski p-norm. Named presets select the six
standard (n, p, sigma) triples; p = inf means the channel-wise maximum.

All reductions use numpy's pairwise summation, so repeat runs are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEstimateError, ParameterError
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
    allow_unsmoothed: bool = False

    def __post_init__(self):
        if self.n not in (0, 1, 2):
            raise ParameterError(f"derivative order must be 0, 1 or 2, got {self.n}")
        if not (self.p > 0):  # also rejects NaN; inf is allowed
            raise ParameterError(f"Minkowski norm must be > 0 or inf, got {self.p}")
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise ParameterError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.n >= 1 and self.sigma == 0 and not self.allow_unsmoothed:
            raise ParameterError(
                "derivative orders >= 1 need sigma > 0 (or allow_unsmoothed=True)"
            )


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


def gaussian_smooth(img: LinearImage, sigma: float) -> LinearImage:
    """Separable Gaussian smoothing with reflect (mirror) border padding.

    sigma = 0 returns the input unchanged.
    """
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return img
    # imported here, not at module load: scipy.ndimage is about half the
    # import time of every patchcc command, and only smoothing needs it
    from scipy import ndimage

    kernel = gaussian_kernel(sigma)
    radius = (len(kernel) - 1) // 2
    padded = np.pad(img.data, ((radius, radius), (radius, radius), (0, 0)), mode="reflect")
    out = ndimage.correlate1d(padded, kernel, axis=0, mode="constant")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="constant")
    out = out[radius:-radius, radius:-radius, :]
    # Gaussian taps are nonnegative, so any negative output is roundoff noise.
    return LinearImage(np.maximum(out, 0.0))


def _pad_edge(data: np.ndarray) -> np.ndarray:
    return np.pad(data, ((1, 1), (1, 1), (0, 0)), mode="edge")


def derivative_magnitude(img: LinearImage, n: int) -> LinearImage:
    """Per-channel magnitude of the order-n spatial derivative.

    n=0 is the absolute value, n=1 the central-difference gradient magnitude,
    n=2 the Hessian magnitude sqrt(dxx^2 + dyy^2 + 2*dxy^2). Borders are
    replicated before differencing.
    """
    if n == 0:
        return LinearImage(np.abs(img.data))
    p = _pad_edge(img.data)
    c = p[1:-1, 1:-1]
    up, down = p[:-2, 1:-1], p[2:, 1:-1]
    left, right = p[1:-1, :-2], p[1:-1, 2:]
    if n == 1:
        dx = 0.5 * (right - left)
        dy = 0.5 * (down - up)
        return LinearImage(np.sqrt(dx * dx + dy * dy))
    if n == 2:
        dxx = right - 2.0 * c + left
        dyy = down - 2.0 * c + up
        dxy = 0.25 * (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2])
        return LinearImage(np.sqrt(dxx * dxx + dyy * dyy + 2.0 * dxy * dxy))
    raise ParameterError(f"derivative order must be 0, 1 or 2, got {n}")


def minkowski_response(img: LinearImage, params: EdgeFrameworkParams) -> np.ndarray:
    """Per-channel Minkowski-p reduction of the smoothed derivative magnitude.

    Finite p computes (sum |v|^p / N)^(1/p); p = inf takes the channel maximum.
    Returned unnormalized; `minkowski_estimate` handles normalization.
    """
    response = derivative_magnitude(gaussian_smooth(img, params.sigma), params.n).data
    flat = response.reshape(-1, 3)
    if math.isinf(params.p):
        return flat.max(axis=0)
    powered = flat if params.p == 1.0 else np.power(flat, params.p)
    return np.power(powered.mean(axis=0), 1.0 / params.p)


def minkowski_estimate(img: LinearImage, params: EdgeFrameworkParams) -> Illuminant:
    """Estimate the scene illuminant direction from channel statistics."""
    response = minkowski_response(img, params)
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
