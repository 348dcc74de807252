"""Angular error metric and its summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidIlluminantError, ParameterError

# the summary's fields, in the column order of every report
STAT_NAMES = ("min", "prc10", "median", "mean", "prc90", "max")


def angular_error(a, b) -> float:
    """Angle in degrees between two light-color vectors.

    Symmetric and invariant to positive rescaling of either argument. The
    angle is atan2(|a x b|, a . b): arccos of the cosine would lose about
    half the digits of a small angle, whose cosine is near 1.
    """
    a = np.asarray(getattr(a, "rgb", a), dtype=np.float64).reshape(3)
    b = np.asarray(getattr(b, "rgb", b), dtype=np.float64).reshape(3)
    if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
        raise InvalidIlluminantError("angular error undefined for the zero vector")
    return float(np.degrees(np.arctan2(np.linalg.norm(np.cross(a, b)), a @ b)))


def angular_error_many(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Row-wise angular error in degrees between two (N, 3) arrays, computed
    as in `angular_error`."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    ne = np.linalg.norm(estimates, axis=-1)
    nt = np.linalg.norm(truths, axis=-1)
    if np.any(ne == 0) or np.any(nt == 0):
        raise InvalidIlluminantError("angular error undefined for the zero vector")
    sines = np.linalg.norm(np.cross(estimates, truths), axis=-1)
    return np.degrees(np.arctan2(sines, (estimates * truths).sum(axis=-1)))


@dataclass(frozen=True)
class ErrorStats:
    """Six-number summary of an angular-error sample, all in degrees."""

    min: float
    prc10: float
    median: float
    mean: float
    prc90: float
    max: float
    count: int = 0

    def as_row(self) -> tuple[float, ...]:
        """The statistics in `STAT_NAMES` order."""
        return tuple(getattr(self, name) for name in STAT_NAMES)

    def __str__(self):
        return (
            f"min {self.min:.2f}  10th {self.prc10:.2f}  med {self.median:.2f}  "
            f"avg {self.mean:.2f}  90th {self.prc90:.2f}  max {self.max:.2f}"
        )


def summarize(errors) -> ErrorStats:
    """Min, 10th percentile, median, mean, 90th percentile, and max.

    Percentiles interpolate linearly between closest ranks: the p-th
    percentile sits at fractional rank p/100 * (n - 1), zero-indexed.
    Statistics are computed on the sorted sample, so any permutation of the
    input produces bit-identical results.
    """
    arr = np.sort(np.asarray(list(errors), dtype=np.float64))
    if arr.size == 0:
        raise ParameterError("cannot summarize an empty error list")
    prc10, median, prc90 = np.percentile(arr, [10.0, 50.0, 90.0], method="linear")
    return ErrorStats(
        min=float(arr[0]),
        prc10=float(prc10),
        median=float(median),
        mean=float(arr.mean()),
        prc90=float(prc90),
        max=float(arr[-1]),
        count=int(arr.size),
    )
