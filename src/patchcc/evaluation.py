"""Angular error metric and its summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidIlluminantError, ParameterError
from .image import vector_norms

# the summary's fields, in the column order of every report
STAT_NAMES = ("min", "prc10", "median", "mean", "prc90", "max")


def angular_error_many(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Angle in degrees between matching light-color vectors along the last
    axis of two arrays, such as (N, 3) rows against (N, 3) or (3,) truths.

    Symmetric and invariant to positive rescaling of either argument. The
    angle is atan2(|e x t|, e . t), as arccos would lose half the digits of a
    small angle; each norm, and e . t, is one dot product per vector
    (`vector_norms`), so row i has the bits of `angular_error(e[i], t[i])`.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if np.any(vector_norms(estimates) == 0) or np.any(vector_norms(truths) == 0):
        raise InvalidIlluminantError("angular error undefined for the zero vector")
    sines = vector_norms(np.cross(estimates, truths))
    return np.degrees(np.arctan2(sines, np.vecdot(estimates, truths)))


def angular_error(a, b) -> float:
    """`angular_error_many` of one pair of 3-vectors or `.rgb` illuminants."""
    a, b = (np.reshape(getattr(v, "rgb", v), (1, 3)) for v in (a, b))
    return float(angular_error_many(a, b)[0])


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
