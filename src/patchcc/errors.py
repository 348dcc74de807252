"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class InvalidIlluminantError(PipelineError, ValueError):
    """Illuminant vector is zero, negative, or non-finite."""


class ImageTooSmallError(PipelineError, ValueError):
    """Image is too small for the requested operation."""


class FormatError(PipelineError, ValueError):
    """Malformed file (image, weights or manifest). Carries the byte offset of
    the problem when one is known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ParameterError(PipelineError, ValueError):
    """Invalid parameter value or combination."""


class DegenerateEstimateError(PipelineError, ValueError):
    """No illuminant direction is recoverable from the data."""


class SamplingImpossibleError(PipelineError, RuntimeError):
    """Patch sampling cannot find a valid origin."""


class EstimationImpossibleError(PipelineError, RuntimeError):
    """No usable patches available for estimation."""


class NumericFaultError(PipelineError, ArithmeticError):
    """A NaN or Inf appeared where finite values are required."""


class ShapeMismatchError(PipelineError, ValueError):
    """Array shapes are inconsistent."""
