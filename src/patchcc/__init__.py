"""Patch-based color constancy toolkit.

Statistical illuminant estimators (the Minkowski-norm gray-world family), a
small trainable patch network with pooling and angular fine-tuning, local
illuminant maps for spatially varying light, and an angular-error benchmark
harness over 16-bit linear PPM datasets.
"""

from .errors import (
    DegenerateEstimateError,
    EstimationImpossibleError,
    FormatError,
    ImageTooSmallError,
    InvalidIlluminantError,
    NumericFaultError,
    ParameterError,
    PipelineError,
    SamplingImpossibleError,
    ShapeMismatchError,
)
from .image import (
    Illuminant,
    LinearImage,
    cast_illuminant,
    compose_two_illuminants,
    correct_von_kries,
    load_ppm16,
    neutral_illuminant,
    normalize,
    save_ppm16,
)
from .minkowski import (
    EdgeFrameworkParams,
    do_nothing,
    gaussian_smooth,
    derivative_magnitude,
    minkowski_estimate,
    preset,
)
from .patches import (
    ExclusionMask,
    PatchBatch,
    extract_grid_patches,
    histogram_stretch,
    resize_max_side,
    sample_random_patches,
)
from .network import (
    HyperParams,
    NetworkParams,
    angular_loss,
    euclidean_loss,
    forward,
    gradient_check,
    init_params,
    load_params,
    save_params,
    sgd_step,
)
from .evaluation import ErrorStats, angular_error, summarize
from .estimator import (
    estimate_image,
    fine_tune,
    pool_average,
    pool_median,
    train,
)
from .localmap import (
    IlluminantMap,
    angular_error_map,
    estimate_local_map,
    filter_gaussian_3x3,
    filter_median_3x3,
    grid_ground_truth,
    load_grid_ground_truth,
)
from .benchmark import benchmark
from .dataset import (
    DatasetManifest,
    LabeledImage,
    SynthConfig,
    generate_dataset,
    load_manifest,
    load_samples,
    save_manifest,
)

__version__ = "0.1.0"
