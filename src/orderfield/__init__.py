"""Reconstruction of periodic bandlimited fields from ordered random samples."""

from .fields import (
    FourierCoefficients,
    build_dft_matrix,
    coeffs_from_samples,
    eval_derivative,
    eval_field,
    load_field,
    random_field,
    samples_from_coeffs,
)
from .sampling import (
    DeploymentDraw,
    SampleSet,
    deploy,
    extract_quantile_samples,
    observe,
    quantile_indices,
    quantile_locations,
    sample_quantile_locations,
    save_samples,
)
from .estimator import distortion, distortion_bound, estimate_at, estimate_coeffs
from .asymptotics import (
    CltReport,
    CovarianceBundle,
    beta_moments,
    clt_empirical_check,
    coeff_covariance,
    covariance_bundle,
    field_sample_covariance,
    pointwise_variance,
    quantile_covariance,
)
from .ambiguity import (
    AmbiguityReport,
    ambiguity_demo,
    empirical_value_cdf,
    level_measure_curve,
    shift_distortion,
    shift_field,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    SweepRow,
    load_config,
    loglog_slope,
    run_ambiguity_demo,
    run_clt_check,
    run_mse_sweep,
)

__version__ = "0.1.0"
