"""Quantile-substitution estimator for the field coefficients.

The ordered sample at rank ``floor(n*l/(2b+1)) + 1`` converges to the field
value at grid point ``l/(2b+1)``, so plugging those ranked values into the
inverse grid transform estimates the coefficients.  The estimate is a plain
`FourierCoefficients`, so `eval_field` reconstructs it; the exact
coefficient-space distortion follows.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    FourierCoefficients,
    build_dft_matrix,
    _check_bandwidth,
    _check_coeffs,
    _grid_to_coeffs,
    _horner_eval,
)
from .sampling import SampleSet, extract_quantile_samples, quantile_indices


def estimate_coeffs(s: SampleSet, b: int) -> FourierCoefficients:
    """Estimate the 2b+1 coefficients from an ordered sample set.

    Applies the inverse grid transform to the values at the quantile ranks.
    Refuses ``n < 2b+1`` since fewer samples cannot supply distinct ranks.
    For a bounded source field every coefficient has magnitude at most one,
    by the triangle inequality.
    """
    ranks = quantile_indices(s.n, b)
    g = extract_quantile_samples(s, ranks)
    est = _grid_to_coeffs(build_dft_matrix(b), g)
    return FourierCoefficients._checked(est, _check_coeffs(est, capped=False))


def estimate_at(coeffs: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """The ``(T, 2b+1)`` estimates from T trials' stacked `quantile_locations`, for one
    field's ``coeffs`` or a stack of them; row i equals `estimate_coeffs` on trial i, bitwise."""
    b = (coeffs.shape[-1] - 1) // 2
    est = _grid_to_coeffs(build_dft_matrix(b), _horner_eval(coeffs, b, locations))
    _check_coeffs(est, capped=False)
    return est


def distortion(e: FourierCoefficients, truth: FourierCoefficients) -> float:
    """Squared L2 distance between reconstruction and truth.

    Computed exactly in coefficient space as the sum of squared coefficient
    differences; equal to the integral of the squared field difference over
    one period.
    """
    if e.b != truth.b:
        raise ValueError(f"bandwidth mismatch: estimate b={e.b}, truth b={truth.b}")
    return float(np.sum(np.abs(e.coeffs - truth.coeffs) ** 2))


def distortion_bound(b: int) -> float:
    """Asymptotic bound on n times the expected distortion: pi^2 b^2 (2b+1)."""
    _check_bandwidth(b)
    return np.pi**2 * b**2 * (2 * b + 1)
