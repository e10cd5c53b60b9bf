"""Asymptotic covariances of the estimator and their Monte Carlo verification.

The scaled quantile errors converge jointly to a Gaussian whose covariance
depends only on the grid quantile levels.  Pushing that law through the
field's derivative (delta method) and the linear coefficient transform gives
the limiting second moments of the coefficient estimate; a complex linear
map of a real Gaussian needs both the Hermitian covariance E[S S^H] and the
pseudo-covariance E[S S^T] to pin down the limit.  This module computes all
of those in closed form, provides the exact finite-n Beta moments of uniform
order statistics as an oracle, and runs a seeded Monte Carlo check that
compares empirical second moments against the formulas.  The check draws
only the ranked locations the estimator reads, all trials in one
`sample_quantile_locations` call on the generator it is given: no thread
pool and no per-trial generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import estimate_at
from .fields import (
    FourierCoefficients, build_dft_matrix, eval_derivative, eval_field, _check_bandwidth,
    _freeze, _horner_eval,
)
from .io import to_json
from .sampling import quantile_indices, sample_quantile_locations


def quantile_covariance(b: int) -> np.ndarray:
    """Limiting covariance of the scaled quantile errors on the grid levels.

    Entry (i, j) is ``p_i (1 - p_j)`` for ``i <= j`` with levels
    ``p_l = l/(2b+1)``; symmetric, and identically zero in the first row and
    column because the lowest level is zero.
    """
    _check_bandwidth(b)
    p = np.arange(2 * b + 1) / (2 * b + 1)
    return np.minimum.outer(p, p) * (1.0 - np.maximum.outer(p, p))


def field_sample_covariance(c: FourierCoefficients) -> np.ndarray:
    """Delta-method covariance of the scaled grid-sample errors.

    Conjugates the quantile covariance by the diagonal matrix of field
    derivatives at the grid points.  The delta method on a real Gaussian needs
    a real derivative, so the field must be real-valued (`FourierCoefficients`'
    own rule); the derivative's imaginary rounding noise is then dropped.
    """
    if not c.real_valued:
        raise ValueError("sample covariance requires a real-valued field")
    d = eval_derivative(c, np.arange(2 * c.b + 1) / (2 * c.b + 1)).real
    return np.outer(d, d) * quantile_covariance(c.b)


def coeff_covariance(k_samples: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian and pseudo covariance of the limiting coefficient errors.

    With S the image of the real Gaussian sample-error limit X under the
    scaled conjugate-transpose grid transform, returns
    ``E[S S^H] = Phi^H K Phi / (2b+1)^2`` and
    ``E[S S^T] = Phi^H K conj(Phi) / (2b+1)^2``.
    """
    m = 2 * b + 1
    k = np.asarray(k_samples, dtype=np.float64)
    if k.shape != (m, m):
        raise ValueError(f"expected covariance of shape {(m, m)}, got {k.shape}")
    phi = build_dft_matrix(b)
    scale = float(m) ** 2
    herm = phi.conj().T @ k @ phi / scale
    pseudo = phi.conj().T @ k @ phi.conj() / scale
    return herm, pseudo


@dataclass(frozen=True, eq=False)
class CovarianceBundle:
    """All limiting covariances of the estimation pipeline for one field."""

    b: int
    quantile_cov: np.ndarray
    sample_cov: np.ndarray
    coeff_cov_herm: np.ndarray
    coeff_cov_pseudo: np.ndarray

    def __post_init__(self):
        m = 2 * self.b + 1
        for name in ("quantile_cov", "sample_cov", "coeff_cov_herm", "coeff_cov_pseudo"):
            a = np.asarray(getattr(self, name)).copy()
            if a.shape != (m, m):
                raise ValueError(f"{name} must have shape {(m, m)}, got {a.shape}")
            object.__setattr__(self, name, _freeze(a))


def covariance_bundle(c: FourierCoefficients) -> CovarianceBundle:
    """Compute the full covariance bundle for a field."""
    quant = quantile_covariance(c.b)
    samp = field_sample_covariance(c)
    herm, pseudo = coeff_covariance(samp, c.b)
    return CovarianceBundle(
        b=c.b, quantile_cov=quant, sample_cov=samp, coeff_cov_herm=herm, coeff_cov_pseudo=pseudo
    )


def pointwise_variance(bundle: CovarianceBundle, t: float) -> tuple[complex, float]:
    """Limiting second moments of the scaled reconstruction error at ``t``.

    Returns ``(E[E(t)^2], E[|E(t)|^2])`` for the complex Gaussian limit E(t)
    of the scaled pointwise error: the plain second moment is the quadratic
    form of the pseudo-covariance in the evaluation vector, the absolute one
    the Hermitian form, real and non-negative to 1e-9 of sum|coeff_cov_herm|.
    """
    k = np.arange(-bundle.b, bundle.b + 1)
    phi_t = np.exp(2j * np.pi * k * float(t))
    second = complex(phi_t @ bundle.coeff_cov_pseudo @ phi_t)
    abs_second = phi_t @ bundle.coeff_cov_herm @ np.conj(phi_t)
    if abs(abs_second.imag) > 1e-9 * np.abs(bundle.coeff_cov_herm).sum():
        raise ValueError(f"Hermitian form produced imaginary residual {abs_second.imag:.3e}")
    return second, max(float(abs_second.real), 0.0)


def beta_moments(r: int, n: int) -> tuple[float, float]:
    """Exact mean and variance of the r-th of n uniform order statistics.

    The r-th order statistic of n i.i.d. Uniform[0,1] draws is
    Beta(r, n-r+1), so the mean is ``r/(n+1)`` and the variance
    ``r (n-r+1) / ((n+1)^2 (n+2))``.
    """
    if not 1 <= r <= n:
        raise ValueError(f"rank must satisfy 1 <= r <= n, got r={r}, n={n}")
    mean = r / (n + 1)
    variance = r * (n - r + 1) / ((n + 1) ** 2 * (n + 2))
    return mean, variance


def _rel_frobenius(empirical: np.ndarray, analytic: np.ndarray) -> float:
    """Relative Frobenius distance; absolute when the reference is zero."""
    ref = float(np.linalg.norm(analytic))
    err = float(np.linalg.norm(empirical - analytic))
    return err if ref == 0.0 else err / ref


@dataclass(frozen=True, eq=False)
class QuantileMoments:
    level_index: int
    rank: int
    level: float
    mean: float
    variance: float
    beta_mean: float
    beta_variance: float


@dataclass(frozen=True, eq=False)
class PointwiseCheck:
    t: float
    analytic_second_moment: complex
    analytic_abs_second_moment: float
    empirical_second_moment: complex
    empirical_abs_second_moment: float


@dataclass(frozen=True, eq=False)
class CltReport:
    """Empirical versus analytic second moments from repeated pipelines."""

    b: int
    n: int
    trials: int
    empirical_coeff_cov: np.ndarray
    analytic_coeff_cov: np.ndarray
    coeff_cov_rel_err: float
    empirical_coeff_pseudo: np.ndarray
    analytic_coeff_pseudo: np.ndarray
    coeff_pseudo_rel_err: float
    empirical_quantile_cov: np.ndarray
    analytic_quantile_cov: np.ndarray
    quantile_cov_rel_err: float
    per_quantile_moments: tuple = ()
    pointwise_checks: tuple = ()

    def to_json_dict(self) -> dict:
        return to_json(self)


def clt_empirical_check(
    field: FourierCoefficients,
    n: int,
    trials: int,
    rng: np.random.Generator,
    eval_points=None,
) -> CltReport:
    """Run independent deploy/estimate pipelines and compare moments.

    One `sample_quantile_locations` call on ``rng`` draws every trial's
    ranked locations exactly in law, without the other n - 2b - 1 points,
    and `estimate_at` estimates all trials at once; neither a thread pool
    nor per-trial generators are involved.  Second moments of the scaled
    errors are taken about the analytic limits (which are zero-mean), and
    the quantile comparison drops the degenerate zero-level coordinate that
    the limit law excludes.  ``eval_points``, when given, must be a 1-D
    array of finite floats; anything else raises ValueError before a draw.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if eval_points is not None:
        points = np.asarray(eval_points, dtype=np.float64)
        if points.ndim != 1 or not np.isfinite(points).all():
            raise ValueError("eval_points must be a 1-D array of finite floats")
    b = field.b
    ranks = quantile_indices(n, b)
    m = 2 * b + 1
    levels = np.arange(m) / m
    sqrt_n = np.sqrt(n)
    bundle = covariance_bundle(field)

    quants = sample_quantile_locations(n, b, trials, rng)
    ests = estimate_at(field.coeffs, quants)
    coeff_errs = sqrt_n * (ests - field.coeffs)
    quant_errs = sqrt_n * (quants - levels)

    emp_coeff = coeff_errs.T @ coeff_errs.conj() / trials
    coeff_rel = _rel_frobenius(emp_coeff, bundle.coeff_cov_herm)

    emp_pseudo = coeff_errs.T @ coeff_errs / trials
    pseudo_rel = _rel_frobenius(emp_pseudo, bundle.coeff_cov_pseudo)

    # Degenerate zero-level coordinate excluded: its scaled error collapses
    # to zero and the limit law is stated for strictly interior levels.  At
    # b = 0 the slices are empty, giving (0, 0) matrices and a zero error.
    emp_quant = quant_errs[:, 1:].T @ quant_errs[:, 1:] / trials
    ana_quant = bundle.quantile_cov[1:, 1:]
    quant_rel = _rel_frobenius(emp_quant, ana_quant)

    # Row reductions over contiguous copies: each row gets the pairwise sum
    # its column got; reducing axis 0 of the C-ordered array sums sequentially.
    level_rows = np.ascontiguousarray(quants.T)
    means, variances = np.mean(level_rows, axis=1), np.var(level_rows, axis=1, ddof=1)
    moments = []
    for l in range(m):
        beta_mean, beta_var = beta_moments(int(ranks[l]), n)
        moments.append(
            QuantileMoments(
                level_index=l,
                rank=int(ranks[l]),
                level=float(levels[l]),
                mean=float(means[l]),
                variance=float(variances[l]),
                beta_mean=beta_mean,
                beta_variance=beta_var,
            )
        )

    checks = []
    if eval_points is not None:
        point_errs = sqrt_n * (_horner_eval(ests, b, points) - eval_field(field, points))
        point_rows = np.ascontiguousarray(point_errs.T)
        seconds = np.mean(point_rows**2, axis=1)
        abs_seconds = np.mean(np.abs(point_rows) ** 2, axis=1)
        for j, t in enumerate(points):
            sec, abs_sec = pointwise_variance(bundle, float(t))
            checks.append(
                PointwiseCheck(
                    t=float(t),
                    analytic_second_moment=sec,
                    analytic_abs_second_moment=abs_sec,
                    empirical_second_moment=complex(seconds[j]),
                    empirical_abs_second_moment=float(abs_seconds[j]),
                )
            )

    return CltReport(
        b=b,
        n=n,
        trials=trials,
        empirical_coeff_cov=emp_coeff,
        analytic_coeff_cov=bundle.coeff_cov_herm,
        coeff_cov_rel_err=coeff_rel,
        empirical_coeff_pseudo=emp_pseudo,
        analytic_coeff_pseudo=bundle.coeff_cov_pseudo,
        coeff_pseudo_rel_err=pseudo_rel,
        empirical_quantile_cov=emp_quant,
        analytic_quantile_cov=ana_quant,
        quantile_cov_rel_err=quant_rel,
        per_quantile_moments=tuple(moments),
        pointwise_checks=tuple(checks),
    )
