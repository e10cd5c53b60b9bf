"""Why unordered samples cannot identify the field.

The empirical distribution of the bare values converges to the measure of
the sublevel sets of the field, and every cyclic shift of the field has the
same sublevel-set measures.  Shifted fields are genuinely different (their
squared L2 distance is an explicit coefficient-space sum) yet produce
identical value laws, so order information is essential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FourierCoefficients, eval_field, _check_coeffs, _freeze
from .sampling import _check_sample_count

MAX_GRID = 10**8  # a level curve takes 32 bytes per grid point (tools/mem_per_value.py): 3.2 GB


def empirical_value_cdf(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Fraction of the real values at or below each threshold of an ascending grid."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a non-empty one-dimensional array")
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly ascending")
    if np.iscomplexobj(values):
        raise ValueError("field values must be real, not complex")
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("need at least one value")
    return np.searchsorted(v, g, side="right") / v.size


def level_measure_curve(c: FourierCoefficients, xs: np.ndarray, grid_points: int) -> np.ndarray:
    """The value CDF of a real-valued field on ``grid_points`` uniform locations, at
    each of an ascending array of thresholds: the measure of each sublevel set, to
    within the number of level crossings over the grid size, ``2b/grid_points``."""
    if not 2 * c.b + 1 <= grid_points <= MAX_GRID:
        raise ValueError(
            f"grid must have {2 * c.b + 1} to {MAX_GRID} points for b={c.b}, got {grid_points}"
        )
    if not c.real_valued:
        raise ValueError("the value law needs a real-valued field")
    return empirical_value_cdf(eval_field(c, np.arange(grid_points) / grid_points).real, xs)


def _shift_phases(c: FourierCoefficients, theta: float) -> np.ndarray:
    """``exp(-2j*pi*k*theta)`` for each frequency k of the field, with ``theta``
    first reduced by whole periods, so a shift by whole periods is exactly none."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    k = np.arange(-c.b, c.b + 1)
    return np.exp(-2j * np.pi * k * math.fmod(theta, 1.0))


def shift_field(c: FourierCoefficients, theta: float) -> FourierCoefficients:
    """Cyclically shift the field by ``theta``: coefficient k picks up phase
    ``exp(-2j*pi*k*theta)``.  Real-valuedness and boundedness survive."""
    shifted = c.coeffs * _shift_phases(c, theta)
    return FourierCoefficients._checked(shifted, _check_coeffs(shifted, capped=False))


def shift_distortion(c: FourierCoefficients, theta: float) -> float:
    """Squared L2 distance between the field and its shift, in closed form."""
    return float(np.sum(np.abs(c.coeffs) ** 2 * np.abs(1.0 - _shift_phases(c, theta)) ** 2))


@dataclass(frozen=True, eq=False)
class AmbiguityReport:
    """Evidence that a shift changes the field but not its value law."""

    b: int
    theta: float
    n: int
    grid_points: int
    sup_cdf_diff_theory: float
    sup_cdf_diff_empirical: float
    distortion_between_fields: float
    thresholds: np.ndarray
    level_curve_original: np.ndarray
    level_curve_shifted: np.ndarray
    empirical_cdf_original: np.ndarray
    empirical_cdf_shifted: np.ndarray

    def __post_init__(self):
        for name in (
            "thresholds",
            "level_curve_original",
            "level_curve_shifted",
            "empirical_cdf_original",
            "empirical_cdf_shifted",
        ):
            a = np.asarray(getattr(self, name), dtype=np.float64).copy()
            object.__setattr__(self, name, _freeze(a))

    def to_json_dict(self) -> dict:
        return {
            "b": int(self.b),
            "theta": float(self.theta),
            "n": int(self.n),
            "grid_points": int(self.grid_points),
            "sup_cdf_diff_theory": float(self.sup_cdf_diff_theory),
            "sup_cdf_diff_empirical": float(self.sup_cdf_diff_empirical),
            "distortion_between_fields": float(self.distortion_between_fields),
        }


THRESHOLD_GRID_SIZE = 512


def default_threshold_grid() -> np.ndarray:
    """Ascending thresholds covering the full amplitude range of bounded fields."""
    return np.linspace(-1.0, 1.0, THRESHOLD_GRID_SIZE)


def ambiguity_demo(
    c: FourierCoefficients,
    theta: float,
    n: int,
    grid_points: int,
    rng: np.random.Generator,
) -> AmbiguityReport:
    """Compare the value laws of a field and its shift.

    The sublevel-measure curves of both fields are computed on a common
    threshold grid (their sup difference is the theory check), n independent
    uniform samples of each field feed the empirical value distributions
    (sup difference again), and the exact squared L2 distance between the
    two fields shows they differ as functions.
    """
    _check_sample_count(n)
    shifted = shift_field(c, theta)
    xs = default_threshold_grid()
    if not c.bounded:
        # |field| <= sum |c_k|, so that sum widens the grid to every value
        xs = xs * max(1.0, float(np.sum(np.abs(c.coeffs))))

    curve_o = level_measure_curve(c, xs, grid_points)
    curve_s = level_measure_curve(shifted, xs, grid_points)
    sup_theory = float(np.max(np.abs(curve_o - curve_s)))

    values_o = eval_field(c, rng.random(n)).real
    values_s = eval_field(shifted, rng.random(n)).real
    cdf_o = empirical_value_cdf(values_o, xs)
    cdf_s = empirical_value_cdf(values_s, xs)
    sup_emp = float(np.max(np.abs(cdf_o - cdf_s)))

    return AmbiguityReport(
        b=c.b,
        theta=float(theta),
        n=n,
        grid_points=grid_points,
        sup_cdf_diff_theory=sup_theory,
        sup_cdf_diff_empirical=sup_emp,
        distortion_between_fields=shift_distortion(c, theta),
        thresholds=xs,
        level_curve_original=curve_o,
        level_curve_shifted=curve_s,
        empirical_cdf_original=cdf_o,
        empirical_cdf_shifted=cdf_s,
    )
