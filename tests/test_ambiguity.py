import numpy as np
import numpy.testing as npt
import pytest

from orderfield import (
    FourierCoefficients,
    ambiguity_demo,
    empirical_value_cdf,
    eval_field,
    level_measure_curve,
    random_field,
    shift_distortion,
    shift_field,
)
from orderfield.ambiguity import MAX_GRID, default_threshold_grid


def test_empirical_cdf_counts_at_or_below():
    values = np.array([0.1, 0.5, 0.9])
    grid = np.array([-1.0, 0.1, 0.5, 2.0])
    cdf = empirical_value_cdf(values, grid)
    npt.assert_allclose(cdf, [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)


def test_empirical_cdf_rejects_bad_input():
    with pytest.raises(ValueError):
        empirical_value_cdf(np.array([]), np.array([0.0]))
    with pytest.raises(ValueError):
        empirical_value_cdf(np.array([0.5]), np.array([1.0, 0.0]))
    # complex arrays are refused outright, even with zero imaginary parts
    for values in (np.array([0.5 + 0.5j]), np.array([0.5 + 0j])):
        with pytest.raises(ValueError, match="must be real, not complex"):
            empirical_value_cdf(values, np.array([0.0, 1.0]))


def test_level_measure_cosine_closed_form(cosine_field):
    # measure{0.5 + 0.5cos(2 pi t) <= x} = 1 - arccos(2x - 1)/pi on [0, 1]
    xs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    expected = 1.0 - np.arccos(2 * xs - 1) / np.pi
    got = level_measure_curve(cosine_field, xs, 8192)
    assert np.all(np.abs(got - expected) <= 2 / 8192 + 1e-12)


def test_level_measure_saturates_outside_range(cosine_field):
    assert level_measure_curve(cosine_field, np.array([-0.5, 1.5]), 1024).tolist() == [0.0, 1.0]


def test_level_measure_curve_matches_scalar(cosine_field):
    # the curve equals each single-threshold curve
    xs = np.array([0.2, 0.5, 0.8])
    curve = level_measure_curve(cosine_field, xs, 4096)
    for x, y in zip(xs, curve):
        assert level_measure_curve(cosine_field, np.array([x]), 4096).tolist() == [y]


def test_level_measure_requires_enough_grid(cosine_field):
    # and at most MAX_GRID points, refused before anything of the grid's size exists
    assert MAX_GRID >= 8192
    for grid_points in (2, MAX_GRID + 1):
        with pytest.raises(ValueError, match=f"grid must have 3 to {MAX_GRID} points"):
            level_measure_curve(cosine_field, np.array([0.5]), grid_points)


def test_level_measure_and_demo_refuse_a_complex_field(complex_random_field, rng):
    # realness is read off the coefficients, so an imaginary constant of 1e-11 is refused
    # too, though it is far below the values' own scale
    offset = FourierCoefficients(np.array([0.25, 0.5 + 1e-11j, 0.25]))
    for c in (complex_random_field(2, rng), offset):
        assert not c.real_valued
        with pytest.raises(ValueError, match="needs a real-valued field"):
            level_measure_curve(c, np.array([0.5]), 64)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="needs a real-valued field"):
            ambiguity_demo(c, 0.25, 64, 64, rng)
        assert rng.bit_generator.state == state  # refused before any draw


def test_shift_field_translates_the_field(rng):
    field = random_field(3, rng)
    theta = 0.37
    shifted = shift_field(field, theta)
    t = rng.random(50)
    npt.assert_allclose(eval_field(shifted, t), eval_field(field, t - theta), atol=1e-12)
    assert shifted.real_valued and shifted.bounded


def test_shift_by_zero_is_identity(cosine_field):
    shifted = shift_field(cosine_field, 0.0)
    npt.assert_allclose(shifted.coeffs, cosine_field.coeffs, atol=1e-15)
    assert shift_distortion(cosine_field, 0.0) == 0.0
    # theta is reduced by whole periods first, so these shifts are exactly none
    for theta in (3.0, -2.0, 2.0**60):
        assert (shift_field(cosine_field, theta).coeffs == cosine_field.coeffs).all()
        assert shift_distortion(cosine_field, theta) == 0.0


def test_shift_rejects_non_finite_theta(cosine_field):
    for theta in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="theta must be finite"):
            shift_field(cosine_field, theta)
        with pytest.raises(ValueError, match="theta must be finite"):
            shift_distortion(cosine_field, theta)


def test_shift_distortion_cosine_quarter_period(cosine_field):
    # |a_1|^2 |1 - e^{-j pi/2}|^2 twice: 2 * (1/16) * 2 = 1/4
    npt.assert_allclose(shift_distortion(cosine_field, 0.25), 0.25, atol=1e-12)


def test_shift_distortion_matches_quadrature(rng):
    field = random_field(2, rng)
    theta = 0.3
    shifted = shift_field(field, theta)
    t = np.linspace(0.0, 1.0, 4097)
    diff = np.abs(eval_field(field, t) - eval_field(shifted, t)) ** 2
    npt.assert_allclose(shift_distortion(field, theta), np.trapezoid(diff, t), rtol=1e-6)


def test_demo_shift_preserves_value_law(rng):
    field = random_field(2, rng)
    report = ambiguity_demo(field, 1 / 3, 4096, 8192, rng)
    assert report.sup_cdf_diff_theory <= 8 / 8192 + 1e-9
    # two-sample empirical CDFs of the same law: 99% KS band
    assert report.sup_cdf_diff_empirical <= 1.628 * np.sqrt(2 / 4096)
    assert report.distortion_between_fields > 0.01
    npt.assert_allclose(
        report.distortion_between_fields, shift_distortion(field, 1 / 3), atol=1e-15
    )


def test_demo_zero_shift_control(cosine_field, rng):
    report = ambiguity_demo(cosine_field, 0.0, 256, 2048, rng)
    assert report.sup_cdf_diff_theory == 0.0
    assert report.distortion_between_fields == 0.0


def test_demo_curves_are_cdfs(cosine_field, rng):
    report = ambiguity_demo(cosine_field, 0.25, 512, 2048, rng)
    xs = default_threshold_grid()
    npt.assert_array_equal(report.thresholds, xs)
    for curve in (
        report.level_curve_original,
        report.level_curve_shifted,
        report.empirical_cdf_original,
        report.empirical_cdf_shifted,
    ):
        assert curve.shape == xs.shape
        assert np.all(np.diff(curve) >= 0)
        assert curve.min() >= 0.0 and curve.max() <= 1.0


def test_demo_report_json(cosine_field, rng):
    report = ambiguity_demo(cosine_field, 0.25, 128, 1024, rng)
    doc = report.to_json_dict()
    assert doc["b"] == 1 and doc["theta"] == 0.25 and doc["n"] == 128
    assert doc["grid_points"] == 1024
    assert set(doc) == {
        "b",
        "theta",
        "n",
        "grid_points",
        "sup_cdf_diff_theory",
        "sup_cdf_diff_empirical",
        "distortion_between_fields",
    }


def test_demo_thresholds_cover_unbounded_fields(rng):
    # 1 + cos(2 pi t) takes values in [0, 2], outside the bounded-field grid
    field = FourierCoefficients(np.array([0.5, 1.0, 0.5]))
    assert not field.bounded
    report = ambiguity_demo(field, 0.25, 512, 2048, rng)
    npt.assert_array_equal(report.thresholds, 2.0 * default_threshold_grid())
    assert report.level_curve_original[-1] == 1.0
    assert report.empirical_cdf_original[-1] == 1.0
    assert report.empirical_cdf_shifted[-1] == 1.0


def test_demo_rejects_empty_sample(cosine_field, rng):
    with pytest.raises(ValueError):
        ambiguity_demo(cosine_field, 0.25, 0, 1024, rng)


def test_demo_is_exactly_scale_equivariant():
    # multiplying by 2^40 is exact at every step, so each CDF array is the same bits
    field = FourierCoefficients(np.array([0.25, 0.5, 1.0, 0.5, 0.25]))
    big = FourierCoefficients(2.0**40 * field.coeffs)
    a = ambiguity_demo(field, 0.3, 500, 1024, np.random.default_rng(8))
    z = ambiguity_demo(big, 0.3, 500, 1024, np.random.default_rng(8))
    assert big.real_valued and z.thresholds.tobytes() == (2.0**40 * a.thresholds).tobytes()
    for name in ("level_curve_original", "level_curve_shifted",
                 "empirical_cdf_original", "empirical_cdf_shifted"):
        assert getattr(z, name).tobytes() == getattr(a, name).tobytes(), name
    assert z.distortion_between_fields == 2.0**80 * a.distortion_between_fields
