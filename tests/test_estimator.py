import json

import numpy as np
import numpy.testing as npt
import pytest

from orderfield import (
    FourierCoefficients,
    SampleSet,
    deploy,
    distortion,
    distortion_bound,
    estimate_at,
    estimate_coeffs,
    eval_field,
    load_field,
    observe,
    quantile_locations,
    random_field,
    samples_from_coeffs,
    save_field,
)


def test_estimator_is_exact_on_grid_values(cosine_field):
    # with exactly 2b+1 samples the quantile ranks are 1..2b+1, so handing
    # the estimator the true grid values must reproduce the coefficients
    s = SampleSet(values=samples_from_coeffs(cosine_field))
    est = estimate_coeffs(s, 1)
    npt.assert_allclose(est.coeffs, cosine_field.coeffs, atol=1e-12)
    assert distortion(est, cosine_field) < 1e-24
    assert est.real_valued and est.bounded and est.n == 3
    # imaginary noise above the conjugate-symmetry tolerance clears the real
    # flag, which the estimate reads off its coefficients
    noisy = SampleSet(values=samples_from_coeffs(cosine_field) + 1e-10j)
    est = estimate_coeffs(noisy, 1)
    assert not est.real_valued
    npt.assert_allclose(est.coeffs, cosine_field.coeffs, atol=1e-9)


def test_estimator_is_exact_for_constant_fields(rng):
    field = random_field(0, rng)
    s = observe(field, deploy(100, rng))
    est = estimate_coeffs(s, 0)
    npt.assert_allclose(est.coeffs, field.coeffs, atol=1e-15)


def test_estimate_converges_on_cosine(cosine_field):
    rng = np.random.default_rng(42)
    s = observe(cosine_field, deploy(200_000, rng))
    est = estimate_coeffs(s, 1)
    assert est.n == 200_000
    assert est.real_valued
    assert np.max(np.abs(est.coeffs - cosine_field.coeffs)) < 0.01


def test_estimate_rejects_too_few_samples(cosine_field):
    s = SampleSet(values=samples_from_coeffs(cosine_field))
    with pytest.raises(ValueError):
        estimate_coeffs(s, 2)


def test_reconstruct_matches_coefficient_sum(rng):
    field = random_field(2, rng)
    s = observe(field, deploy(5000, rng))
    est = estimate_coeffs(s, 2)
    t = rng.random(20)
    ks = np.arange(-2, 3)
    expected = (est.coeffs[None, :] * np.exp(2j * np.pi * np.outer(t, ks))).sum(axis=1)
    npt.assert_allclose(eval_field(est, t), expected, atol=1e-12)


def test_estimate_at_rows_equal_per_trial_estimates(rng, complex_random_field):
    b, n = 2, 40
    fields = [complex_random_field(b, rng) for _ in range(6)]
    draws = [deploy(n, rng) for _ in fields]
    locs = np.stack([quantile_locations(d, b) for d in draws])
    stacked = estimate_at(np.stack([f.coeffs for f in fields]), locs)
    fixed = estimate_at(fields[0].coeffs, locs)
    for i, (f, d) in enumerate(zip(fields, draws)):
        assert stacked[i].tolist() == estimate_coeffs(observe(f, d), b).coeffs.tolist()
        assert fixed[i].tolist() == estimate_coeffs(observe(fields[0], d), b).coeffs.tolist()


def test_estimate_at_rejects_non_finite_estimates(cosine_field):
    locs = np.array([[0.0, 0.3, 0.6], [0.1, 0.4, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        estimate_at(cosine_field.coeffs, locs)


def test_distortion_is_squared_coefficient_distance(cosine_field):
    est = FourierCoefficients(cosine_field.coeffs + np.array([0.1, 0, -0.2j]), n=10)
    npt.assert_allclose(distortion(est, cosine_field), 0.1**2 + 0.2**2, atol=1e-15)


def test_distortion_equals_field_space_error(rng):
    # Parseval: the coefficient-space sum equals the integral of the squared
    # field difference, here computed by the trapezoid rule on a fine grid
    truth = random_field(2, rng)
    s = observe(truth, deploy(500, rng))
    est = estimate_coeffs(s, 2)
    t = np.linspace(0.0, 1.0, 4097)
    diff = np.abs(eval_field(est, t) - eval_field(truth, t)) ** 2
    integral = np.trapezoid(diff, t)
    npt.assert_allclose(distortion(est, truth), integral, rtol=1e-6)


def test_distortion_rejects_bandwidth_mismatch(cosine_field):
    est = FourierCoefficients(np.zeros(5, dtype=complex), n=10)
    with pytest.raises(ValueError):
        distortion(est, cosine_field)


def test_distortion_bound_formula():
    npt.assert_allclose(distortion_bound(1), 3 * np.pi**2, atol=1e-12)
    npt.assert_allclose(distortion_bound(2), 20 * np.pi**2, atol=1e-12)
    npt.assert_allclose(distortion_bound(3), 63 * np.pi**2, atol=1e-12)
    assert distortion_bound(0) == 0.0
    # the usual two-decimal quotes of the first two values
    assert abs(distortion_bound(1) - 29.61) < 0.005
    assert abs(distortion_bound(2) - 197.39) < 0.005
    with pytest.raises(ValueError):
        distortion_bound(-1)


def test_estimate_validation():
    with pytest.raises(ValueError):
        FourierCoefficients(np.zeros(2, dtype=complex), n=10)
    with pytest.raises(ValueError):
        FourierCoefficients(np.zeros(3, dtype=complex), n=0)


def test_estimate_file_roundtrip(tmp_path, rng):
    field = random_field(1, rng)
    s = observe(field, deploy(50, rng))
    est = estimate_coeffs(s, 1)
    path = tmp_path / "estimate.json"
    save_field(est, path)
    back = load_field(path)
    assert back.b == est.b and back.n == est.n and back.real_valued == est.real_valued
    npt.assert_array_equal(back.coeffs, est.coeffs)
    # the estimate.json schema: the field keys plus the sample count
    assert set(json.loads(path.read_text())) == {"b", "coeffs", "n", "real_valued"}


def test_estimate_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        FourierCoefficients.from_json_dict({"b": 1, "n": 5})
    with pytest.raises(ValueError):
        FourierCoefficients.from_json_dict(
            {"b": 0, "real_valued": False, "coeffs": [[float("nan"), 0.0]], "n": 5}
        )
    with pytest.raises(ValueError):
        FourierCoefficients.from_json_dict(
            {"b": 0, "real_valued": False, "coeffs": [[0.5, 0.0]], "n": 0}
        )
    for n in (2.9, True, "5"):
        with pytest.raises(ValueError, match="integer"):
            FourierCoefficients.from_json_dict(
                {"b": 0, "real_valued": False, "coeffs": [[0.5, 0.0]], "n": n}
            )
