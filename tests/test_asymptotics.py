import json

import numpy as np
import numpy.testing as npt
import pytest

from orderfield import (
    DeploymentDraw,
    FourierCoefficients,
    beta_moments,
    clt_empirical_check,
    coeff_covariance,
    covariance_bundle,
    estimate_coeffs,
    eval_field,
    field_sample_covariance,
    observe,
    pointwise_variance,
    quantile_covariance,
    quantile_indices,
    random_field,
    sample_quantile_locations,
)
from orderfield.asymptotics import CovarianceBundle
from orderfield.io import dumps_json, matrix_to_json


def test_quantile_covariance_hand_values():
    expected = np.array([[0, 0, 0], [0, 2 / 9, 1 / 9], [0, 1 / 9, 2 / 9]])
    npt.assert_allclose(quantile_covariance(1), expected, atol=1e-15)
    npt.assert_array_equal(quantile_covariance(0), np.zeros((1, 1)))


def test_quantile_covariance_structure():
    for b in range(9):
        k = quantile_covariance(b)
        m = 2 * b + 1
        p = np.arange(m) / m
        npt.assert_allclose(k, k.T, atol=1e-15)
        npt.assert_allclose(np.diag(k), p * (1 - p), atol=1e-15)
        assert np.all(np.abs(k[0]) == 0) and np.all(np.abs(k[:, 0]) == 0)
        assert np.linalg.eigvalsh(k).min() >= -1e-10


def test_field_sample_covariance_constant_field():
    const = FourierCoefficients(np.array([0, 1, 0], dtype=complex))
    npt.assert_allclose(field_sample_covariance(const), np.zeros((3, 3)), atol=1e-15)


def test_field_sample_covariance_cosine_oracle(cosine_field):
    # derivative of 0.5 + 0.5cos(2 pi t) is -pi sin(2 pi t); conjugate
    # the quantile covariance by its diagonal at the grid points
    d = np.diag([0.0, -np.pi * np.sin(2 * np.pi / 3), -np.pi * np.sin(4 * np.pi / 3)])
    expected = d @ quantile_covariance(1) @ d
    npt.assert_allclose(field_sample_covariance(cosine_field), expected, atol=1e-12)


def test_field_sample_covariance_rejects_complex_derivative():
    # realness is read off the coefficients: an imaginary constant, whose derivative is
    # zero on the grid, is refused too, and the covariance check refuses both fields
    for coeffs in ([0, 0, 0.5j], [0.25, 0.5j, 0.25]):
        c = FourierCoefficients(np.array(coeffs))
        with pytest.raises(ValueError, match="requires a real-valued field"):
            field_sample_covariance(c)
        with pytest.raises(ValueError, match="requires a real-valued field"):
            clt_empirical_check(c, 50, 4, np.random.default_rng(0))


def test_covariances_are_exactly_scale_equivariant():
    # multiplying a field by 2^20 is exact at every step: its limit covariances gain
    # exactly 4^20, and the relative errors of the covariance check are the same bits
    field = random_field(2, np.random.default_rng(21))
    big = FourierCoefficients(2.0**20 * field.coeffs)
    a, z = covariance_bundle(field), covariance_bundle(big)
    for name in ("quantile_cov", "sample_cov", "coeff_cov_herm", "coeff_cov_pseudo"):
        scale = 1.0 if name == "quantile_cov" else 4.0**20
        assert getattr(z, name).tobytes() == (scale * getattr(a, name)).tobytes(), name
    points = np.linspace(0.0, 0.875, 8)
    ra = clt_empirical_check(field, 200, 300, np.random.default_rng(5), eval_points=points)
    rz = clt_empirical_check(big, 200, 300, np.random.default_rng(5), eval_points=points)
    for name in ("coeff_cov_rel_err", "coeff_pseudo_rel_err", "quantile_cov_rel_err"):
        assert getattr(rz, name) == getattr(ra, name), name
    for pa, pz in zip(ra.pointwise_checks, rz.pointwise_checks):
        assert pz.analytic_abs_second_moment == 4.0**20 * pa.analytic_abs_second_moment
        assert pz.empirical_abs_second_moment == 4.0**20 * pa.empirical_abs_second_moment


def test_coeff_covariance_identity_input():
    for b in (1, 3):
        m = 2 * b + 1
        herm, pseudo = coeff_covariance(np.eye(m), b)
        npt.assert_allclose(herm, np.eye(m) / m, atol=1e-12)
        npt.assert_allclose(pseudo, pseudo.T, atol=1e-12)


def test_coeff_covariance_trace_preservation(rng):
    b = 2
    m = 2 * b + 1
    a = rng.normal(size=(m, m))
    k = a @ a.T
    herm, _ = coeff_covariance(k, b)
    npt.assert_allclose(np.trace(herm).real, np.trace(k) / m, atol=1e-10)


def test_coeff_covariance_zero_input():
    herm, pseudo = coeff_covariance(np.zeros((3, 3)), 1)
    npt.assert_array_equal(herm, np.zeros((3, 3)))
    npt.assert_array_equal(pseudo, np.zeros((3, 3)))


def test_coeff_covariance_rejects_wrong_shape():
    with pytest.raises(ValueError):
        coeff_covariance(np.zeros((3, 3)), 2)


def test_covariance_bundle_invariants(rng):
    for b in (1, 2, 4):
        bundle = covariance_bundle(random_field(b, rng))
        herm = bundle.coeff_cov_herm
        npt.assert_allclose(herm, herm.conj().T, atol=1e-12)
        diag = np.diag(herm)
        assert np.max(np.abs(diag.imag)) < 1e-12
        assert diag.real.min() >= -1e-12
        assert np.linalg.eigvalsh(bundle.sample_cov).min() >= -1e-10
        assert np.linalg.eigvalsh(herm).min() >= -1e-10
        pseudo = bundle.coeff_cov_pseudo
        npt.assert_allclose(pseudo, pseudo.T, atol=1e-12)


def test_covariance_bundle_shape_validation():
    with pytest.raises(ValueError):
        CovarianceBundle(
            b=1,
            quantile_cov=np.zeros((2, 2)),
            sample_cov=np.zeros((3, 3)),
            coeff_cov_herm=np.zeros((3, 3)),
            coeff_cov_pseudo=np.zeros((3, 3)),
        )


def test_pointwise_variance_zero_bundle():
    z = np.zeros((3, 3))
    bundle = CovarianceBundle(
        b=1, quantile_cov=z, sample_cov=z, coeff_cov_herm=z, coeff_cov_pseudo=z
    )
    second, abs_second = pointwise_variance(bundle, 0.3)
    assert second == 0 and abs_second == 0.0


def test_pointwise_variance_cosine_vanishes_at_origin(cosine_field):
    # the reconstruction at t=0 is exactly the lowest-rank value, whose
    # scaled error degenerates, so the limit variance there is zero
    bundle = covariance_bundle(cosine_field)
    _, abs_second = pointwise_variance(bundle, 0.0)
    assert abs(abs_second) < 1e-10
    _, inside = pointwise_variance(bundle, 0.4)
    assert inside > 0.1


def test_pointwise_variance_nonnegative(rng):
    # the Hermitian form's imaginary rounding noise is judged against the covariance's
    # own scale: from coefficients of about 1e4 on it exceeds an absolute 1e-9
    field = random_field(3, rng)
    for scale in (1.0, 1e4, 2.0**40):
        bundle = covariance_bundle(FourierCoefficients(scale * field.coeffs))
        for t in rng.random(10):
            _, abs_second = pointwise_variance(bundle, float(t))
            assert abs_second >= 0.0


def _pointwise_reference(bundle, t):
    """The one-point quadratic forms, as plain vector-matrix products."""
    k = np.arange(-bundle.b, bundle.b + 1)
    phi_t = np.exp(2j * np.pi * k * float(t))
    second = complex(phi_t @ bundle.coeff_cov_pseudo @ phi_t)
    return second, max(float((phi_t @ bundle.coeff_cov_herm @ np.conj(phi_t)).real), 0.0)


@pytest.mark.parametrize("b", [0, 1, 2, 4, 8])
def test_pointwise_variance_of_an_array_is_the_points_alone_bitwise(b):
    rng = np.random.default_rng(40 + b)
    bundle = covariance_bundle(random_field(b, rng))
    points = np.concatenate([[0.0, -0.0, 1.0, 0.5, -2.75, 3.1], rng.uniform(-2, 3, 200)])
    second, abs_second = pointwise_variance(bundle, points)
    assert second.shape == abs_second.shape == points.shape
    assert second.dtype == np.complex128 and abs_second.dtype == np.float64
    alone = [pointwise_variance(bundle, t) for t in points]
    assert all(type(s) is complex and type(a) is float for s, a in alone)
    reference = [_pointwise_reference(bundle, t) for t in points]
    for pairs in (alone, reference):
        s, a = zip(*pairs)
        assert np.array(s).tobytes() == second.tobytes()
        assert np.array(a).tobytes() == abs_second.tobytes()
    # a 0-d array and a numpy float are points too
    assert pointwise_variance(bundle, np.float64(points[7])) == alone[7]
    assert pointwise_variance(bundle, np.array(points[7])) == alone[7]
    empty = pointwise_variance(bundle, np.zeros(0))
    assert empty[0].shape == empty[1].shape == (0,)
    with pytest.raises(ValueError, match="a point or a 1-D array of points"):
        pointwise_variance(bundle, points.reshape(2, -1))


def test_pointwise_variance_refuses_an_imaginary_hermitian_form_in_both_forms():
    z = np.zeros((3, 3))
    bundle = CovarianceBundle(
        b=1, quantile_cov=z, sample_cov=z, coeff_cov_herm=1j * np.eye(3), coeff_cov_pseudo=z
    )
    for t in (0.3, np.array([0.1, 0.3])):
        with pytest.raises(ValueError, match="imaginary residual 3.000e[+]00"):
            pointwise_variance(bundle, t)
    # i (1 - exp(-4 pi i t)): real at t = 0, imaginary 2 at t = 1/4, so any point can refuse
    herm = np.zeros((3, 3), complex)
    herm[1, 1], herm[0, 2] = 1j, -1j
    bundle = CovarianceBundle(
        b=1, quantile_cov=z, sample_cov=z, coeff_cov_herm=herm, coeff_cov_pseudo=z
    )
    assert pointwise_variance(bundle, 0.0) == (0j, 0.0)
    for t in (0.25, np.array([0.0, 0.25])):
        with pytest.raises(ValueError, match="imaginary residual 2.000e[+]00"):
            pointwise_variance(bundle, t)


def test_beta_moments_examples():
    mean, var = beta_moments(1, 1)
    npt.assert_allclose([mean, var], [0.5, 1 / 12], atol=1e-15)
    mean, var = beta_moments(501, 1000)
    npt.assert_allclose(mean, 501 / 1001, atol=1e-15)
    npt.assert_allclose(var, 501 * 500 / (1001**2 * 1002), atol=1e-15)


def test_beta_moments_rejects_out_of_range():
    with pytest.raises(ValueError):
        beta_moments(0, 5)
    with pytest.raises(ValueError):
        beta_moments(6, 5)


def test_beta_variance_scales_like_p_one_minus_p():
    for n in (10**3, 10**4, 10**5):
        r = n // 2 + 1
        _, var = beta_moments(r, n)
        assert abs(n * var - 0.25) < 3.0 / n


def test_grid_quantile_second_moment_bound():
    # n E(U_r - p)^2 <= 0.25 (1 + 5/sqrt(n)) at every positive grid level
    for b in (1, 2, 3, 4):
        m = 2 * b + 1
        for n in (m, 100, 1000, 10**4):
            if n < m:
                continue
            for l in range(1, m):
                p = l / m
                r = (n * l) // m + 1
                mean, var = beta_moments(r, n)
                second = var + (mean - p) ** 2
                assert n * second <= 0.25 * (1 + 5 / np.sqrt(n)) + 1e-12


def test_clt_check_constant_field_is_exact():
    const = FourierCoefficients(np.array([0, 1, 0], dtype=complex))
    rep = clt_empirical_check(const, 60, 100, np.random.default_rng(9))
    assert np.max(np.abs(rep.empirical_coeff_cov)) <= 1e-8
    assert np.max(np.abs(rep.empirical_coeff_pseudo)) <= 1e-8


def test_clt_check_degenerate_lowest_rank(cosine_field):
    # the minimum of n uniforms concentrates at 0, so the raw variance of
    # the lowest quantile must vanish at rate n^-2
    n = 10_000
    rep = clt_empirical_check(cosine_field, n, 500, np.random.default_rng(11))
    lowest = rep.per_quantile_moments[0]
    assert lowest.rank == 1
    assert lowest.variance <= 10.0 / n**2
    npt.assert_allclose(lowest.beta_variance, n / ((n + 1) ** 2 * (n + 2)), atol=1e-18)


def test_clt_check_moderate_scale_agreement(cosine_field):
    rep = clt_empirical_check(
        cosine_field, 2000, 600, np.random.default_rng(21), eval_points=[0.4]
    )
    assert rep.coeff_cov_rel_err < 0.25
    assert rep.coeff_pseudo_rel_err < 0.25
    assert rep.quantile_cov_rel_err < 0.25
    for q in rep.per_quantile_moments:
        assert abs(q.mean - q.beta_mean) < 5 * np.sqrt(q.beta_variance / rep.trials)
    check = rep.pointwise_checks[0]
    assert check.t == 0.4
    assert (
        abs(check.empirical_abs_second_moment - check.analytic_abs_second_moment)
        < 0.3 * check.analytic_abs_second_moment
    )


def test_clt_check_validates_arguments(cosine_field):
    with pytest.raises(ValueError):
        clt_empirical_check(cosine_field, 100, 1, np.random.default_rng(0))
    # evaluation points are checked before the generator draws anything
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for points in ([np.nan, 0.3], [0.2, np.inf], 0.3, [[0.1, 0.2]], np.zeros((2, 1))):
        with pytest.raises(ValueError, match="eval_points"):
            clt_empirical_check(cosine_field, 100, 10, rng, eval_points=points)
    assert rng.bit_generator.state == state


def test_clt_check_constant_bandwidth_has_no_interior_levels(rng):
    rep = clt_empirical_check(random_field(0, rng), 30, 20, rng)
    assert rep.empirical_quantile_cov.shape == (0, 0)
    assert rep.analytic_quantile_cov.shape == (0, 0)
    assert rep.quantile_cov_rel_err == 0.0
    assert np.max(np.abs(rep.empirical_coeff_cov)) <= 1e-20
    assert len(rep.per_quantile_moments) == 1


def _assert_report_equals_the_full_path(field, n, trials, points):
    # The report's ranked locations, drawn again from the same seed, are
    # embedded in full sorted n-point draws: each at its rank, the slots in
    # between filled with the ranked value below.  Reference trials order all
    # n values (`observe`) before `estimate_coeffs`; every report moment is
    # built from the same per-trial arrays, so each one must match bitwise.
    b = field.b
    rep = clt_empirical_check(field, n, trials, np.random.default_rng(n), eval_points=points)
    ranks, sqrt_n, m = quantile_indices(n, b), np.sqrt(n), 2 * b + 1
    locs = sample_quantile_locations(n, b, trials, np.random.default_rng(n))
    coeff_errs, point_errs = [], []
    for row in locs:
        full = np.zeros(n)
        full[ranks - 1] = row
        d = DeploymentDraw(np.maximum.accumulate(full))
        npt.assert_array_equal(d.locations[ranks - 1], row)
        est = estimate_coeffs(observe(field, d), b)
        coeff_errs.append(sqrt_n * (est.coeffs - field.coeffs))
        point_errs.append(sqrt_n * (eval_field(est, points) - eval_field(field, points)))
    coeff_errs, point_errs = np.stack(coeff_errs), np.stack(point_errs)
    quant_errs = sqrt_n * (locs - np.arange(m) / m)
    npt.assert_array_equal(rep.empirical_coeff_cov, coeff_errs.T @ coeff_errs.conj() / trials)
    npt.assert_array_equal(rep.empirical_coeff_pseudo, coeff_errs.T @ coeff_errs / trials)
    npt.assert_array_equal(
        rep.empirical_quantile_cov, quant_errs[:, 1:].T @ quant_errs[:, 1:] / trials
    )
    for q, col in zip(rep.per_quantile_moments, locs.T):
        assert (q.mean, q.variance) == (np.mean(col), np.var(col, ddof=1))
    for c, col in zip(rep.pointwise_checks, point_errs.T):
        assert c.empirical_second_moment == np.mean(col**2)
        assert c.empirical_abs_second_moment == np.mean(np.abs(col) ** 2)


@pytest.mark.parametrize("b, n_list", [(0, [1, 40]), (1, [3, 101, 10**4]), (3, [7, 1000])])
def test_clt_check_rank_only_trials_equal_the_full_path(b, n_list):
    field = random_field(b, np.random.default_rng(60 + b))
    for n in n_list:
        _assert_report_equals_the_full_path(field, n, 40, np.array([0.1, 0.7]))


def test_clt_check_batched_trials_equal_the_full_path_above_16384_values():
    # 5462 trials x 3 ranked locations, and x 3 evaluation points, each give
    # 16386 values in one batched evaluation, past the size from which numpy
    # elides temporaries
    field = random_field(1, np.random.default_rng(61))
    _assert_report_equals_the_full_path(field, 30, 5462, np.array([0.1, 0.45, 0.7]))


def test_clt_report_json_shape(cosine_field):
    rep = clt_empirical_check(
        cosine_field, 200, 50, np.random.default_rng(2), eval_points=[0.1, 0.7]
    )
    doc = rep.to_json_dict()
    assert doc["b"] == 1 and doc["n"] == 200 and doc["trials"] == 50
    assert doc["empirical_coeff_cov"] == matrix_to_json(rep.empirical_coeff_cov)
    assert len(doc["per_quantile_moments"]) == 3
    assert set(doc) == {
        "b", "n", "trials",
        "empirical_coeff_cov", "analytic_coeff_cov", "coeff_cov_rel_err",
        "empirical_coeff_pseudo", "analytic_coeff_pseudo", "coeff_pseudo_rel_err",
        "empirical_quantile_cov", "analytic_quantile_cov", "quantile_cov_rel_err",
        "per_quantile_moments", "pointwise_checks",
    }
    assert set(doc["per_quantile_moments"][0]) == {
        "level_index", "rank", "level", "mean", "variance", "beta_mean", "beta_variance",
    }
    assert set(doc["pointwise_checks"][0]) == {
        "t", "analytic_second_moment", "analytic_abs_second_moment",
        "empirical_second_moment", "empirical_abs_second_moment",
    }
    check, point = rep.pointwise_checks[1], doc["pointwise_checks"][1]
    assert point["t"] == 0.7
    assert point["empirical_second_moment"] == [
        check.empirical_second_moment.real, check.empirical_second_moment.imag
    ]
    assert type(doc["per_quantile_moments"][2]["rank"]) is int


def test_matrix_json_roundtrip(rng):
    # row-major [re, im] pairs that survive the JSON text exactly
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert json.loads(dumps_json(matrix_to_json(m))) == {
        "shape": [3, 4],
        "data": [[m[i, j].real, m[i, j].imag] for i in range(3) for j in range(4)],
    }
    real = matrix_to_json(np.array([[1.0, -2.0]]))
    assert real == {"shape": [1, 2], "data": [[1.0, 0.0], [-2.0, 0.0]]}
