import json

import numpy as np
import numpy.testing as npt
import pytest

from orderfield import (
    FourierCoefficients,
    build_dft_matrix,
    coeffs_from_samples,
    eval_derivative,
    eval_field,
    load_field,
    random_field,
    samples_from_coeffs,
)
from orderfield import fields
from orderfield.fields import (
    MAX_BANDWIDTH, MAX_COEFF, _check_coeffs, _fields_from_draws,
)
from orderfield.io import pairs_from_json, write_json


def naive_eval(coeffs, b, t):
    """Direct frequency-sum evaluation, the oracle for the Horner path."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    ks = np.arange(-b, b + 1)
    return (coeffs[None, :] * np.exp(2j * np.pi * np.outer(t, ks))).sum(axis=1)


def test_coefficient_vector_length_is_checked():
    for m in (1, 3, 5, 9):
        assert FourierCoefficients(np.full(m, 1.0 / m)).b == (m - 1) // 2
    for bad in (np.zeros(4), np.zeros(0), np.zeros((1, 3)), np.zeros((3, 3))):
        with pytest.raises(ValueError, match="odd number of coefficients"):
            FourierCoefficients(bad)
    with pytest.raises(ValueError, match="finite"):
        FourierCoefficients(np.array([np.nan + 0j]))


def test_real_valued_is_read_off_conjugate_symmetry():
    # the largest |c[b+k] - conj(c[b-k])| against 1e-12 * max(1, sum |c_k|), from either
    # side; every magnitude sum here is below one, so the tolerance is 1e-12 itself
    symmetric = np.array([0.1 - 0.2j, 0.3, 0.1 + 0.2j])
    assert FourierCoefficients(symmetric).real_valued
    assert FourierCoefficients(symmetric + [0, 0, 0.5e-12]).real_valued
    assert not FourierCoefficients(symmetric + [0, 0, 2e-12]).real_valued
    assert FourierCoefficients(np.array([0.3 + 0.4e-12j])).real_valued
    assert not FourierCoefficients(np.array([0.3 + 1e-12j])).real_valued
    assert not FourierCoefficients(np.array([0.1j, 0.3, 0.2j])).real_valued


def test_realness_tolerance_scales_with_the_magnitude_sum_row_by_row():
    symmetric = np.array([0.1 - 0.2j, 0.3, 0.1 + 0.2j])
    total = 2.0**40 * np.abs(symmetric).sum()
    for resid, real in ((0.5e-12, True), (2e-12, False)):
        big = 2.0**40 * symmetric + [0, 0, resid * total]
        assert FourierCoefficients(big).real_valued is real
    # a stack's rows are judged each on its own scale
    unit_noisy = symmetric + [0, 0, 2e-12]
    big_noisy = 2.0**40 * symmetric + [0, 0, 0.5e-12 * total]
    assert _check_coeffs(np.stack([big_noisy, symmetric])) == (True, False)
    for stack in (np.stack([big_noisy, unit_noisy]), np.stack([unit_noisy, big_noisy])):
        assert _check_coeffs(stack) == (False, False)
        with pytest.raises(ValueError, match="requires conjugate symmetry"):
            _check_coeffs(stack, real_valued=True)


def test_coefficient_parts_are_capped():
    assert MAX_COEFF >= 1e20
    at_cap = np.array([MAX_COEFF * (1 - 1j), MAX_COEFF, MAX_COEFF * (1 + 1j)])
    assert FourierCoefficients(at_cap).real_valued
    for bad in (
        [1e308, 1e308, 1e308],
        [0.0, np.nextafter(MAX_COEFF, np.inf), 0.0],
        [0.0, -1.5 * MAX_COEFF, 0.0],
        [0.0, 2j * MAX_COEFF, 0.0],
        [-1.7e308 - 1.7e308j, 0.0, 1.7e308j],
    ):
        with pytest.raises(ValueError, match="coefficient parts must be at most"):
            FourierCoefficients(np.array(bad, dtype=np.complex128))
        with pytest.raises(ValueError, match="coefficient parts must be at most"):
            _check_coeffs(np.stack([at_cap, np.array(bad, dtype=np.complex128)]))
    doc = {"b": 1, "real_valued": False, "coeffs": [[1e308, 0.0]] * 3}
    with pytest.raises(ValueError, match="coefficient parts must be at most"):
        FourierCoefficients.from_json_dict(doc)
    # estimates and shifts, derived from capped fields, need only be finite
    over = np.array([MAX_COEFF * (1 - 1j), 2 * MAX_COEFF, MAX_COEFF * (1 + 1j)])
    assert _check_coeffs(over, capped=False) == (True, False)
    assert _check_coeffs(np.stack([over, at_cap]), capped=False) == (True, False)
    for bad in (np.inf, np.nan, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            _check_coeffs(np.array([0.0, bad, 0.0], dtype=np.complex128), capped=False)


def test_read_and_drawn_fields_are_checked_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _check_coeffs(*args, **kwargs)

    monkeypatch.setattr(fields, "_check_coeffs", counting)
    c = random_field(3, np.random.default_rng(4))
    assert c.real_valued and c.bounded and len(calls) == 1
    back = FourierCoefficients.from_json_dict(c.to_json_dict())
    assert back.real_valued and back.bounded and len(calls) == 2
    assert back.coeffs.tobytes() == c.coeffs.tobytes()


def test_bounded_is_read_off_the_magnitude_sum():
    # the 1 + 1e-12 tolerance on sum |c_k|, from either side
    unit = np.array([0.25, 0.5, 0.25 + 0j])
    assert FourierCoefficients(unit).bounded
    assert FourierCoefficients(unit + [0, 0, 0.5e-12]).bounded
    assert not FourierCoefficients(unit + [0, 0, 2e-12]).bounded
    assert not FourierCoefficients(np.array([0.5, 0.5, 0.5 + 0j])).bounded


def test_coefficients_are_frozen(cosine_field):
    with pytest.raises(ValueError):
        cosine_field.coeffs[0] = 1.0


def test_eval_matches_naive_sum(rng):
    for b in (0, 1, 3, 5):
        coeffs = rng.normal(size=2 * b + 1) + 1j * rng.normal(size=2 * b + 1)
        c = FourierCoefficients(coeffs)
        t = rng.random(40)
        npt.assert_allclose(eval_field(c, t), naive_eval(coeffs, b, t), atol=1e-12)


def test_eval_is_periodic(cosine_field):
    t = np.array([0.1, 0.37, 0.9])
    npt.assert_allclose(eval_field(cosine_field, t + 1.0), eval_field(cosine_field, t), atol=1e-12)
    npt.assert_allclose(eval_field(cosine_field, t - 2.0), eval_field(cosine_field, t), atol=1e-12)


def test_eval_cosine_closed_form(cosine_field):
    t = np.linspace(0.0, 1.0, 17)
    expected = 0.5 + 0.5 * np.cos(2 * np.pi * t)
    vals = eval_field(cosine_field, t)
    npt.assert_allclose(vals.real, expected, atol=1e-12)
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_derivative_matches_naive_sum(rng):
    for b in (1, 2, 4):
        coeffs = rng.normal(size=2 * b + 1) + 1j * rng.normal(size=2 * b + 1)
        c = FourierCoefficients(coeffs)
        ks = np.arange(-b, b + 1)
        t = rng.random(25)
        expected = naive_eval(coeffs * 2j * np.pi * ks, b, t)
        npt.assert_allclose(eval_derivative(c, t), expected, atol=1e-11)


def test_derivative_matches_finite_differences(cosine_field):
    t = np.array([0.12, 0.48, 0.81])
    h = 1e-6
    fd = (eval_field(cosine_field, t + h) - eval_field(cosine_field, t - h)) / (2 * h)
    npt.assert_allclose(eval_derivative(cosine_field, t), fd, atol=1e-5)


def test_derivative_bound_for_bounded_fields(rng):
    # |g'| <= 2*pi*b when the coefficient magnitudes sum to one.
    for b in (1, 2, 4):
        c = random_field(b, rng)
        d = eval_derivative(c, np.linspace(0, 1, 512, endpoint=False))
        assert np.max(np.abs(d)) <= 2 * np.pi * b + 1e-9


def test_dft_matrix_entries_by_direct_formula():
    b = 2
    m = 2 * b + 1
    phi = build_dft_matrix(b)
    assert not phi.flags.writeable
    for l in range(m):
        for i, k in enumerate(range(-b, b + 1)):
            npt.assert_allclose(phi[l, i], np.exp(2j * np.pi * k * l / m), atol=1e-14)


def test_dft_matrix_columns_are_orthogonal():
    for b in range(9):
        phi = build_dft_matrix(b)
        m = 2 * b + 1
        gram = phi.conj().T @ phi
        npt.assert_allclose(gram, m * np.eye(m), atol=1e-10)


def test_dft_matrix_rejects_negative_bandwidth():
    with pytest.raises(ValueError):
        build_dft_matrix(-1)


def test_grid_samples_match_field_values(cosine_field):
    grid = np.arange(3) / 3
    npt.assert_allclose(
        samples_from_coeffs(cosine_field), eval_field(cosine_field, grid), atol=1e-12
    )


def test_coeff_sample_roundtrip(rng):
    for b in (0, 1, 4, 8):
        coeffs = rng.normal(size=2 * b + 1) + 1j * rng.normal(size=2 * b + 1)
        c = FourierCoefficients(coeffs)
        back = coeffs_from_samples(samples_from_coeffs(c))
        assert back.b == b
        npt.assert_allclose(back.coeffs, coeffs, atol=1e-10)
    # at the MAX_COEFF cap the inverse may round a part just past it, which is allowed
    parts = rng.choice([-1.0, 1.0], size=(200, 2, 9))
    wide = rng.choice([-1.0, 1.0], size=257) + 1j * rng.choice([-1.0, 1.0], size=257)
    for at_cap in [np.array([1.0, -1.0, 1.0]), *(parts[:, 0] + 1j * parts[:, 1]), wide]:
        c = FourierCoefficients(MAX_COEFF * at_cap)
        back = coeffs_from_samples(samples_from_coeffs(c))
        npt.assert_allclose(back.coeffs, c.coeffs, rtol=0.0, atol=1e-10 * MAX_COEFF)
    # but grid values are outside input, so parts beyond that rounding are refused
    over = build_dft_matrix(1) @ np.array([0.0, 1.000001 * MAX_COEFF, 0.0])
    for bad in (over, np.full(3, 1e300), np.full(3, 1e300j)):
        with pytest.raises(ValueError, match="at most"):
            coeffs_from_samples(bad)
    for bad in (np.nan, complex(0.0, np.nan), np.inf, -np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            coeffs_from_samples(np.array([0.5, bad, 0.25]))


def test_coeffs_from_samples_rejects_even_length():
    with pytest.raises(ValueError):
        coeffs_from_samples(np.ones(4, dtype=complex))


def test_random_field_is_bounded_and_real(rng):
    for b in (0, 1, 3):
        c = random_field(b, rng)
        assert c.bounded and c.real_valued
        npt.assert_allclose(np.sum(np.abs(c.coeffs)), 1.0, atol=1e-12)
        vals = eval_field(c, rng.random(200))
        assert np.max(np.abs(vals.real)) <= 1.0 + 1e-12
        assert np.max(np.abs(vals.imag)) < 1e-10


def test_random_field_is_deterministic():
    a = random_field(2, np.random.default_rng(77))
    b = random_field(2, np.random.default_rng(77))
    npt.assert_array_equal(a.coeffs, b.coeffs)


def test_random_field_constant_case():
    c = random_field(0, np.random.default_rng(3))
    assert c.coeffs.shape == (1,)
    assert abs(abs(c.coeffs[0]) - 1.0) < 1e-12


def loop_random_field(b, rng):
    """The frequency-by-frequency `random_field` that the stacked assembly replaced,
    kept as the oracle for its bytes."""
    if b < 0:
        raise ValueError(f"bandwidth index must be >= 0, got {b}")
    m = 2 * b + 1
    mags = rng.uniform(0.0, 1.0, size=b + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=b)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    c = np.zeros(m, dtype=np.complex128)
    c[b] = sign * mags[0]
    for k in range(1, b + 1):
        c[b + k] = mags[k] * np.exp(1j * phases[k - 1])
        c[b - k] = np.conj(c[b + k])
    total = float(np.sum(np.abs(c)))
    if total == 0.0:
        c = np.zeros(m, dtype=np.complex128)
        c[b] = 1.0
    else:
        c = c / total
    return FourierCoefficients(c)


@pytest.mark.parametrize("b", [0, 1, 2, 4, 7, 8, 16])
def test_random_field_and_stacked_fields_equal_the_loop_bitwise(b):
    # from b = 4 on, 2b+1 >= 9 magnitudes and numpy sums them pairwise, unrolled
    seeds = range(200)
    loop = np.stack([loop_random_field(b, np.random.default_rng(s)).coeffs for s in seeds])
    one_by_one = np.stack([random_field(b, np.random.default_rng(s)).coeffs for s in seeds])
    stacked = _fields_from_draws(b, [np.random.default_rng(s).random(2 * b + 2) for s in seeds])
    assert one_by_one.tobytes() == loop.tobytes()
    assert stacked.tobytes() == loop.tobytes()
    # a raw row is the oracle's generator calls: all leave the generator in one state
    rng_a, rng_b, rng_c = (np.random.default_rng(5) for _ in range(3))
    loop_random_field(b, rng_a)
    rng_b.random(2 * b + 2)
    random_field(b, rng_c)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state == rng_c.bit_generator.state


@pytest.mark.parametrize("b", [0, 1, 4, 8])
def test_fields_from_raw_rows_equal_random_field_and_the_loop_bitwise(b):
    # the raw-row contract: T rows of 2b+2 uniforms drawn row-major from one generator,
    # phases unscaled, give the fields of T successive draws from it
    trials = 40
    rows = np.random.default_rng(9).random((trials, 2 * b + 2))
    rng_f, rng_l = np.random.default_rng(9), np.random.default_rng(9)
    one_by_one = np.stack([random_field(b, rng_f).coeffs for _ in range(trials)])
    loop = np.stack([loop_random_field(b, rng_l).coeffs for _ in range(trials)])
    stacked = _fields_from_draws(b, rows)
    assert stacked.tobytes() == one_by_one.tobytes()
    assert stacked.tobytes() == loop.tobytes()


def test_stacked_fields_with_all_zero_magnitudes_are_the_unit_centre_field():
    b = 2
    zero = np.concatenate((np.zeros(b + 1), np.ones(b), [0.9]))
    live = np.random.default_rng(5).random(2 * b + 2)
    c = _fields_from_draws(b, [zero, live, zero])
    unit = np.eye(2 * b + 1, dtype=np.complex128)[b]
    assert c[0].tobytes() == c[2].tobytes() == unit.tobytes()
    expected = loop_random_field(b, np.random.default_rng(5)).coeffs
    assert c[1].tobytes() == expected.tobytes()


def test_stacked_fields_reject_a_non_finite_draw():
    live = np.random.default_rng(0).random(4)
    nan_draw = np.array([0.5, np.nan, 0.3, 0.2])
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            _fields_from_draws(1, [live, nan_draw, live])


def test_stacked_check_rejects_each_bad_row_as_the_coefficient_type_does():
    good = np.array([0.25, 0.5, 0.25], dtype=np.complex128)
    for row, flags, message in [
        ([0.25, np.nan, 0.25], (False, False), "coefficients must be finite"),
        ([0.1j, 0.3, 0.2j], (True, False), "real_valued flag requires conjugate symmetry"),
        ([0.5, 0.5, 0.5], (False, True), "bounded flag requires coefficient magnitudes"),
    ]:
        bad = np.array(row, dtype=np.complex128)
        if flags == (False, False):
            with pytest.raises(ValueError, match=message):
                FourierCoefficients(bad)
        else:
            # the stack check rejects a row exactly where the type clears the flag
            c = FourierCoefficients(bad)
            assert (c.real_valued, c.bounded) == (not flags[0], not flags[1])
        for stack in (np.stack([bad, good, good]), np.stack([good, good, bad])):
            with pytest.raises(ValueError, match=message):
                _check_coeffs(stack, *flags)
    _check_coeffs(np.stack([good, good]), True, True)


def test_json_roundtrip_exact(rng):
    c = random_field(2, rng)
    back = FourierCoefficients.from_json_dict(c.to_json_dict())
    npt.assert_array_equal(back.coeffs, c.coeffs)
    assert back.b == c.b and back.real_valued == c.real_valued and back.bounded


def test_file_roundtrip(tmp_path, cosine_field):
    path = tmp_path / "field.json"
    write_json(path, cosine_field.to_json_dict())
    back = load_field(path)
    npt.assert_array_equal(back.coeffs, cosine_field.coeffs)
    # the document is plain JSON with the expected keys
    doc = json.loads(path.read_text())
    assert set(doc) == {"b", "real_valued", "coeffs"}


def test_from_json_dict_rejects_malformed():
    with pytest.raises(ValueError):
        FourierCoefficients.from_json_dict({"b": 1})
    with pytest.raises(ValueError):
        FourierCoefficients.from_json_dict({"b": 1, "real_valued": False, "coeffs": 3})
    # integers and booleans are strict: no truncation of 1.7, no "no" read as true
    coeffs = [[0, 0], [1, 0], [0, 0]]
    for b, real_valued in ((1.7, False), (True, False), ("1", False), (1, "no"), (1, 1)):
        with pytest.raises(ValueError):
            FourierCoefficients.from_json_dict(
                {"b": b, "real_valued": real_valued, "coeffs": coeffs}
            )


def test_from_json_dict_rejects_boolean_coefficient_parts():
    # complex(True, False) is 1+0j: a JSON true must not read as the number 1
    for coeffs in ([[True, False]], [[0.5, 0.0], [1, False], [0.5, 0.0]]):
        doc = {"b": (len(coeffs) - 1) // 2, "real_valued": True, "coeffs": coeffs}
        with pytest.raises(ValueError, match="pair parts must be numbers, not true or false"):
            FourierCoefficients.from_json_dict(doc)
    assert pairs_from_json([[1, 0], [0.5, -2]]).tolist() == [1 + 0j, 0.5 - 2j]


def test_from_json_dict_checks_the_document_b_and_real_valued_claim():
    symmetric = [[0.25, -0.1], [0.5, 0.0], [0.25, 0.1]]
    asymmetric = [[0.0, 0.1], [0.3, 0.0], [0.0, 0.2]]
    with pytest.raises(ValueError, match="real_valued flag requires conjugate symmetry"):
        FourierCoefficients.from_json_dict({"b": 1, "real_valued": True, "coeffs": asymmetric})
    for b in (0, 2):
        with pytest.raises(ValueError, match=f"expected {2 * b + 1} coefficients for b={b}"):
            FourierCoefficients.from_json_dict({"b": b, "real_valued": True, "coeffs": symmetric})
    with pytest.raises(ValueError, match=f"must be <= {MAX_BANDWIDTH}"):
        FourierCoefficients.from_json_dict(
            {"b": MAX_BANDWIDTH + 1, "real_valued": True, "coeffs": symmetric}
        )
    # a false claim is not checked: the flag is read off the coefficients
    c = FourierCoefficients.from_json_dict({"b": 1, "real_valued": False, "coeffs": symmetric})
    assert c.real_valued and c.to_json_dict()["real_valued"] is True
    c = FourierCoefficients.from_json_dict({"b": 1, "real_valued": False, "coeffs": asymmetric})
    assert not c.real_valued


def test_bandwidth_is_capped(rng):
    assert random_field(MAX_BANDWIDTH, rng).b == MAX_BANDWIDTH
    for check in (build_dft_matrix, lambda b: random_field(b, rng)):
        with pytest.raises(ValueError, match=f"bandwidth index must be <= {MAX_BANDWIDTH}, got"):
            check(MAX_BANDWIDTH + 1)
        with pytest.raises(ValueError, match="bandwidth index must be >= 0, got -1"):
            check(-1)


def test_unbounded_field_loads_unbounded():
    c = FourierCoefficients(np.array([2.0 + 0j]))
    back = FourierCoefficients.from_json_dict(c.to_json_dict())
    assert not back.bounded
