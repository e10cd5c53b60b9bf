"""Periodic bandlimited fields represented by their Fourier coefficients.

A field with bandwidth index ``b`` is a trigonometric polynomial on the unit
period with 2b+1 complex coefficients, stored in frequency order
``-b, ..., -1, 0, 1, ..., b``.  All evaluation, differentiation and the
coefficient/sample transforms are exact linear algebra on that vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .io import as_int, pairs_from_json, pairs_to_json, read_json

CONJ_SYMMETRY_TOL = 1e-12
BOUNDED_SUM_TOL = 1e-12
MAX_BANDWIDTH = 1024
MAX_COEFF = 1e60  # the largest real or imaginary part of a coefficient; see `_check_coeffs`


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_bandwidth(b: int) -> None:
    """Raise unless ``0 <= b <= MAX_BANDWIDTH``; at the cap the grid matrix takes 67 MB."""
    if b < 0:
        raise ValueError(f"bandwidth index must be >= 0, got {b}")
    if b > MAX_BANDWIDTH:
        raise ValueError(f"bandwidth index must be <= {MAX_BANDWIDTH}, got {b}")


@dataclass(frozen=True, eq=False)
class FourierCoefficients:
    """Complex Fourier coefficients of a periodic bandlimited field.

    ``coeffs[i]``, one of an odd number of finite values, is the coefficient
    of ``exp(2j*pi*k*t)`` with ``k = i - b``.  ``b`` (at most `MAX_BANDWIDTH`, so
    every field built can be saved and loaded), ``real_valued`` (conjugate symmetry,
    by the rule of `_check_coeffs`) and ``bounded`` (magnitudes summing to at most
    one, so the amplitude stays within [-1, 1]) are read off the coefficients,
    which are all a field holds.  The parts of a field built here or inverted
    from grid values (up to rounding) are held to `MAX_COEFF`; estimates and
    shifts, derived from such fields, come from `_checked` and need only be finite.
    """

    coeffs: np.ndarray
    b: int = field(init=False)
    real_valued: bool = field(init=False)
    bounded: bool = field(init=False)

    def __post_init__(self, flags=None):
        c = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError(f"expected an odd number of coefficients, got shape {c.shape}")
        object.__setattr__(self, "b", (c.size - 1) // 2)
        _check_bandwidth(self.b)
        real_valued, bounded = _check_coeffs(c) if flags is None else flags
        object.__setattr__(self, "coeffs", _freeze(c))
        object.__setattr__(self, "real_valued", real_valued)
        object.__setattr__(self, "bounded", bounded)

    def to_json_dict(self) -> dict:
        return {
            "b": int(self.b),
            "real_valued": bool(self.real_valued),
            "coeffs": pairs_to_json(self.coeffs),
        }

    @classmethod
    def _checked(cls, c: np.ndarray, flags: tuple) -> "FourierCoefficients":
        """The field of the vector ``c`` that `_check_coeffs` has passed, with the
        ``(real_valued, bounded)`` flags it returned, so that it is not checked again."""
        f = object.__new__(cls)
        object.__setattr__(f, "coeffs", c)
        f.__post_init__(flags)
        return f

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FourierCoefficients":
        """`to_json_dict` output, checking its ``b`` and a ``real_valued: true`` claim; an
        estimate's sample count ``n``, when present, must be a positive integer and is dropped."""
        try:
            b = as_int(doc["b"], "b")
            real_valued = doc["real_valued"]
            if not isinstance(real_valued, bool):
                raise ValueError(f"real_valued must be true or false, got {real_valued!r}")
            c = pairs_from_json(doc["coeffs"])
            n = None if doc.get("n") is None else as_int(doc["n"], "n")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed coefficient document: {exc}") from exc
        _check_bandwidth(b)
        if c.size != 2 * b + 1:
            raise ValueError(f"expected {2 * b + 1} coefficients for b={b}, got shape {c.shape}")
        if n is not None and n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")
        return cls._checked(c, _check_coeffs(c, real_valued))


def _check_coeffs(
    c: np.ndarray, real_valued: bool = False, bounded: bool = False, capped: bool = True
) -> tuple:
    """Whether ``c``, one vector or each row of a ``(T, 2b+1)`` stack, is real-valued and
    bounded; raises unless it is finite, within `MAX_COEFF` when ``capped``, and, when
    asked, each.

    The one realness rule: a row is real-valued when ``max|c[b+k] - conj(c[b-k])| <=
    CONJ_SYMMETRY_TOL * max(1, S)``, ``S = sum|c_k|``, as rounding noise grows with S;
    bounded when ``S <= 1 + BOUNDED_SUM_TOL``.  `MAX_COEFF` caps the parts of the fields
    that enter the program (read, passed in, drawn, or inverted from grid values up to
    1e-10 of rounding), compared without overflow; their estimates and shifts are only
    checked to be finite.  With m = 2b+1 <= 2049, an input has S < 3e63, which bounds its
    values; a shift's magnitudes sum to S, and each of an estimate's coefficients, a mean
    of m values times unit phases, is at most S, so they sum to at most m S < 6e66.
    Every square then stays finite: distortions < ((m+1) S)^2 < 4e133 (their squares
    over 2^32 trials < 6e276), shift distortions < 8 m MAX_COEFF^2, the covariance
    bundle's products < m^2 (pi b S)^2 < 1e141, and at n = 10^8 the covariance check's
    sums < 2e145, squared Frobenius norms < 1e278 and pointwise squares < 4e141.
    """
    top = np.abs(np.ascontiguousarray(c).view(np.float64)).max()  # the largest part, or NaN
    if not top <= (MAX_COEFF if capped else np.finfo(np.float64).max):
        raise ValueError("coefficients must be finite" if not np.isfinite(top) else
                         f"coefficient parts must be at most {MAX_COEFF:g} in magnitude")
    total = np.abs(c).sum(axis=-1, keepdims=True)
    asym = np.abs(c - c[..., ::-1].conj()) / np.maximum(total, 1.0)  # relative, row by row
    real, unit = asym.max() <= CONJ_SYMMETRY_TOL, total.max() <= 1.0 + BOUNDED_SUM_TOL
    if real_valued and not real:
        raise ValueError(f"real_valued flag requires conjugate symmetry; residual {asym.max():.3e}")
    if bounded and not unit:
        raise ValueError(
            f"bounded flag requires coefficient magnitudes to sum to <= 1, got {float(total.max())}"
        )
    return bool(real), bool(unit)


@functools.lru_cache(maxsize=16)
def _dft_matrix(b: int) -> np.ndarray:
    spacing = 1.0 / (2 * b + 1)
    l = np.arange(2 * b + 1)
    k = np.arange(-b, b + 1)
    return _freeze(np.exp(2j * np.pi * spacing * np.outer(l, k)))


def build_dft_matrix(b: int) -> np.ndarray:
    """Read-only square matrix mapping coefficients to the uniform grid samples.

    Row ``l``, column ``k`` (k counted from -b) holds ``exp(2j*pi*k*l*s)``
    with grid spacing ``s = 1/(2b+1)``.  Columns are orthogonal with squared
    norm 2b+1, so the inverse is the scaled conjugate transpose
    (`_grid_to_coeffs`).  Matrices are cached per ``b`` and shared.
    """
    _check_bandwidth(b)
    return _dft_matrix(b)


def _grid_to_coeffs(matrix: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inverse of ``matrix = build_dft_matrix(b)`` applied to the grid samples ``g``,
    one vector of 2b+1 samples or a ``(T, 2b+1)`` stack of them."""
    return (matrix.conj().T @ g[..., None])[..., 0] / matrix.shape[0]


_EVAL_BLOCK = 2**14  # the most values `_horner_eval` computes at once, chosen by measurement


def _horner_block(c: np.ndarray, t):
    b = (len(c) - 1) // 2
    t = np.mod(t, 1.0)
    z = np.exp(2j * np.pi * t)
    acc = np.full(np.broadcast_shapes(np.shape(c[-1]), z.shape), c[-1], dtype=z.dtype)
    for m in range(2 * b - 1, -1, -1):
        acc = acc * z + c[m]
    if b > 0:
        # in place, or numpy's elision of large temporaries commutes (and re-rounds) it
        acc *= np.exp(-2j * np.pi * b * t)
    return acc


def _horner_eval(coeffs: np.ndarray, t):
    """Evaluate sum_k coeffs[..., b+k] * exp(2j*pi*k*t) for scalar or array t; a
    ``(T, 2b+1)`` coefficient stack takes ``(T, k)`` points, row by row, or ``(k,)``
    points shared by every row, which gives ``(T, k)`` values.

    Values are computed `_EVAL_BLOCK` at a time (one field's points raveled, a stack's
    rows a run at a time) into one result, so the temporaries stay small.  No bit
    depends on the block size or on the other points: each value is computed alone,
    and no block is a lone value, which numpy's scalar loops would round differently.
    A lone value (a scalar t, one point, or a 1x1 stack) is the first of a duplicated pair.
    """
    t = np.asarray(t, dtype=np.float64)
    stack = coeffs.ndim == 2
    c = coeffs.T[:, :, None] if stack else coeffs
    shape = np.broadcast_shapes(np.shape(c[-1]), t.shape)
    if math.prod(shape) == 1:
        pair = _horner_block(coeffs.reshape(-1), np.repeat(t.reshape(-1), 2))
        return pair[:1].reshape(shape)[()]
    rows = shape[0] if stack else t.size
    step = max(1, _EVAL_BLOCK // max(1, shape[1])) if stack else _EVAL_BLOCK
    if rows <= step:
        return _horner_block(c, t)[()]
    points = t if stack else t.reshape(-1)
    out = np.empty(shape if stack else rows, dtype=np.complex128)
    for i in range(0, rows, step):
        block = slice(min(i, rows - 2), i + step)
        out[block] = _horner_block(c[:, block] if stack else c,
                                   points[block] if points.ndim == out.ndim else points)
    return out.reshape(shape)


def eval_field(c: FourierCoefficients, t):
    """Field value at time ``t`` (scalar or array), periodic with period one.

    Returns complex values; for a real-valued field the imaginary part is
    rounding noise, which grows with the coefficient magnitude sum.
    """
    return _horner_eval(c.coeffs, t)


def eval_derivative(c: FourierCoefficients, t):
    """Time derivative of the field at ``t`` (scalar or array).

    Differentiation multiplies each coefficient by ``2j*pi*k``; for a field
    whose coefficient magnitudes sum to at most one the result magnitude is
    bounded by ``2*pi*b`` (the classical derivative bound for trigonometric
    polynomials of unit sup norm).
    """
    k = np.arange(-c.b, c.b + 1)
    return _horner_eval(c.coeffs * (2j * np.pi * k), t)


def samples_from_coeffs(c: FourierCoefficients) -> np.ndarray:
    """Field values on the uniform grid ``t = l/(2b+1)``, ``l = 0..2b``."""
    return build_dft_matrix(c.b) @ c.coeffs


def coeffs_from_samples(g_vec: np.ndarray) -> FourierCoefficients:
    """Recover coefficients from the 2b+1 uniform grid samples.

    The inverse transform is the scaled conjugate transpose of the grid matrix;
    a round trip through `samples_from_coeffs` is the identity to 1e-10 of the
    largest part.  The grid values are outside input, so the result is held to
    `MAX_COEFF` but for that rounding, and a field at the cap round-trips.
    """
    g = np.asarray(g_vec, dtype=np.complex128)
    if g.ndim != 1 or g.size % 2 != 1:
        raise ValueError(f"expected an odd-length sample vector, got shape {g.shape}")
    if not np.isfinite(g).all():  # refused before an infinity meets a zero in the product
        raise ValueError("coefficients must be finite")
    c = _grid_to_coeffs(build_dft_matrix((g.size - 1) // 2), g)
    flags = _check_coeffs(c, capped=False)
    if np.abs(c.view(np.float64)).max() > MAX_COEFF * (1 + 1e-10):
        raise ValueError(f"coefficient parts must be at most {MAX_COEFF:g} in magnitude")
    return FourierCoefficients._checked(c, flags)


def _fields_from_draws(draws: np.ndarray) -> np.ndarray:
    """The checked ``(T, 2b+1)`` coefficient stack of T random fields, one per row of a
    ``(T, 2b+2)`` array of raw uniforms: b+1 magnitudes, b phases, scaled by 2*pi here,
    and the uniform that picks the sign of the centre term."""
    draws = np.asarray(draws, dtype=np.float64)
    b = (draws.shape[1] - 2) // 2
    mags, phases, sign_u = draws[:, : b + 1], draws[:, b + 1 : 2 * b + 1], draws[:, -1]
    c = np.empty((mags.shape[0], 2 * b + 1), dtype=np.complex128)
    c[:, b] = np.where(sign_u < 0.5, 1.0, -1.0) * mags[:, 0]
    # uniform(0, 2*pi) is 0.0 + 2*pi * random(), so these are its phases bit for bit
    c[:, b + 1 :] = mags[:, 1:] * np.exp(1j * (phases * (2.0 * np.pi)))
    c[:, :b] = c[:, : b : -1].conj()
    total = np.abs(c).sum(axis=1)
    zero = total == 0.0
    if zero.any():
        total[zero] = 1.0
        c[zero] = 0.0
        c[zero, b] = 1.0
    c /= total[:, None]
    _check_coeffs(c, real_valued=True, bounded=True)
    return c


def random_field(b: int, rng: np.random.Generator) -> FourierCoefficients:
    """Draw a random real bounded field with coefficient magnitudes summing to one.

    Magnitudes and phases are drawn independently and uniformly, conjugate
    symmetry is imposed, and the whole vector is rescaled so the magnitudes
    sum to exactly one.  The triangle inequality then keeps the field
    amplitude within [-1, 1] everywhere.  Every magnitude drawn as zero gives
    the constant field one.  The 2b+2 raw uniforms are one `_fields_from_draws`
    row, which scales the phases; a Monte Carlo cell builds all its trials'
    fields at once from their rows, by the same code.
    """
    _check_bandwidth(b)
    # `_fields_from_draws` refuses a field that is not real-valued and bounded
    draws = rng.random((1, 2 * b + 2))
    return FourierCoefficients._checked(_fields_from_draws(draws)[0], (True, True))


def load_field(path) -> FourierCoefficients:
    return FourierCoefficients.from_json_dict(read_json(path))
