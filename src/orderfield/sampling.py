"""Sensor deployment simulation and the ordered, location-free sample view.

Deployment draws independent uniform locations on the unit interval and reads
them in increasing order (sensors are exchangeable).  The estimator is only
ever handed a `SampleSet`: the field values listed in increasing order of
their locations, with the locations themselves dropped.  Simulation-side code
that needs the hidden locations (covariance checks, order-statistic
diagnostics) reads them from the `DeploymentDraw`; nothing on the estimation
path accepts a draw.  Monte Carlo trials evaluate the field only at the 2b+1
`quantile_locations`.  `_renyi_locations` draws those ranked locations alone,
exactly in law, without the other n - 2b - 1 points: for a cell of sweep trials
of at least `RANKED_MIN_N` points and for `sample_quantile_locations`; smaller
trials sort a whole `deploy` draw, the reference path, which is cheaper there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import FourierCoefficients, eval_field, _check_bandwidth, _freeze
from .io import _FLOAT_CHUNK as _SAVE_CHUNK, write_float_csv, write_json

MAX_SAMPLES = 10**8  # `sample` holds 25 bytes per value (tools/mem_per_value.py), 2.5 GB at most
# A sweep trial of at least this many points draws its ranked locations alone
# (`sample_quantile_locations`); below it, sorting a whole `deploy` draw costs less.
RANKED_MIN_N = 2**11


@dataclass(frozen=True, eq=False)
class DeploymentDraw:
    """I.i.d. uniform locations of one deployment, sorted; a caller's array is copied first."""

    locations: np.ndarray

    def __post_init__(self):
        self._keep_sorted(np.array(self.locations, dtype=np.float64))

    @classmethod
    def _adopt(cls, loc: np.ndarray) -> "DeploymentDraw":
        """A draw that keeps the fresh float64 array ``loc`` itself, not a copy."""
        d = object.__new__(cls)
        d._keep_sorted(loc)
        return d

    def _keep_sorted(self, loc: np.ndarray) -> None:
        if loc.ndim != 1:
            raise ValueError(f"locations must be one-dimensional, got shape {loc.shape}")
        loc.sort()
        if loc.size and (loc[0] < 0.0 or not loc[-1] <= 1.0):  # a NaN sorts last
            raise ValueError("locations must lie in [0, 1]")
        object.__setattr__(self, "locations", _freeze(loc))

    @property
    def n(self) -> int:
        return self.locations.size


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Field values in increasing order of their hidden sampling locations.

    This is the estimator's entire input: the ordered values, whose count is
    ``n``, and nothing else.
    """

    values: np.ndarray

    def __post_init__(self):
        self._keep_finite(np.array(self.values, dtype=np.complex128))

    @classmethod
    def _adopt(cls, v: np.ndarray) -> "SampleSet":
        """A sample set that keeps the fresh complex128 array ``v`` itself, not a copy."""
        s = object.__new__(cls)
        s._keep_finite(v)
        return s

    def _keep_finite(self, v: np.ndarray) -> None:
        if v.ndim != 1:
            raise ValueError(f"sample values must be one-dimensional, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def n(self) -> int:
        return self.values.size


def _check_sample_count(n: int) -> None:
    """Raise unless ``1 <= n <= MAX_SAMPLES``; called before anything of size n exists."""
    if not 1 <= n <= MAX_SAMPLES:
        raise ValueError(f"sample count must lie in [1, {MAX_SAMPLES}], got {n}")


def deploy(n: int, rng: np.random.Generator) -> DeploymentDraw:
    """Scatter ``n`` sensors at Uniform[0, 1] locations, ordering the fresh draw in place."""
    _check_sample_count(n)
    return DeploymentDraw._adopt(rng.random(n))


def observe(field: FourierCoefficients, d: DeploymentDraw) -> SampleSet:
    """Evaluate the field at the sorted locations and drop the locations."""
    return SampleSet._adopt(eval_field(field, d.locations))


def quantile_indices(n: int, b: int) -> np.ndarray:
    """One-based order-statistic ranks targeting the uniform grid quantiles.

    Rank ``floor(n*l/(2b+1)) + 1`` for ``l = 0..2b``; integer arithmetic, so
    no float rounding can shift a rank.  Requires ``n >= 2b+1``, which makes
    the ranks strictly increasing.  The array is read-only, cached per
    ``(n, 2b+1)`` and shared.
    """
    _check_bandwidth(b)
    m = 2 * b + 1
    if n < m:
        raise ValueError(f"need at least {m} samples for bandwidth index {b}, got {n}")
    return _ranks(n, m)


@functools.lru_cache(maxsize=64)
def _ranks(n: int, m: int) -> np.ndarray:
    return _freeze(np.array([(n * l) // m + 1 for l in range(m)], dtype=np.int64))


@functools.lru_cache(maxsize=64)
def _gamma_shapes(n: int, m: int) -> np.ndarray:
    """The Gamma gap shapes of `sample_quantile_locations`, read-only, per ``(n, m)``."""
    return _freeze(np.diff(_ranks(n, m), prepend=0, append=n + 1).astype(np.float64))


def quantile_locations(d: DeploymentDraw, b: int) -> np.ndarray:
    """The 2b+1 sorted locations at the `quantile_indices` ranks of the draw."""
    return d.locations[quantile_indices(d.n, b) - 1]


# From 2**53 on, not every integer is a float64, so a Gamma shape could round.
EXACT_SHAPE_LIMIT = 2**53


def _check_exact_shape(n: int) -> None:
    if n >= EXACT_SHAPE_LIMIT:
        raise ValueError(f"sample count must be below 2**53 for exact Gamma shapes, got {n}")


def _renyi_locations(n: int, b: int, draw_gaps) -> np.ndarray:
    """Renyi's representation of the `quantile_locations` of T n-point deployments.

    With independent Gamma gaps of shapes ``r_0, r_1 - r_0, ..., n + 1 - r_2b`` and
    partial sums S, the rank-r_l order statistics of n uniforms are jointly
    ``S_l / S_(2b+1)``.  ``draw_gaps(shapes)`` returns the ``(T, 2b+2)`` gaps, row i
    trial i's, and row i of the result is trial i's 2b+1 locations.  The shapes are
    exact floats only below 2**53, so a larger n is refused before any draw.
    """
    _check_exact_shape(n)
    quantile_indices(n, b)  # checks b and n
    sums = np.cumsum(draw_gaps(_gamma_shapes(n, 2 * b + 1)), axis=1)
    # each row is non-decreasing from >= 0 and divided by a sum at least its last entry
    return sums[:, :-1] / sums[:, -1:]


def sample_quantile_locations(
    n: int, b: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """The `quantile_locations` of ``trials`` independent n-point deployments, one per row:
    2b+2 Gamma draws per row (`_renyi_locations`), filled row by row, so row i does not
    depend on ``trials``."""
    return _renyi_locations(
        n, b, lambda shapes: rng.standard_gamma(shapes, size=(trials, shapes.size))
    )


def extract_quantile_samples(s: SampleSet, ranks: np.ndarray) -> np.ndarray:
    """Values of the ordered sample at the given one-based ranks."""
    r = np.asarray(ranks, dtype=np.int64)
    if r.size and (r.min() < 1 or r.max() > s.n):
        raise ValueError(f"ranks must lie in [1, {s.n}], got range [{r.min()}, {r.max()}]")
    return s.values[r - 1]


def save_samples(s: SampleSet, csv_path, sidecar_path, b_source: int, seed: str) -> None:
    """Write the ordered values as CSV plus a JSON sidecar of ``n``, ``b_source`` and ``seed``.

    The CSV is the header ``value_re,value_im`` and then one row per value,
    its real and imaginary parts each exactly ``'%.17g' % part``, with
    ``\\r\\n`` line ends, from `io.write_float_csv`, the one float CSV writer:
    its double-double digits err by under 2^-46, so roundings more than 2^-36
    from a tie are exact, and Python formats the rest.  It formats
    ``_SAVE_CHUNK`` floats at a time, so memory stays within about 2.2 MB.
    """
    write_float_csv(csv_path, "value_re,value_im", s.values.view(np.float64).reshape(-1, 2), "\r\n")
    write_json(sidecar_path, {"n": int(s.n), "b_source": int(b_source), "seed": seed})
