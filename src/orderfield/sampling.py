"""Sensor deployment simulation and the ordered, location-free sample view.

Deployment draws independent uniform locations on the unit interval and reads
them in increasing order (sensors are exchangeable).  The estimator is only
ever handed a `SampleSet`: the field values listed in increasing order of
their locations, with the locations themselves dropped.  Simulation-side code
that needs the hidden locations (covariance checks, order-statistic
diagnostics) reads them from the `DeploymentDraw`; nothing on the estimation
path accepts a draw.  Monte Carlo trials evaluate the field only at the 2b+1
`quantile_locations`.  A draw of at least `SELECT_MIN_N` points from `deploy`
is sorted only when its `locations` are first read; before that, its ranked
locations are selected in place, without sorting the other points.
`sample_quantile_locations` draws the ranked locations alone, exactly in law,
without the other n - 2b - 1 points.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .fields import FourierCoefficients, eval_field, _check_bandwidth, _freeze
from .io import _FLOAT_CHUNK as _SAVE_CHUNK, write_float_csv, write_json

MAX_SAMPLES = 10**8  # `sample` takes about 80 bytes per value (measured), so 8 GB at the cap
SELECT_MIN_N = 2**14  # selection beats the sort from here at b <= 3 (from 2**15 at b <= 8)


@dataclass(frozen=True, eq=False)
class DeploymentDraw:
    """I.i.d. uniform locations of one deployment, sorted; a caller's array is copied first.

    A draw of at least `SELECT_MIN_N` fresh points from `deploy` is deferred:
    it keeps the generator's buffer unsorted and sorts it in place when
    `locations` is first read.  Until then `_at` selects ranks in that same
    buffer.  One lock per deferred draw serialises both, since both permute it.
    """

    locations: np.ndarray

    def __post_init__(self):
        self._keep_sorted(np.array(self.locations, dtype=np.float64))

    @classmethod
    def _adopt(cls, loc: np.ndarray) -> "DeploymentDraw":
        """A draw that keeps the fresh float64 array ``loc`` itself, not a copy."""
        d = object.__new__(cls)
        if loc.size < SELECT_MIN_N:
            d._keep_sorted(loc)
        else:
            object.__setattr__(d, "_raw", loc)
            object.__setattr__(d, "_lock", threading.Lock())
        return d

    def _keep_sorted(self, loc: np.ndarray) -> None:
        if loc.ndim != 1:
            raise ValueError(f"locations must be one-dimensional, got shape {loc.shape}")
        loc.sort()
        if loc.size and (loc[0] < 0.0 or not loc[-1] <= 1.0):  # a NaN sorts last
            raise ValueError("locations must lie in [0, 1]")
        object.__setattr__(self, "locations", _freeze(loc))

    def __getattr__(self, name):
        # reached only when `locations` is unset, that is on a deferred draw before its sort
        if name != "locations" or "_raw" not in vars(self):
            raise AttributeError(name)
        with self._lock:
            if "locations" not in vars(self):
                self._keep_sorted(self._raw)
        return vars(self)["locations"]

    def _at(self, ranks0: np.ndarray) -> np.ndarray:
        """The sorted locations at the zero-based, strictly increasing ``ranks0``.

        A deferred draw not yet sorted partitions its buffer once per rank
        instead, on int64 keys: the generator's doubles are non-negative and
        never -0.0, and such doubles order as their bit patterns.  A value
        outside [0, 1] or a NaN of either sign ends up below the first rank
        or from the last rank up, where the check reads it.
        """
        if "locations" not in vars(self):
            with self._lock:
                if "locations" not in vars(self):
                    x = self._raw
                    _select(x.view(np.int64), ranks0)
                    if not (x[: ranks0[0] + 1].min() >= 0.0 and x[ranks0[-1]:].max() <= 1.0):
                        raise ValueError("locations must lie in [0, 1]")
                    return x[ranks0]
        return self.locations[ranks0]

    @property
    def n(self) -> int:
        d = vars(self)
        return d.get("locations", d.get("_raw")).size


def _select(keys: np.ndarray, ranks0: np.ndarray, start: int = 0) -> None:
    """Partition ``keys``, the draw from index ``start`` on, in place at each of ``ranks0``.

    The middle rank goes first, then each half recurses on its own side: one
    kth per call, since a multi-kth `np.partition` costs several sorts.
    """
    if ranks0.size:
        mid = ranks0.size // 2
        k = int(ranks0[mid]) - start
        keys.partition(k)
        _select(keys[:k], ranks0[:mid], start)
        _select(keys[k + 1:], ranks0[mid + 1:], start + k + 1)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Field values in increasing order of their hidden sampling locations.

    This is the estimator's entire input: the ordered values, whose count is
    ``n``, and nothing else.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).copy()
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
    return SampleSet(values=eval_field(field, d.locations))


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


def quantile_locations(d: DeploymentDraw, b: int) -> np.ndarray:
    """The 2b+1 sorted locations at the `quantile_indices` ranks of the draw."""
    return d._at(quantile_indices(d.n, b) - 1)


# From 2**53 on, not every integer is a float64, so a Gamma shape could round.
EXACT_SHAPE_LIMIT = 2**53


def sample_quantile_locations(
    n: int, b: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """The `quantile_locations` of ``trials`` independent n-point deployments, one per row.

    Renyi's representation: with independent Gamma gaps of shapes
    ``r_0, r_1 - r_0, ..., n + 1 - r_2b`` and partial sums S, the rank-r_l
    order statistics of n uniforms are jointly ``S_l / S_(2b+1)``.  That is
    2b+2 draws per trial whatever n is, filled row by row, so row i does not
    depend on ``trials``.  The shapes are exact floats only below 2**53.
    """
    if n >= EXACT_SHAPE_LIMIT:
        raise ValueError(f"sample count must be below 2**53 for exact Gamma shapes, got {n}")
    shapes = np.diff(quantile_indices(n, b), prepend=0, append=n + 1)
    sums = np.cumsum(rng.standard_gamma(shapes, size=(trials, shapes.size)), axis=1)
    # each row is non-decreasing from >= 0 and divided by a sum at least its last entry
    return sums[:, :-1] / sums[:, -1:]


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
