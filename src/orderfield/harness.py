"""Experiment orchestration: seeded Monte Carlo sweeps and report files.

Each sweep cell seeds one ``SeedSequence((base_seed, b, n))``, and row i of
its output states (`_trial_seeds`) seeds trial i's PCG64, so any cell of any
sweep can be reproduced in isolation, the first T trials of a cell do not
depend on its trial count, and the outputs are byte-identical at every worker
count: trial i of cell j writes only row (j, i) of its bandwidth's arrays: its
field's 2b+2 raw uniforms (random mode only), then the 2b+1 ranked locations
of a sorted `deploy` draw below `RANKED_MIN_N` points, or from there on the
2b+2 Gamma gaps the cell turns into ranked locations (`_renyi_locations`).
Each bandwidth then builds and checks all its fields in one array step
(`_fields_from_draws`) and estimates them in another (`estimate_at`); the
sweep reduces every cell's mean and standard error in one more.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .ambiguity import AmbiguityReport, ambiguity_demo
from .asymptotics import clt_empirical_check
from .estimator import distortion_bound, estimate_at
from .fields import (
    FourierCoefficients, _check_bandwidth, _fields_from_draws, load_field, random_field,
)
from .io import as_int, read_json, to_json, write_csv_lines, write_float_csv, write_json
from .parallel import trial_map
from .sampling import RANKED_MIN_N, _check_exact_shape, _renyi_locations, deploy, quantile_indices

MAX_SEED = 2**64
MAX_TRIALS = 2**32  # a cap on a config's trial count, far beyond what a run can hold
MAX_EVAL_POINTS = 1024  # a cap on a config's eval_points; see `_check_eval_points`

SWEEP_CSV_HEADER = "b,n,trials,mean_distortion,stderr,n_times_mse,bound"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of a Monte Carlo run.

    field_source is either the literal "random" (a fresh field per trial for
    sweeps, one fixed field per bandwidth for distribution checks) or a path
    to a saved coefficient file, which fixes the field for every trial.
    eval_points, None when unset, are the points of the covariance check's
    pointwise comparisons; a sweep refuses a config that sets them.
    """

    b_list: tuple
    n_list: tuple
    trials: int
    base_seed: int
    field_source: str = "random"
    output_dir: str = ""
    eval_points: tuple | None = None

    def __post_init__(self):
        b_list = tuple(as_int(v, "b_list entry") for v in self.b_list)
        n_list = tuple(as_int(v, "n_list entry") for v in self.n_list)
        if not b_list:
            raise ValueError("b_list must be non-empty")
        if not n_list:
            raise ValueError("n_list must be non-empty")
        if len(set(b_list)) != len(b_list):
            raise ValueError("b_list entries must be unique")
        if len(set(n_list)) != len(n_list):
            raise ValueError("n_list entries must be unique")
        for b in b_list:
            _check_bandwidth(b)
        needed = 2 * max(b_list) + 1
        if min(n_list) < needed:
            raise ValueError(
                f"every n must be >= {needed} (= 2*max(b)+1), got n={min(n_list)}"
            )
        _check_exact_shape(max(n_list))  # the sampler's limit, known before any cell runs
        trials = as_int(self.trials, "trials")
        if not 1 <= trials < MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, 2^32), got {trials}")
        base_seed = as_int(self.base_seed, "base_seed")
        if not 0 <= base_seed < MAX_SEED:
            raise ValueError(f"base_seed must lie in [0, 2^64), got {base_seed}")
        if not isinstance(self.field_source, str) or not self.field_source:
            raise ValueError("field_source must be 'random' or a coefficient file path")
        if not isinstance(self.output_dir, str):
            raise ValueError("output_dir must be a string path")
        object.__setattr__(self, "b_list", b_list)
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "base_seed", base_seed)
        if self.eval_points is not None:
            object.__setattr__(self, "eval_points", _check_eval_points(self.eval_points))

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        keys = dataclasses.fields(cls)
        unknown = sorted(set(d) - {f.name for f in keys})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted({f.name for f in keys if f.default is dataclasses.MISSING} - set(d))
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(**d)


def _check_eval_points(values) -> tuple:
    """A list or 1-D array of at most `MAX_EVAL_POINTS` finite numbers, not booleans, as floats.

    The covariance check holds about 50 bytes per trial and point, and
    clt.json gains one `PointwiseCheck` per point and cell.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1:
        values = values.tolist()
    if not isinstance(values, (list, tuple)) or len(values) > MAX_EVAL_POINTS:
        raise ValueError(
            f"eval_points must be a list or 1-D array of at most {MAX_EVAL_POINTS} numbers")
    points = []
    for v in values:
        try:
            x = math.nan if isinstance(v, bool) or not isinstance(v, (int, float)) else float(v)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if not math.isfinite(x):
            raise ValueError(f"eval_points entries must be finite numbers, got {v!r}")
        points.append(x)
    return tuple(points)


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_json_dict(read_json(path))


@dataclass(frozen=True)
class SweepRow:
    """Monte Carlo distortion statistics for one (b, n) cell."""

    b: int
    n: int
    trials: int
    mean_distortion: float
    stderr: float
    n_times_mse: float
    bound: float

    def to_json_dict(self):
        return to_json(self)


def _json_float(x):
    return float(x) if math.isfinite(x) else None


@dataclass(frozen=True)
class ExperimentReport:
    """All sweep rows plus the per-bandwidth log-log rate estimates."""

    rows: tuple
    slopes: dict

    def _json_doc(self):
        """The sweep.json document, its rows left as `SweepRow` objects for `dumps_json`."""
        slopes = {str(b): _json_float(s) for b, s in self.slopes.items()}
        return {"rows": self.rows, "slopes": slopes}

    def to_json_dict(self):
        return to_json(self._json_doc())


def _resolve_field(cfg: ExperimentConfig):
    """Load the fixed field named by the config, or None for random mode."""
    if cfg.field_source == "random":
        return None
    field = load_field(cfg.field_source)
    bad = [b for b in cfg.b_list if b != field.b]
    if bad:
        raise ValueError(
            f"fixed field has bandwidth {field.b} but config requests b={bad[0]}"
        )
    return field


def _trial_seeds(base_seed: int, b: int, n: int, trials: int) -> np.ndarray:
    """Trial i's PCG64 state as row i, which does not depend on ``trials``."""
    ss = np.random.SeedSequence((base_seed, b, n))
    return ss.generate_state(4 * trials, np.uint64).reshape(trials, 4)


class _TrialSeed(ISeedSequence):
    """One row of `_trial_seeds`, given to PCG64 in place of a SeedSequence."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a trial seed holds 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.state


def _bandwidth_distortions(cfg: ExperimentConfig, b: int, fixed) -> np.ndarray:
    """The ``(len(n_list), trials)`` distortions of bandwidth b, row j its n_list[j] cell's."""
    shape, m = (len(cfg.n_list), cfg.trials), 2 * b + 1
    locs = np.empty((*shape, m))
    draws = np.empty((*shape, m + 1)) if fixed is None else None
    for j, n in enumerate(cfg.n_list):
        states = _trial_seeds(cfg.base_seed, b, n, cfg.trials)
        ranks = quantile_indices(n, b) - 1

        # given Gamma shapes by `_renyi_locations`, the trials draw gaps in place of a deploy
        def run_trials(shapes=None):
            gaps = None if shapes is None else np.empty((cfg.trials, shapes.size))

            def one_trial(i):
                rng = np.random.Generator(np.random.PCG64(_TrialSeed(states[i])))
                if draws is not None:
                    rng.random(out=draws[j, i])
                if gaps is None:
                    locs[j, i] = deploy(n, rng).locations[ranks]
                else:
                    rng.standard_gamma(shapes, out=gaps[i])

            trial_map(one_trial, cfg.trials)
            return gaps

        if n >= RANKED_MIN_N:
            locs[j] = _renyi_locations(n, b, run_trials)
        else:
            run_trials()
    coeffs = fixed.coeffs if fixed is not None else _fields_from_draws(b, draws.reshape(-1, m + 1))
    est = estimate_at(coeffs, locs.reshape(-1, m))
    return np.sum(np.abs(est - coeffs) ** 2, axis=1).reshape(shape)


def loglog_slope(n_values, means) -> float:
    """Least-squares slope of log(mean) against log(n); nan if degenerate."""
    ns = np.asarray(n_values, dtype=np.float64)
    ms = np.asarray(means, dtype=np.float64)
    if ns.size < 2 or np.any(ms <= 0.0):
        return float("nan")
    return float(np.polyfit(np.log(ns), np.log(ms), 1)[0])


def run_mse_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo distortion over every (b, n) cell of the config.

    When output_dir is set, writes sweep.csv and sweep.json there; all
    validation (including loading a fixed field) happens before any file is
    touched, so a bad config never leaves partial output behind.
    """
    if cfg.eval_points is not None:
        raise ValueError("eval_points applies to clt-check only; remove it from the sweep config")
    fixed = _resolve_field(cfg)
    dists = np.stack([_bandwidth_distortions(cfg, b, fixed) for b in cfg.b_list])
    means = np.mean(dists, axis=-1)
    sds = np.std(dists, axis=-1, ddof=1) if cfg.trials > 1 else np.zeros_like(means)
    stderrs = sds / math.sqrt(cfg.trials)
    rows = [
        SweepRow(b=b, n=n, trials=cfg.trials, mean_distortion=mean, stderr=stderr,
                 n_times_mse=float(n * mean), bound=distortion_bound(b))
        for b, b_means, b_errs in zip(cfg.b_list, means.tolist(), stderrs.tolist())
        for n, mean, stderr in zip(cfg.n_list, b_means, b_errs)
    ]
    # one polyfit per bandwidth: a stacked polyfit's slopes differ in the last bits from 8 n on
    slopes = {b: loglog_slope(cfg.n_list, m) for b, m in zip(cfg.b_list, means)}
    report = ExperimentReport(rows=tuple(rows), slopes=slopes)
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        write_sweep_csv(report, os.path.join(cfg.output_dir, "sweep.csv"))
        write_json(os.path.join(cfg.output_dir, "sweep.json"), report._json_doc())
    return report


def write_sweep_csv(report: ExperimentReport, path):
    write_csv_lines(path, SWEEP_CSV_HEADER, (
        f"{r.b},{r.n},{r.trials},{r.mean_distortion:.17g},"
        f"{r.stderr:.17g},{r.n_times_mse:.17g},{r.bound:.17g}"
        for r in report.rows
    ))


def run_clt_check(cfg: ExperimentConfig, eval_points=None):
    """Distribution checks per (b, n) cell; returns the list of reports.

    Random mode fixes one field per bandwidth (drawn from the base seed)
    because the limit covariances depend on the field; a coefficient-file
    field_source pins the field explicitly.  ``eval_points``, when given, is checked
    as the config's are and replaces them.  Writes clt.json when output_dir is set.
    """
    eval_points = cfg.eval_points if eval_points is None else _check_eval_points(eval_points)
    fixed = _resolve_field(cfg)
    reports = []
    for b in cfg.b_list:
        if fixed is not None:
            field = fixed
        else:
            field_rng = np.random.default_rng(np.random.SeedSequence((cfg.base_seed, b)))
            field = random_field(b, field_rng)
        for n in cfg.n_list:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.base_seed, b, n)))
            reports.append(
                clt_empirical_check(field, n, cfg.trials, rng, eval_points=eval_points)
            )
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        write_json(os.path.join(cfg.output_dir, "clt.json"), {"checks": reports})
    return reports


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of a command's ``--seed``, which must lie in [0, 2^64)."""
    seed = as_int(seed, "seed")
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed))


def run_ambiguity_demo(
    field: FourierCoefficients,
    theta: float,
    n: int,
    grid_points: int,
    seed: int,
    output_dir: str = "",
) -> AmbiguityReport:
    """Shift-indistinguishability demo; writes JSON plus curve CSVs.

    Output files: ambiguity.json with the scalar report, and four
    two-column (x, cdf) curves — the sublevel-measure curves of the field
    and its shift, and the empirical value distributions of each.
    """
    report = ambiguity_demo(field, theta, n, grid_points, seeded_rng(seed))
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        write_json(os.path.join(output_dir, "ambiguity.json"), report.to_json_dict())
        for name, ys in (
            ("level_original", report.level_curve_original),
            ("level_shifted", report.level_curve_shifted),
            ("empirical_original", report.empirical_cdf_original),
            ("empirical_shifted", report.empirical_cdf_shifted),
        ):
            write_float_csv(
                os.path.join(output_dir, f"ambiguity_{name}.csv"), "x,cdf",
                np.column_stack((report.thresholds, ys)),
            )
    return report

