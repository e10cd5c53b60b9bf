import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import numpy.testing as npt
import pytest

from orderfield import (
    ExperimentConfig,
    deploy,
    distortion,
    estimate_coeffs,
    load_config,
    load_field,
    loglog_slope,
    observe,
    random_field,
    run_ambiguity_demo,
    run_clt_check,
    run_mse_sweep,
    shift_field,
)
from orderfield import cli, harness, parallel
from orderfield.estimator import estimate_at
from orderfield.ambiguity import MAX_GRID
from orderfield.fields import MAX_BANDWIDTH, MAX_COEFF, FourierCoefficients, eval_field
from orderfield.harness import (
    RANKED_MIN_N, SWEEP_CSV_HEADER, _bandwidth_distortions, _trial_seeds, _TrialSeed,
)
from orderfield.asymptotics import MAX_EVAL_POINTS, PointwiseCheck, QuantileMoments
from orderfield.harness import SweepRow
from orderfield.io import dumps_json, matrix_to_json, write_json
from orderfield.sampling import (
    MAX_SAMPLES, SampleSet, quantile_indices, sample_quantile_locations,
)


def small_config(**overrides):
    base = dict(b_list=[1], n_list=[20, 60], trials=6, base_seed=99)
    base.update(overrides)
    return ExperimentConfig(**base)


# the refusal of eval_points that are too many, or not a list or 1-D array
NOT_A_POINT_LIST = "eval_points must be a list or 1-D array of at most 1024 numbers"


# ---- config validation ----

def test_config_rejects_bad_shapes():
    with pytest.raises(ValueError):
        small_config(b_list=[])
    with pytest.raises(ValueError):
        small_config(n_list=[])
    for key, bad in [("b_list", 3), ("n_list", 60), ("n_list", "60"), ("b_list", None)]:
        with pytest.raises(ValueError, match=f"^{key} must be a list of integers, got {bad!r}$"):
            small_config(**{key: bad})
    with pytest.raises(ValueError):
        small_config(trials=0)
    # trial counts are capped below 2^32; such configs are never run
    assert small_config(trials=2**32 - 1).trials == 2**32 - 1
    with pytest.raises(ValueError, match=r"trials must lie in \[1, 2\^32\), got 4294967296"):
        small_config(trials=2**32)
    with pytest.raises(ValueError):
        small_config(b_list=[-1])
    with pytest.raises(ValueError):
        small_config(b_list=[2, 2])
    with pytest.raises(ValueError):
        small_config(n_list=[60, 60])
    with pytest.raises(ValueError):
        small_config(base_seed=-1)
    with pytest.raises(ValueError):
        small_config(base_seed=2**64)
    with pytest.raises(ValueError):
        small_config(field_source="")


def test_config_requires_enough_samples_for_largest_bandwidth():
    ExperimentConfig(b_list=[1, 3], n_list=[7], trials=1, base_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(b_list=[1, 3], n_list=[6], trials=1, base_seed=0)


def test_config_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        small_config(n_list=[20.0, 60])
    with pytest.raises(ValueError):
        small_config(trials=2.5)
    with pytest.raises(ValueError):
        small_config(trials=True)


def test_config_json_rejects_unknown_and_missing_keys():
    good = dict(b_list=[1], n_list=[30], trials=2, base_seed=1)
    ExperimentConfig.from_json_dict(good)
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({**good, "extra": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({k: v for k, v in good.items() if k != "trials"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict([1, 2])


def test_config_eval_points_are_finite_numbers_up_to_the_cap():
    assert small_config().eval_points is None
    assert small_config(eval_points=[-1, 0.5, 2**60]).eval_points == (-1.0, 0.5, 2.0**60)
    assert small_config(eval_points=[0.0] * MAX_EVAL_POINTS).eval_points == (0.0,) * 1024
    assert small_config(eval_points=[]).eval_points == ()
    # numpy integers and floats are numbers, as `io.as_int` takes numpy integers
    assert small_config(eval_points=[np.int64(1), 0.5]).eval_points == (1.0, 0.5)
    assert small_config(eval_points=[np.float32(0.25)]).eval_points == (0.25,)
    assert small_config(eval_points=np.array([3, -2])).eval_points == (3.0, -2.0)
    for bad in [[True], [0.5, "0.5"], [None], [math.nan], [-math.inf], [10**400], [[0.5]],
                [np.bool_(True)], [np.float32(np.inf)], np.array([True, False])]:
        with pytest.raises(ValueError, match="eval_points entries must be finite numbers"):
            small_config(eval_points=bad)
    for bad in [0.5, "0.5", {"t": 0.5}, [0.0] * (MAX_EVAL_POINTS + 1)]:
        with pytest.raises(ValueError, match=NOT_A_POINT_LIST):
            small_config(eval_points=bad)


def test_eval_points_keyword_takes_the_place_of_the_config_points():
    cfg = small_config(n_list=[40], eval_points=[0.25, -0.5])
    points = lambda reports: [c.t for c in reports[0].pointwise_checks]
    assert points(run_clt_check(cfg)) == [0.25, -0.5]
    assert points(run_clt_check(cfg, eval_points=[1.5])) == [1.5]
    plain = run_clt_check(small_config(n_list=[40]), eval_points=[0.25, -0.5])
    assert dumps_json(plain[0].to_json_dict()) == dumps_json(run_clt_check(cfg)[0].to_json_dict())
    assert run_clt_check(small_config(n_list=[40]))[0].pointwise_checks == ()


def test_eval_points_keyword_is_checked_as_the_config_points_are():
    cfg = small_config(n_list=[40])
    with pytest.raises(ValueError, match="eval_points entries must be finite numbers, got True"):
        run_clt_check(cfg, eval_points=[True, 0.5])
    for bad in (np.zeros(MAX_EVAL_POINTS + 1), np.zeros((2, 2)), 0.5):
        with pytest.raises(ValueError, match=NOT_A_POINT_LIST):
            run_clt_check(cfg, eval_points=bad)
    with pytest.raises(ValueError, match="eval_points entries must be finite numbers"):
        run_clt_check(cfg, eval_points=np.array([0.5, np.nan]))
    # a 1-D float array, as the benchmark passes, gives the report of the same tuple
    points = np.sort(np.random.default_rng(5).random(8))
    from_array = run_clt_check(cfg, eval_points=points)[0]
    from_tuple = run_clt_check(cfg, eval_points=tuple(points.tolist()))[0]
    assert [c.t for c in from_array.pointwise_checks] == points.tolist()
    assert dumps_json(from_array) == dumps_json(from_tuple)
    # no points, from the keyword or the config, give no pointwise checks
    assert run_clt_check(cfg, eval_points=np.zeros(0))[0].pointwise_checks == ()
    assert run_clt_check(small_config(n_list=[40], eval_points=[]))[0].pointwise_checks == ()


def test_sweep_refuses_a_config_with_eval_points(tmp_path):
    for points in [[0.5], []]:
        with pytest.raises(ValueError, match="eval_points applies to clt-check only"):
            run_mse_sweep(small_config(eval_points=points, output_dir=str(tmp_path / "o")))
    assert not (tmp_path / "o").exists()


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(b_list=[2], n_list=[50], trials=3, base_seed=5)))
    cfg = load_config(path)
    assert cfg.b_list == (2,) and cfg.n_list == (50,) and cfg.field_source == "random"


# ---- sweep behaviour ----

def test_sweep_rows_and_invariants():
    cfg = small_config()
    report = run_mse_sweep(cfg)
    assert [(r.b, r.n) for r in report.rows] == [(1, 20), (1, 60)]
    for row in report.rows:
        assert row.trials == 6
        assert row.mean_distortion >= 0.0
        assert row.stderr >= 0.0
        assert row.n_times_mse == row.n * row.mean_distortion
        npt.assert_allclose(row.bound, 3 * np.pi**2, atol=1e-12)
    assert set(report.slopes) == {1}


def test_sweep_is_deterministic():
    a = run_mse_sweep(small_config())
    b = run_mse_sweep(small_config())
    assert [r.mean_distortion for r in a.rows] == [r.mean_distortion for r in b.rows]


def test_sweep_single_trial_has_zero_stderr():
    report = run_mse_sweep(small_config(trials=1))
    assert all(r.stderr == 0.0 for r in report.rows)


def test_sweep_constant_fields_are_exact():
    report = run_mse_sweep(ExperimentConfig(b_list=[0], n_list=[10, 40], trials=5, base_seed=3))
    assert all(r.mean_distortion == 0.0 for r in report.rows)
    # zero means make the log-log slope undefined; JSON renders it null
    assert np.isnan(report.slopes[0])
    doc = report.to_json_dict()
    assert doc["slopes"]["0"] is None


def _full_path_distortions(cfg, b, n, fixed):
    """Reference trials: order all n values (`observe`), then `estimate_coeffs`,
    each on a PCG64 seeded with its row of the cell's `_trial_seeds`."""
    out = []
    for state in _trial_seeds(cfg.base_seed, b, n, cfg.trials):
        rng = np.random.Generator(np.random.PCG64(_TrialSeed(state)))
        field = fixed if fixed is not None else random_field(b, rng)
        out.append(distortion(estimate_coeffs(observe(field, deploy(n, rng)), b), field))
    return np.array(out)


@pytest.mark.parametrize("b", [0, 1, 3, 4, 8])
@pytest.mark.parametrize("fixed_field", [False, True])
def test_rank_only_trials_equal_the_full_path(b, fixed_field, complex_random_field):
    # from b = 4 on, 2b+1 >= 9 and numpy sums the field magnitudes pairwise, unrolled
    fixed = None
    if fixed_field:
        fixed = complex_random_field(b, np.random.default_rng(40 + b))
    # RANKED_MIN_N - 1 is the largest n whose trials still sort a whole draw
    for n in sorted({2 * b + 1, 2 * b + 2, 50, 333, 1000, RANKED_MIN_N - 1}):
        # a 32-bit and a 64-bit base seed: 3 and 4 SeedSequence words per cell
        for base_seed in (17 + n, 2**64 - 17 - n):
            cfg = ExperimentConfig(b_list=[b], n_list=[n], trials=12, base_seed=base_seed)
            rank_only = _bandwidth_distortions(cfg, b, fixed)[0]
            assert rank_only.tolist() == _full_path_distortions(cfg, b, n, fixed).tolist()


def _ranked_path_distortions(cfg, b, n):
    """Reference trials from `RANKED_MIN_N` points on, one at a time: each trial's field
    on the generator of the cell's seed row 0, then its 2b+1 ranked locations from
    `sample_quantile_locations` on the generator of row 1, the field's values there set
    at their ranks of an n-value `SampleSet`, then `estimate_coeffs`."""
    out = []
    ranks0 = quantile_indices(n, b) - 1
    field_rng, gap_rng = (np.random.Generator(np.random.PCG64(_TrialSeed(state)))
                          for state in _trial_seeds(cfg.base_seed, b, n, 2))
    for _ in range(cfg.trials):
        field = random_field(b, field_rng)
        values = np.zeros(n, dtype=np.complex128)
        values[ranks0] = eval_field(field, sample_quantile_locations(n, b, 1, gap_rng)[0])
        out.append(distortion(estimate_coeffs(SampleSet(values), b), field))
    return np.array(out)


@pytest.mark.parametrize("n", [2**14, 10**5])
@pytest.mark.parametrize("b", [0, 1, 3, 8])
def test_rank_only_trials_match_the_full_path_at_large_n(b, n):
    # the batched cell against one trial at a time through the public estimator
    assert n >= RANKED_MIN_N
    cfg = ExperimentConfig(b_list=[b], n_list=[n], trials=4, base_seed=5)
    assert (_bandwidth_distortions(cfg, b, None)[0] == _ranked_path_distortions(cfg, b, n)).all()


@pytest.mark.parametrize("fixed_field", [False, True])
def test_batched_cell_equals_the_full_path_above_16384_values(fixed_field, complex_random_field):
    # 2400 trials x 7 ranked locations = 16800 values in one batched
    # evaluation, past the size from which numpy elides temporaries
    b, n = 3, 50
    fixed = complex_random_field(b, np.random.default_rng(7)) if fixed_field else None
    cfg = ExperimentConfig(b_list=[b], n_list=[n], trials=2400, base_seed=11)
    batched = _bandwidth_distortions(cfg, b, fixed)[0]
    assert batched.tolist() == _full_path_distortions(cfg, b, n, fixed).tolist()


@pytest.mark.parametrize("fixed_field", [False, True])
def test_sweep_cell_is_prefix_stable(fixed_field, complex_random_field):
    # the first T trials of a 2T-trial cell are the T-trial cell, below RANKED_MIN_N
    # (a generator per trial) and from it on (one generator per kind of draw)
    b, trials = 2, 9
    fixed = complex_random_field(b, np.random.default_rng(3)) if fixed_field else None
    for n in (60, RANKED_MIN_N, 10**5):
        for base_seed in (20260822, 2**64 - 59):
            short = ExperimentConfig(b_list=[b], n_list=[n], trials=trials, base_seed=base_seed)
            long = ExperimentConfig(b_list=[b], n_list=[n], trials=2 * trials,
                                    base_seed=base_seed)
            head = _bandwidth_distortions(long, b, fixed)[0][:trials]
            assert head.tolist() == _bandwidth_distortions(short, b, fixed)[0].tolist()


def _bits(row):
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("trials", [1, 2, 37])
@pytest.mark.parametrize("fixed_field", [False, True])
def test_sweep_rows_and_slopes_equal_single_cell_sweeps(
    monkeypatch, tmp_path, threads, trials, fixed_field, complex_random_field
):
    # a bandwidth's cells are estimated together; each row must still be its own cell's,
    # bitwise, with n on both sides of RANKED_MIN_N and every slope the row-by-row fit,
    # whatever ORDERSTAT_THREADS holds: the package does not read it
    monkeypatch.setenv(parallel.ENV_THREADS, str(threads))
    base = dict(n_list=[11, 300, RANKED_MIN_N - 1, RANKED_MIN_N, 10**5], trials=trials,
                base_seed=2**64 - 3 * trials)
    if fixed_field:
        path = tmp_path / "field.json"
        write_json(path, complex_random_field(5, np.random.default_rng(trials)).to_json_dict())
        base.update(b_list=[5], field_source=str(path))
    else:
        base.update(b_list=[0, 2, 5])
    report = run_mse_sweep(ExperimentConfig(**base))
    cells = [(b, n) for b in base["b_list"] for n in base["n_list"]]
    assert [(r.b, r.n) for r in report.rows] == cells
    for row, (b, n) in zip(report.rows, cells):
        (alone,) = run_mse_sweep(ExperimentConfig(**{**base, "b_list": [b], "n_list": [n]})).rows
        assert _bits(row) == _bits(alone)
    for b in base["b_list"]:
        means = [r.mean_distortion for r in report.rows if r.b == b]
        assert report.slopes[b].hex() == loglog_slope(base["n_list"], means).hex()


def test_sweep_slopes_are_row_by_row_fits_at_nine_n_values():
    # from 8 n values on, one polyfit over a stack of mean rows differs from the
    # row-by-row fits in the last bits (at this seed, for b = 1)
    cfg = ExperimentConfig(b_list=[0, 1, 2, 3], n_list=[7 * 2**k for k in range(9)], trials=3,
                           base_seed=8)
    report = run_mse_sweep(cfg)
    for b in cfg.b_list:
        means = [r.mean_distortion for r in report.rows if r.b == b]
        assert report.slopes[b].hex() == loglog_slope(cfg.n_list, means).hex()


def test_sweep_refuses_2_to_the_53_points_and_runs_just_below():
    # the config refuses it when built, before an earlier cell could run
    with pytest.raises(ValueError, match=r"sample count must be below 2\*\*53 for exact Gamma"):
        ExperimentConfig(b_list=[1], n_list=[100, 2**53], trials=2, base_seed=4)
    (row,) = run_mse_sweep(ExperimentConfig(b_list=[1], n_list=[2**53 - 1], trials=2,
                                            base_seed=4)).rows
    assert math.isfinite(row.n_times_mse) and row.stderr >= 0.0


@pytest.mark.parametrize("n", [100, 10**5])
def test_sweep_trial_locations_have_exact_order_statistic_moments(monkeypatch, n):
    # the ranked locations a random-field sweep cell estimates from, against the
    # exact Beta means r/(n+1) and Cov(U_(i), U_(j)) = i(n-j+1)/((n+1)^2 (n+2)), i <= j;
    # and consecutive trials uncorrelated; n = 100 sorts whole draws, n = 10^5 draws
    # the cell's Gamma gaps in one call.  Over base seeds 1000..1039 the worst |z| of a
    # mean was 2.9 and 2.7, of a lag-1 correlation 3.0 and 3.1, and the worst covariance
    # error 0.044 and 0.049 of sd_i sd_j (U_(1)'s variance at n = 100, whose error has a
    # heavy tail)
    seen = []

    def capture(coeffs, locs):
        seen.append(locs)
        return estimate_at(coeffs, locs)

    monkeypatch.setattr(harness, "estimate_at", capture)
    b, trials = 1, 20_000
    cfg = ExperimentConfig(b_list=[b], n_list=[n], trials=trials, base_seed=7)
    _bandwidth_distortions(cfg, b, None)
    (locs,) = seen
    r = quantile_indices(n, b).astype(np.float64)
    lo, hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    cov = lo * (n - hi + 1) / ((n + 1) ** 2 * (n + 2))
    sd = np.sqrt(np.diag(cov))
    z = (locs.mean(axis=0) - r / (n + 1)) / (sd / math.sqrt(trials))
    assert np.abs(z).max() < 4.0, z
    err = np.abs(np.cov(locs, rowvar=False) - cov) / np.outer(sd, sd)
    assert err.max() < 0.06, err
    lag = [np.corrcoef(locs[:-1, k], locs[1:, k])[0, 1] for k in range(2 * b + 1)]
    assert np.abs(lag).max() * math.sqrt(trials) < 4.0, lag


def test_trial_seeds_are_numpys_generate_state_words():
    # computed as arrays from the cell's pool, which holds numpy's 4 words
    for base_seed in (0, 2**32 - 1, 2**32, 2**64 - 1):
        for b in (0, 8, 1024):
            for n in (1, 2**11, 2**53 - 1):
                ss = np.random.SeedSequence((base_seed, b, n))
                assert ss.pool.dtype == np.uint32 and ss.pool.shape == (4,)
                for trials in (1, 2, 3, 1000):
                    want = ss.generate_state(4 * trials, np.uint64).reshape(trials, 4)
                    got = _trial_seeds(base_seed, b, n, trials)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


def test_trial_seed_refuses_other_requests():
    seed = _TrialSeed(_trial_seeds(5, 1, 10, 3)[0])
    expected = np.random.SeedSequence((5, 1, 10)).generate_state(4, np.uint64)
    assert seed.generate_state(4, np.uint64).tobytes() == expected.tobytes()
    for n_words, dtype in [(8, np.uint32), (4, np.uint32), (2, np.uint64), (8, np.uint64)]:
        with pytest.raises(ValueError, match="a trial seed holds 4 uint64 words"):
            seed.generate_state(n_words, dtype)


def test_loglog_slope_recovers_exact_power_law():
    ns = [100, 1000, 10000]
    means = [7.0 / n for n in ns]
    npt.assert_allclose(loglog_slope(ns, means), -1.0, atol=1e-12)
    assert np.isnan(loglog_slope([100], [1.0]))


def test_fixed_field_mode(tmp_path, cosine_field):
    path = tmp_path / "field.json"
    write_json(path, cosine_field.to_json_dict())
    cfg = small_config(field_source=str(path), n_list=[200])
    a = run_mse_sweep(cfg)
    b = run_mse_sweep(cfg)
    assert a.rows[0].mean_distortion == b.rows[0].mean_distortion
    assert a.rows[0].mean_distortion > 0.0


def test_fixed_field_bandwidth_mismatch_leaves_no_output(tmp_path, cosine_field):
    path = tmp_path / "field.json"
    write_json(path, cosine_field.to_json_dict())
    out = tmp_path / "results"
    cfg = ExperimentConfig(
        b_list=[2], n_list=[50], trials=2, base_seed=1,
        field_source=str(path), output_dir=str(out),
    )
    with pytest.raises(ValueError):
        run_mse_sweep(cfg)
    assert not out.exists()


def test_missing_fixed_field_leaves_no_output(tmp_path):
    out = tmp_path / "results"
    cfg = small_config(field_source=str(tmp_path / "nope.json"), output_dir=str(out))
    with pytest.raises(OSError):
        run_mse_sweep(cfg)
    assert not out.exists()


def test_sweep_output_files(tmp_path):
    out = tmp_path / "results"
    report = run_mse_sweep(small_config(output_dir=str(out)))
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == SWEEP_CSV_HEADER
    assert len(csv_lines) == 1 + len(report.rows)
    # plain '.' decimals, no separators, and values round-trip exactly
    row_re = re.compile(r"^1,\d+,6(,[0-9.eE+-]+){4}$")
    for line, row in zip(csv_lines[1:], report.rows):
        assert row_re.match(line), line
        parts = line.split(",")
        assert float(parts[3]) == row.mean_distortion
        assert float(parts[5]) == row.n_times_mse
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["rows"][0]["mean_distortion"] == report.rows[0].mean_distortion
    assert set(doc) == {"rows", "slopes"}
    # the JSON row keys are the CSV columns
    assert set(doc["rows"][0]) == set(SWEEP_CSV_HEADER.split(","))


def test_clt_check_runs_and_writes(tmp_path, cosine_field):
    path = tmp_path / "field.json"
    write_json(path, cosine_field.to_json_dict())
    out = tmp_path / "results"
    cfg = ExperimentConfig(
        b_list=[1], n_list=[50], trials=30, base_seed=12,
        field_source=str(path), output_dir=str(out),
    )
    reports = run_clt_check(cfg)
    assert len(reports) == 1 and reports[0].trials == 30
    doc = json.loads((out / "clt.json").read_text())
    assert doc["checks"][0]["n"] == 50


def test_clt_check_random_mode_fixes_field_per_bandwidth():
    cfg = ExperimentConfig(b_list=[1], n_list=[40], trials=10, base_seed=8)
    a = run_clt_check(cfg)[0]
    b = run_clt_check(cfg)[0]
    npt.assert_array_equal(a.analytic_coeff_cov, b.analytic_coeff_cov)


def test_ambiguity_demo_writes_curves(tmp_path, cosine_field):
    out = tmp_path / "amb"
    report = run_ambiguity_demo(cosine_field, 0.25, 256, 2048, 7, output_dir=str(out))
    doc = json.loads((out / "ambiguity.json").read_text())
    assert doc["sup_cdf_diff_theory"] == report.sup_cdf_diff_theory
    for name in (
        "ambiguity_level_original.csv",
        "ambiguity_level_shifted.csv",
        "ambiguity_empirical_original.csv",
        "ambiguity_empirical_shifted.csv",
    ):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x,cdf"
        assert len(lines) == 1 + report.thresholds.size


def _estimate_doc():
    field = random_field(3, np.random.default_rng(5))
    return estimate_coeffs(observe(field, deploy(400, np.random.default_rng(6))), 3).to_json_dict()


class _Objects(NamedTuple):
    """A document holding report objects, and the same document built through
    their ``to_json_dict()``."""

    doc: object
    view: object


def _clt_objects():
    # at b = 0 the quantile moments are an empty tuple and the quantile covariances (0, 0)
    cfg = ExperimentConfig(b_list=[0, 2], n_list=[50], trials=10, base_seed=3)
    reports = run_clt_check(cfg, eval_points=[0.1, 0.7])
    return _Objects({"checks": reports}, {"checks": [r.to_json_dict() for r in reports]})


def _sweep_objects():
    report = run_mse_sweep(small_config(b_list=[0, 1]))
    return _Objects(report._json_doc(), report.to_json_dict())


def _non_finite_objects():
    report = _clt_objects().doc["checks"][1]
    cov = report.empirical_coeff_cov.copy()
    cov[0, 1] = complex(1.0, math.nan)
    moments = QuantileMoments(1, 2, 0.2, math.inf, -math.inf, math.nan, 0.5)
    point = PointwiseCheck(0.5, complex(math.nan, 1.0), math.inf, complex(2.0, -math.inf), 0.25)
    bad = dataclasses.replace(report, coeff_cov_rel_err=math.nan, empirical_coeff_cov=cov,
                              per_quantile_moments=(moments,), pointwise_checks=(point,))
    row = SweepRow(b=1, n=10, trials=2, mean_distortion=math.nan, stderr=math.inf,
                   n_times_mse=-math.inf, bound=1.0)
    return _Objects({"checks": [bad], "rows": [row]},
                    {"checks": [bad.to_json_dict()], "rows": [row.to_json_dict()]})


def _numpy_scalar_objects():
    # numpy 2 gives np.float64(0.1) the repr "np.float64(0.1)", so these records are
    # written value by value
    row = SweepRow(b=np.int64(1), n=10, trials=True, mean_distortion=np.float64(0.1),
                   stderr=np.float32(0.5), n_times_mse=0.1, bound=2**70)
    point = PointwiseCheck(np.float64(0.25), np.complex128(1 - 2j), 0.5, 1 + 0.5j, -0.0)
    report = dataclasses.replace(_clt_objects().doc["checks"][0], pointwise_checks=(point,))
    return _Objects([row, report], [row.to_json_dict(), report.to_json_dict()])


def _two_indent_objects():
    row = run_mse_sweep(small_config()).rows[0]
    return _Objects({"row": row, "rows": [row, [row]]},
                    {"row": row.to_json_dict(), "rows": [row.to_json_dict(), [row.to_json_dict()]]})


def _clt_doc():
    return _clt_objects().view


_BRACE_KEYS = {"{0}": 0.5, "}%r{": -1.5, "{{": 2, "%%": 1 + 2j, "\u00e9\u2014": 3, "": 0.25}


JSON_DOCS = {
    "non-finite and tiny floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324],
    "big int, bools beside ints, null": {"big": 2**80, "flags": [True, 1, False, 0], "z": None},
    "empty list and dict": {"list": [], "dict": {}, "nested": [[], {}]},
    "(0, 0) matrix": matrix_to_json(np.zeros((0, 0))),
    "pair list holding a NaN": [[0.5, -0.0], [math.nan, 1.0]],
    "pairs holding an int, a numpy float and a bool": [[1.0, 2.0], [3, np.float64(0.1)], [True, 0.5]],
    "strings": ["se\u00f1al \u2014 \U0001d11e", "tab\tbell\x07 quote\" back\\"],
    "numeric string keys": {"10": 1.5, "2": [[0.25, 0.75]]},
    "tuples": (1.0, (2.0, 3.0), ("a", None)),
    "inline object leaves": {
        "true": True, "one": 1, "false": False, "zero": 0, "nan": math.nan, "inf": math.inf,
        "-inf": -math.inf, "2^63": 2**63, "-2^64-1": -(2**64) - 1, "none": None,
        "escaped": "q\"uote\\ \n\t\u00e9\U0001d11e\x7f", "empty list": [], "empty dict": {},
    },
    "inline list leaves": [True, 1, 1.0, False, 0, -0.0, math.nan, math.inf, -math.inf,
                           2**63, 2**100, -(2**63) - 1, None, "\u2028\"\\/", ""],
    "non-finite pairs": [[math.nan, 1.0], [math.inf, -math.inf]],
    "pairs beside a non-finite pair": [[0.5, 0.25], [-math.inf, 2.0], [1e300, -1e-300]],
    "lists that mix scalars and lists": [
        1.0, [2.0, 3.0], "a", [], {}, [[0.5, 0.25]], [True, None], [[1, 2], 3], [[], [1.5]],
    ],
    "numpy and subclass leaves beside plain ones": {
        "floats": [np.float64(0.1), 0.1, np.float64(math.nan)], "value": np.float64(-2.5),
        "flag": np.True_.item(), "ints": [2**64, np.int64(-3).item()],
    },
    "field": lambda: random_field(3, np.random.default_rng(4)).to_json_dict(),
    "field at MAX_BANDWIDTH": lambda: random_field(
        MAX_BANDWIDTH, np.random.default_rng(6)).to_json_dict(),
    "estimate": _estimate_doc,
    "sweep report": lambda: run_mse_sweep(small_config(b_list=[0, 1])).to_json_dict(),
    "clt report with eval points": _clt_doc,
    "ambiguity report": lambda: run_ambiguity_demo(
        random_field(2, np.random.default_rng(8)), 0.3, 200, 512, 9
    ).to_json_dict(),
    "flat object keys holding braces, % and non-ASCII": lambda: _Objects(_BRACE_KEYS, {
        **_BRACE_KEYS, "%%": [1.0, 2.0]}),
    "flat object keys holding nan and inf": {"banana": 1.0, "info": 2, "z": -0.5},
    "clt reports": _clt_objects,
    "sweep document of SweepRow objects": _sweep_objects,
    "records holding NaN and infinities": _non_finite_objects,
    "records holding numpy scalars": _numpy_scalar_objects,
    "one record type at two indents": _two_indent_objects,
}


@pytest.mark.parametrize("name", JSON_DOCS)
def test_dumps_json_is_the_stdlib_indent_text(name):
    doc = JSON_DOCS[name]() if callable(JSON_DOCS[name]) else JSON_DOCS[name]
    doc, view = doc if isinstance(doc, _Objects) else (doc, doc)
    assert dumps_json(doc) == json.dumps(view, indent=2, sort_keys=True)


def test_ambiguity_demo_rejects_bad_seed(cosine_field):
    with pytest.raises(ValueError):
        run_ambiguity_demo(cosine_field, 0.25, 16, 1024, -3)


# ---- command-line interface ----

@pytest.fixture
def run_cli(cli_env):
    def run(*args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "orderfield", *args],
            capture_output=True, text=True, cwd=str(cwd), env=cli_env,
        )
    return run


def test_cli_usage_errors_exit_1(tmp_path, run_cli):
    # "usage" in stderr tells an argparse error from the interpreter's own
    # exit 1 when it cannot import the package
    for args in [
        ("bogus",),
        (),
        ("gen-field", "--b", "1", "--bogus-flag"),
        ("estimate", "--n", "100"),
        ("ambiguity-demo", "--theta", "0.1"),
        ("ambiguity-demo", "--field", "field.json", "--b", "1"),
    ]:
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 1, f"{args}: {r.stderr}"
        assert "usage" in r.stderr, f"{args}: {r.stderr}"


def test_cli_exits_0_quietly_when_stdout_is_closed(tmp_path, cli_env):
    # the reader takes one line of a ~50 kB field document and closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "orderfield", "gen-field", "--b", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=str(tmp_path), env=cli_env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0, err
    assert err == b""


def test_cli_runtime_errors_exit_2(tmp_path, run_cli, cosine_field):
    r = run_cli("estimate", "--field", "missing.json", "--n", "50", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "error" in r.stderr
    # numpy refuses these 7 PiB requests before touching any memory
    field_path = tmp_path / "field.json"
    write_json(field_path, cosine_field.to_json_dict())
    for args in [
        ("estimate", "--field", str(field_path), "--n", "1000000000000000"),
        ("ambiguity-demo", "--b", "1", "--grid", "1000000000000000"),
    ]:
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 2, f"{args}: {r.stderr}"
        assert "orderfield: error:" in r.stderr and "Traceback" not in r.stderr, r.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("mse-sweep", "--config", str(bad), "--out", "o", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(b_list=[1], n_list=[30], trials=0, base_seed=1)))
    r = run_cli("mse-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    cfg.write_text(json.dumps(dict(b_list=3, n_list=[30], trials=2, base_seed=1)))
    r = run_cli("mse-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), cwd=tmp_path)
    assert (r.returncode, r.stderr) == (
        2, "orderfield: error: b_list must be a list of integers, got 3\n"), r.stderr
    assert not (tmp_path / "o").exists()


def test_cli_rejects_non_finite_theta_and_out_of_range_seeds(tmp_path, run_cli):
    for args, message in [
        (("ambiguity-demo", "--b", "1", "--theta", "inf"), "theta must be finite"),
        (("ambiguity-demo", "--b", "1", "--theta", "nan"), "theta must be finite"),
        (("gen-field", "--b", "1", "--seed", "-1"), "seed must lie in [0, 2^64), got -1"),
        (("gen-field", "--b", "1", "--seed", str(2**64)), f"got {2**64}"),
        (("ambiguity-demo", "--b", "1", "--seed", "-3"), "got -3"),
    ]:
        r = run_cli(*args, cwd=tmp_path)
        assert r.returncode == 2, f"{args}: {r.stderr}"
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("orderfield: error:"), r.stderr
        assert message in lines[0], r.stderr
    # a finite theta of 1e308 is a whole number of periods: no shift at all
    r = run_cli("ambiguity-demo", "--b", "1", "--theta", "1e308", "--n", "64", "--grid", "64",
                cwd=tmp_path)
    assert (r.returncode, r.stderr) == (0, ""), r.stderr
    assert json.loads(r.stdout)["distortion_between_fields"] == 0.0


def test_cli_rejects_boolean_coefficient_parts(tmp_path, run_cli):
    field = tmp_path / "field.json"
    field.write_text('{"b": 0, "real_valued": true, "coeffs": [[true, false]]}')
    r = run_cli("estimate", "--field", str(field), "--n", "10", cwd=tmp_path)
    assert (r.returncode, r.stdout) == (2, ""), r.stderr
    assert r.stderr.splitlines() == [
        "orderfield: error: malformed coefficient document: "
        "pair parts must be numbers, not true or false"
    ], r.stderr


def test_cli_rejects_trial_counts_of_2_to_the_32(tmp_path, capsys):
    # in-process: each command exits 2 at the config check, before any trial runs
    good = tmp_path / "cfg.json"
    good.write_text(json.dumps(dict(b_list=[1], n_list=[50], trials=2, base_seed=1)))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(b_list=[1], n_list=[50], trials=2**32, base_seed=1)))
    for args in [
        ("mse-sweep", "--config", str(bad), "--out", str(tmp_path / "o")),
        ("clt-check", "--config", str(bad), "--out", str(tmp_path / "o")),
        ("mse-sweep", "--config", str(good), "--out", str(tmp_path / "o"),
         "--trials", str(2**32)),
    ]:
        assert cli.main(list(args)) == 2, args
        out, err = capsys.readouterr()
        assert out == "", args
        assert err.splitlines() == [
            "orderfield: error: trials must lie in [1, 2^32), got 4294967296"
        ], args
    assert not (tmp_path / "o").exists()


def test_cli_refuses_2_to_the_53_points_at_the_config(tmp_path, capsys, monkeypatch):
    # in-process: each command exits 2 at the config check, before the n = 100 cell runs
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "_trial_seeds", no_cell)
    monkeypatch.setattr(harness, "clt_empirical_check", no_cell)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(b_list=[1], n_list=[100, 2**53], trials=10**5, base_seed=1)))
    for command in ("mse-sweep", "clt-check"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", "orderfield: error: sample count must be below 2**53 "
                                           "for exact Gamma shapes, got 9007199254740992\n")
    assert not (tmp_path / "o").exists()


def test_cli_sweep_ignores_the_thread_variable(tmp_path, capsys, monkeypatch):
    # in-process: cells below and from RANKED_MIN_N, with the variable unset and at two
    # values that a worker count would refuse
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(b_list=[1, 2], n_list=[40, RANKED_MIN_N], trials=5,
                                   base_seed=17)))
    outputs = []
    for value in (None, "0", "two"):
        if value is None:
            monkeypatch.delenv(parallel.ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(parallel.ENV_THREADS, value)
        out = tmp_path / f"o{len(outputs)}"
        assert cli.main(["mse-sweep", "--config", str(cfg), "--out", str(out)]) == 0, value
        assert capsys.readouterr().err == "", value
        outputs.append([(out / name).read_bytes() for name in ("sweep.csv", "sweep.json")])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_cli_eval_points_reach_clt_json_and_bad_ones_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    base = dict(b_list=[1], n_list=[30], trials=5, base_seed=2)
    cfg.write_text(json.dumps({**base, "eval_points": [-0.5, 0, 1.25]}))
    assert cli.main(["clt-check", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "c" / "clt.json").read_text())
    assert [c["t"] for c in doc["checks"][0]["pointwise_checks"]] == [-0.5, 0.0, 1.25]
    assert cli.main(["mse-sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr() == ("", "orderfield: error: eval_points applies to clt-check "
                                       "only; remove it from the sweep config\n")
    for points, message in [
        ([0.5, True], "eval_points entries must be finite numbers, got True"),
        ("0.5", NOT_A_POINT_LIST),
    ]:
        cfg.write_text(json.dumps({**base, "eval_points": points}))
        for command in ("clt-check", "mse-sweep"):
            assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr() == ("", f"orderfield: error: {message}\n"), command
    cfg.write_text(json.dumps(base)[:-1] + ', "eval_points": [NaN]}')
    assert cli.main(["clt-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "orderfield: error: eval_points entries must be finite numbers, got nan"
    ]
    assert not (tmp_path / "s").exists() and not (tmp_path / "o").exists()


def test_cli_rejects_bandwidths_above_the_cap(tmp_path, capsys, cosine_field):
    # in-process: each command exits 2 before building anything of size 2b+1
    field_path = tmp_path / "field.json"
    write_json(field_path, cosine_field.to_json_dict())
    big = str(MAX_BANDWIDTH + 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(b_list=[int(big)], n_list=[50], trials=2, base_seed=1)))
    for args in [
        ("gen-field", "--b", big),
        ("estimate", "--field", str(field_path), "--n", "50", "--b", big),
        ("mse-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")),
        ("clt-check", "--config", str(cfg), "--out", str(tmp_path / "o")),
    ]:
        assert cli.main(list(args)) == 2, args
        out, err = capsys.readouterr()
        assert out == "", args
        assert err.splitlines() == [
            f"orderfield: error: bandwidth index must be <= {MAX_BANDWIDTH}, got {big}"
        ], args
    assert not (tmp_path / "o").exists()


def test_cli_rejects_sample_counts_above_the_cap(tmp_path, capsys, cosine_field):
    # in-process: each command exits 2 at the count check, before anything of size n exists
    field_path = tmp_path / "field.json"
    write_json(field_path, cosine_field.to_json_dict())
    big = str(MAX_SAMPLES + 1)
    for args in [
        ("sample", "--field", str(field_path), "--n", big, "--out", str(tmp_path / "o")),
        ("estimate", "--field", str(field_path), "--n", big),
        ("ambiguity-demo", "--field", str(field_path), "--n", big),
    ]:
        assert cli.main(list(args)) == 2, args
        out, err = capsys.readouterr()
        assert out == "", args
        assert err.splitlines() == [
            f"orderfield: error: sample count must lie in [1, {MAX_SAMPLES}], got {big}"
        ], args
    assert not (tmp_path / "o").exists()


def test_cli_rejects_grids_above_the_cap(tmp_path, capsys):
    # in-process: exit 2 at the grid check, before anything of the grid's size exists
    big = str(MAX_GRID + 1)
    assert cli.main(["ambiguity-demo", "--b", "1", "--grid", big]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"orderfield: error: grid must have 3 to {MAX_GRID} points for b=1, got {big}"
    ]


def test_cli_refuses_huge_coefficients_with_one_line(tmp_path, run_cli):
    # refused when the field is read, before any arithmetic could overflow or warn
    (tmp_path / "huge.json").write_text(
        json.dumps(dict(b=1, real_valued=False, coeffs=[[1e308, 0.0]] * 3))
    )
    (tmp_path / "cfg.json").write_text(json.dumps(dict(
        b_list=[1], n_list=[20], trials=4, base_seed=1, field_source="huge.json"
    )))
    for args in [
        ("sample", "--field", "huge.json", "--n", "10", "--out", "o"),
        ("estimate", "--field", "huge.json", "--n", "10"),
        ("mse-sweep", "--config", "cfg.json", "--out", "o"),
        ("clt-check", "--config", "cfg.json", "--out", "o"),
        ("ambiguity-demo", "--field", "huge.json", "--n", "10", "--grid", "16"),
    ]:
        r = run_cli(*args, cwd=tmp_path)
        assert (r.returncode, r.stdout) == (2, ""), f"{args}: {r.stderr}"
        lines = r.stderr.splitlines()
        assert len(lines) == 1, f"{args}: {r.stderr}"
        assert lines[0].startswith("orderfield: error: coefficient parts must be at most")
    assert not (tmp_path / "o").exists()


def test_cli_runs_on_a_field_whose_estimates_and_shifts_exceed_the_cap(tmp_path, capsys):
    # only fields that enter the program are held to MAX_COEFF, not what is derived
    path = tmp_path / "field.json"
    path.write_text(json.dumps(dict(b=2, real_valued=False, coeffs=[
        [1e60, -1e60], [-1e60, 1e60], [1e60, 0.0], [-1e60, -1e60], [1e60, 1e60],
    ])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        b_list=[2], n_list=[20, 60], trials=9, base_seed=4, field_source=str(path)
    )))
    for args in [
        ("estimate", "--field", str(path), "--n", "50", "--out", str(tmp_path / "est")),
        ("mse-sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")),
        ("clt-check", "--config", str(cfg), "--out", str(tmp_path / "clt")),
        ("ambiguity-demo", "--field", str(path), "--n", "100", "--grid", "64"),
    ]:
        assert cli.main(list(args)) == 0, args
        assert capsys.readouterr().err == "", args
    est = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert np.abs(est["coeffs"]).max() > MAX_COEFF
    assert np.abs(shift_field(load_field(path), 0.25).coeffs.view(np.float64)).max() > MAX_COEFF


def test_cli_refuses_to_read_back_an_estimate_above_the_cap(tmp_path, capsys):
    # an estimate is derived, so it may exceed MAX_COEFF; read back as a field, it is an
    # input like any other and is refused with the cap's one line
    path = tmp_path / "field.json"
    path.write_text(json.dumps(dict(b=2, real_valued=False, coeffs=[
        [1e60, -1e60], [-1e60, 1e60], [1e60, 0.0], [-1e60, -1e60], [1e60, 1e60],
    ])))
    assert cli.main(["estimate", "--field", str(path), "--n", "50", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    estimate = tmp_path / "estimate.json"
    assert np.abs(json.loads(estimate.read_text())["coeffs"]).max() > MAX_COEFF
    for args in [
        ("sample", "--field", str(estimate), "--n", "10", "--out", str(tmp_path / "o")),
        ("estimate", "--field", str(estimate), "--n", "50"),
        ("ambiguity-demo", "--field", str(estimate), "--n", "10", "--grid", "16"),
    ]:
        assert cli.main(list(args)) == 2, args
        assert capsys.readouterr() == (
            "", "orderfield: error: coefficient parts must be at most 1e+60 in magnitude\n"
        ), args
    assert not (tmp_path / "o").exists()


def test_cli_clt_check_refuses_a_complex_fixed_field(tmp_path, capsys, complex_random_field):
    field = complex_random_field(1, np.random.default_rng(2))
    write_json(tmp_path / "field.json", field.to_json_dict())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        b_list=[1], n_list=[20], trials=4, base_seed=1, field_source=str(tmp_path / "field.json")
    )))
    assert cli.main(["clt-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "orderfield: error: sample covariance requires a real-valued field"
    ]


@pytest.mark.parametrize("scale", [1.0, 2.0**40])
def test_cli_verdicts_on_a_real_field_do_not_depend_on_its_scale(tmp_path, capsys, scale):
    field = random_field(2, np.random.default_rng(6))
    path = tmp_path / "field.json"
    write_json(path, FourierCoefficients(scale * field.coeffs).to_json_dict())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(
        b_list=[2], n_list=[40], trials=20, base_seed=3, field_source=str(path)
    )))
    for args in [
        ("ambiguity-demo", "--field", str(path), "--n", "100", "--grid", "256"),
        ("clt-check", "--config", str(cfg), "--out", str(tmp_path / "clt")),
        ("estimate", "--field", str(path), "--n", "300", "--out", str(tmp_path / "est")),
    ]:
        assert cli.main(list(args)) == 0, args
        assert capsys.readouterr().err == "", args
    doc = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert doc["real_valued"] is True


def test_cli_rewrites_a_longer_output_to_a_fresh_runs_bytes(tmp_path, capsys):
    demo = ["ambiguity-demo", "--b", "2", "--theta", "0.3", "--n", "300", "--seed", "9"]
    assert cli.main([*demo, "--grid", "2048", "--out", str(tmp_path / "amb")]) == 0
    long = {p.name: p.stat().st_size for p in (tmp_path / "amb").iterdir()}
    assert cli.main([*demo, "--grid", "512", "--out", str(tmp_path / "amb")]) == 0
    assert cli.main([*demo, "--grid", "512", "--out", str(tmp_path / "fresh")]) == 0
    assert capsys.readouterr().err == ""
    fresh = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "amb").iterdir()} == fresh
    # the coarser grid shortens the report and both level curves, so each is a shorter
    # write over a longer file; the empirical curves do not depend on the grid
    assert {name for name in fresh if long[name] > len(fresh[name])} == {
        "ambiguity.json", "ambiguity_level_original.csv", "ambiguity_level_shifted.csv"
    }


def test_cli_gen_field_prints_valid_document(tmp_path, run_cli):
    r = run_cli("gen-field", "--b", "2", "--seed", "3", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    field = FourierCoefficients.from_json_dict(doc)
    assert field.b == 2 and field.bounded


def test_cli_pipeline_and_estimate_determinism(tmp_path, run_cli):
    r = run_cli("gen-field", "--b", "1", "--seed", "4", "--out", "fld", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    field_path = tmp_path / "fld" / "field.json"
    assert field_path.exists()

    r = run_cli("sample", "--field", str(field_path), "--n", "30", "--out", "smp", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "smp" / "samples.csv").exists()
    assert (tmp_path / "smp" / "samples.json").exists()

    first = run_cli("estimate", "--field", str(field_path), "--n", "500", "--seed", "7", cwd=tmp_path)
    second = run_cli("estimate", "--field", str(field_path), "--n", "500", "--seed", "7", cwd=tmp_path)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["n"] == 500


def test_cli_writes_the_sample_count_field_bandwidth_and_seed(tmp_path, capsys, cosine_field):
    field_path = tmp_path / "field.json"
    write_json(field_path, cosine_field.to_json_dict())
    given = ["--field", str(field_path), "--n", "37", "--seed", "91"]
    assert cli.main(["sample", *given, "--out", str(tmp_path / "smp")]) == 0
    assert cli.main(["estimate", *given, "--b", "2", "--out", str(tmp_path / "est")]) == 0
    assert capsys.readouterr().err == ""
    sidecar = json.loads((tmp_path / "smp" / "samples.json").read_text())
    assert sidecar == {"n": 37, "b_source": 1, "seed": "91"}
    est = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert set(est) == {"b", "coeffs", "n", "real_valued"}
    assert (est["n"], est["b"]) == (37, 2)
    assert load_field(tmp_path / "est" / "estimate.json").b == 2


def test_cli_sweep_and_clt_and_ambiguity(tmp_path, run_cli):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(b_list=[1], n_list=[25, 75], trials=4, base_seed=2)))
    r = run_cli("mse-sweep", "--config", str(cfg), "--out", "sweep", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "b,n,trials,mean_distortion,stderr,n_times_mse,bound"

    r = run_cli("clt-check", "--config", str(cfg), "--trials", "8", "--out", "clt", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "clt" / "clt.json").read_text())
    assert doc["checks"][0]["trials"] == 8

    r = run_cli(
        "ambiguity-demo", "--b", "1", "--theta", "0.25", "--n", "64",
        "--grid", "1024", "--out", "amb", cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "amb" / "ambiguity.json").exists()
