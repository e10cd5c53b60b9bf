"""End-to-end acceptance checks for the whole pipeline.

One test per headline claim, each printing a single PASS/FAIL line so a
full run reads as a scoreboard.  The Monte Carlo pieces use frozen seeds
and tolerances with comfortable statistical margin (verified to several
standard errors), so failures indicate real regressions, not noise.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from orderfield import (
    ExperimentConfig,
    beta_moments,
    build_dft_matrix,
    clt_empirical_check,
    coeffs_from_samples,
    deploy,
    distortion_bound,
    estimate_coeffs,
    eval_field,
    level_measure_curve,
    observe,
    random_field,
    run_mse_sweep,
    samples_from_coeffs,
    shift_distortion,
    shift_field,
)
from orderfield.ambiguity import default_threshold_grid

ACCEPT_SEED = 20260822


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def sweep_report():
    """Shared 500-trial random-field sweep over b in {1,2,3}, n in 10^2..10^5."""
    cfg = ExperimentConfig(
        b_list=[1, 2, 3],
        n_list=[100, 1000, 10_000, 100_000],
        trials=500,
        base_seed=ACCEPT_SEED,
    )
    return run_mse_sweep(cfg)


@pytest.fixture(scope="module")
def clt_report(cosine_field):
    """Shared 10^4-trial covariance check at n = 10^4 on the cosine field."""
    rng = np.random.default_rng(np.random.SeedSequence((ACCEPT_SEED, 45)))
    return clt_empirical_check(cosine_field, 10_000, 10_000, rng)


def test_01_mean_distortion_beats_bound(sweep_report, capsys):
    # n * E[distortion] <= pi^2 b^2 (2b+1) at every cell with n >= 10^3,
    # averaged over 500 random bounded fields per cell, zero violations
    worst = 0.0
    violations = 0
    for row in sweep_report.rows:
        if row.n < 1000:
            continue
        ratio = row.n_times_mse / row.bound
        worst = max(worst, ratio)
        violations += ratio > 1.0
    _verdict(
        capsys,
        "acceptance 1: distortion bound",
        violations == 0,
        f"0 violations required, got {violations}; worst n*MSE/bound = {worst:.4f}",
    )


def test_02_inverse_n_rate(sweep_report, capsys):
    # log-log slope of mean distortion vs n within [-1.25, -0.75] per bandwidth
    slopes = sweep_report.slopes
    ok = all(-1.25 <= s <= -0.75 for s in slopes.values())
    detail = ", ".join(f"b={b}: {s:.3f}" for b, s in sorted(slopes.items()))
    _verdict(capsys, "acceptance 2: O(1/n) rate", ok, f"slopes in [-1.25,-0.75]: {detail}")


def test_03_consistency_gain(cosine_field, capsys):
    # median coefficient error shrinks at least 5x from n=10^3 to n=10^5
    def median_err(n):
        errs = []
        for i in range(100):
            rng = np.random.default_rng(np.random.SeedSequence((ACCEPT_SEED, 3, n, i)))
            s = observe(cosine_field, deploy(n, rng))
            est = estimate_coeffs(s, 1)
            errs.append(np.linalg.norm(est.coeffs - cosine_field.coeffs))
        return float(np.median(errs))

    lo, hi = median_err(1000), median_err(100_000)
    ratio = lo / hi
    _verdict(
        capsys,
        "acceptance 3: consistency",
        ratio >= 5.0,
        f"median error ratio n=10^3 vs 10^5 is {ratio:.2f} (need >= 5)",
    )


def test_04_quantile_covariance_limit(clt_report, capsys):
    # empirical covariance of the scaled positive-level quantile errors
    # matches the p_i(1-p_j) limit within 10% relative Frobenius error
    err = clt_report.quantile_cov_rel_err
    _verdict(
        capsys,
        "acceptance 4: quantile covariance",
        err <= 0.10,
        f"relative Frobenius error {err:.4f} (need <= 0.10) at n=10^4, 10^4 trials",
    )


def test_05_coefficient_covariance_limit(clt_report, capsys):
    # empirical Hermitian covariance of the scaled coefficient errors matches
    # the analytic limit within 15% relative Frobenius error
    err = clt_report.coeff_cov_rel_err
    _verdict(
        capsys,
        "acceptance 5: coefficient covariance",
        err <= 0.15,
        f"relative Frobenius error {err:.4f} (need <= 0.15) on the cosine field",
    )


def test_06_order_statistic_second_moment(capsys):
    # n E[(U_{r:n} - p)^2] <= 0.25 (1 + 5/sqrt(n)) at p in {1/3, 1/2, 2/3},
    # and the Monte Carlo moment sits within 3 standard errors of the exact
    # Beta value; 10^5 trials per n
    trials = 100_000
    rng = np.random.default_rng(np.random.SeedSequence((ACCEPT_SEED, 6)))
    worst_bound = 0.0
    worst_sigma = 0.0
    ok = True
    for n in (100, 1000, 10_000):
        ps = (1 / 3, 1 / 2, 2 / 3)
        ranks = [int(np.floor(n * p)) + 1 for p in ps]
        kth = [r - 1 for r in ranks]
        sum_sq = np.zeros(3)
        sum_quad = np.zeros(3)
        chunk = max(1, 20_000_000 // n)
        done = 0
        while done < trials:
            c = min(chunk, trials - done)
            block = rng.random((c, n))
            block.sort(axis=1)
            vals = block[:, kth]
            dev = vals - np.asarray(ps)
            sum_sq += np.sum(dev**2, axis=0)
            sum_quad += np.sum(dev**4, axis=0)
            done += c
        mean_sq = sum_sq / trials
        se = np.sqrt((sum_quad / trials - mean_sq**2) / trials)
        bound = 0.25 * (1 + 5 / np.sqrt(n))
        for j, (p, r) in enumerate(zip(ps, ranks)):
            bm, bv = beta_moments(r, n)
            oracle = bv + (bm - p) ** 2
            worst_bound = max(worst_bound, n * mean_sq[j] / bound)
            worst_sigma = max(worst_sigma, abs(mean_sq[j] - oracle) / se[j])
            ok = ok and n * mean_sq[j] <= bound and abs(mean_sq[j] - oracle) <= 3 * se[j]
    _verdict(
        capsys,
        "acceptance 6: order-statistic moments",
        ok,
        f"worst n*E/bound = {worst_bound:.3f} (need <= 1), "
        f"worst |emp-Beta|/se = {worst_sigma:.2f} (need <= 3)",
    )


def test_07_shift_indistinguishability(capsys):
    # ten random fields: every cyclic shift keeps all sublevel measures
    # within the grid-resolution budget while moving the field itself by
    # more than 0.01 in squared L2 distance
    bandwidths = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]
    thetas = (0.1, 1 / 3, 0.7)
    grid_points = 8192
    xs = default_threshold_grid()
    min_dist = np.inf
    max_sup_ratio = 0.0
    ok = True
    for i, b in enumerate(bandwidths):
        rng = np.random.default_rng(np.random.SeedSequence((7, i)))
        field = random_field(b, rng)
        curve = level_measure_curve(field, xs, grid_points)
        budget = 4 * b / grid_points + 1e-9
        for theta in thetas:
            shifted = shift_field(field, theta)
            sup = float(np.max(np.abs(curve - level_measure_curve(shifted, xs, grid_points))))
            dist = shift_distortion(field, theta)
            min_dist = min(min_dist, dist)
            max_sup_ratio = max(max_sup_ratio, sup / budget)
            ok = ok and sup <= budget and dist > 0.01
    _verdict(
        capsys,
        "acceptance 7: unordered non-identifiability",
        ok,
        f"min shift distortion {min_dist:.4f} (need > 0.01), "
        f"max sup-measure-diff/budget {max_sup_ratio:.3f} (need <= 1)",
    )


def test_08_exact_linear_algebra(capsys):
    rng = np.random.default_rng(88)
    worst_round = 0.0
    worst_gram = 0.0
    worst_parseval = 0.0
    t = np.linspace(0.0, 1.0, 4097)
    for b in range(9):
        m = 2 * b + 1
        phi = build_dft_matrix(b)
        worst_gram = max(
            worst_gram, float(np.max(np.abs(phi.conj().T @ phi - m * np.eye(m))))
        )
        field = random_field(b, rng)
        back = coeffs_from_samples(samples_from_coeffs(field))
        worst_round = max(worst_round, float(np.max(np.abs(back.coeffs - field.coeffs))))
        power = float(np.sum(np.abs(field.coeffs) ** 2))
        quad = float(np.trapezoid(np.abs(eval_field(field, t)) ** 2, t))
        worst_parseval = max(worst_parseval, abs(quad - power) / power)
    ok = worst_round <= 1e-10 and worst_gram <= 1e-10 and worst_parseval <= 1e-6
    _verdict(
        capsys,
        "acceptance 8: exact linear algebra",
        ok,
        f"roundtrip {worst_round:.2e} (<=1e-10), gram {worst_gram:.2e} (<=1e-10), "
        f"Parseval rel {worst_parseval:.2e} (<=1e-6), b up to 8",
    )


CLI_COMMANDS = [
    ("gen-field", "--b", "3", "--seed", "11", "--out", "fld"),
    ("estimate", "--field", os.path.join("fld", "field.json"), "--n", "400", "--seed", "7"),
    ("sample", "--field", os.path.join("fld", "field.json"), "--n", "40", "--seed", "5",
     "--out", "smp"),
    ("mse-sweep", "--config", "cfg.json", "--out", "sweep"),
    ("clt-check", "--config", "cfg2.json", "--out", "clt"),
    ("ambiguity-demo", "--b", "2", "--theta", "0.3", "--n", "256", "--grid", "2048",
     "--seed", "9", "--out", "amb"),
]


def _run_cli_suite(root, threads, cli_env):
    root.mkdir()
    (root / "cfg.json").write_text(
        json.dumps(dict(b_list=[1], n_list=[101, 301], trials=8, base_seed=3))
    )
    (root / "cfg2.json").write_text(
        json.dumps(dict(b_list=[1], n_list=[64], trials=12, base_seed=4))
    )
    env = dict(cli_env, ORDERSTAT_THREADS=str(threads))
    stdouts = []
    for args in CLI_COMMANDS:
        r = subprocess.run(
            [sys.executable, "-m", "orderfield", *args],
            capture_output=True, text=True, cwd=str(root), env=env,
        )
        assert r.returncode == 0, f"{args}: {r.stderr}"
        stdouts.append(r.stdout)
    files = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            files[str(p.relative_to(root))] = p.read_bytes()
    return stdouts, files


def test_09_cli_determinism_across_workers(tmp_path, capsys, cli_env):
    # every subcommand, same seeds and configs: one worker and eight workers
    # must produce byte-identical files and stdout
    out1, files1 = _run_cli_suite(tmp_path / "w1", 1, cli_env)
    out8, files8 = _run_cli_suite(tmp_path / "w8", 8, cli_env)
    same_stdout = out1 == out8
    same_names = set(files1) == set(files8)
    diff_files = sorted(k for k in files1 if files1[k] != files8.get(k))
    ok = same_stdout and same_names and not diff_files
    _verdict(
        capsys,
        "acceptance 9: determinism",
        ok,
        f"{len(files1)} files byte-compared across 6 subcommands at 1 vs 8 workers"
        + ("" if ok else f"; differing: {diff_files}, stdout match: {same_stdout}"),
    )
