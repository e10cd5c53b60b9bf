import csv
import dataclasses
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from orderfield import (
    DeploymentDraw,
    SampleSet,
    deploy,
    extract_quantile_samples,
    observe,
    quantile_indices,
    quantile_locations,
    random_field,
    sample_quantile_locations,
    save_samples,
)
from orderfield.fields import eval_field
from orderfield.sampling import _SAVE_CHUNK


def test_deploy_draws_uniform_locations(rng):
    d = deploy(500, rng)
    assert d.n == 500
    assert d.locations.shape == (500,)
    assert d.locations.min() >= 0.0 and d.locations.max() <= 1.0


def test_deploy_rejects_empty():
    with pytest.raises(ValueError):
        deploy(0, np.random.default_rng(0))


def test_deploy_is_deterministic():
    a = deploy(20, np.random.default_rng(5))
    b = deploy(20, np.random.default_rng(5))
    npt.assert_array_equal(a.locations, b.locations)


def test_draw_validates_locations():
    with pytest.raises(ValueError):
        DeploymentDraw(locations=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        DeploymentDraw(locations=np.array([0.5, 1.5]))
    for bad in ([0.2, np.nan], [np.nan], [-0.1, 0.3]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DeploymentDraw(locations=bad)


def test_deploy_sorts_the_generators_draw():
    for n in (1, 2, 17, 10**5):
        d = deploy(n, np.random.default_rng(n))
        assert d.locations.tolist() == np.sort(np.random.default_rng(n).random(n)).tolist()
        assert not d.locations.flags.writeable


def test_draw_sorts_a_private_copy_of_the_callers_array():
    given = np.array([0.9, 0.1, 0.5, 0.0, 1.0, 0.3])
    before = given.copy()
    d = DeploymentDraw(locations=given)
    npt.assert_array_equal(d.locations, np.sort(before))
    npt.assert_array_equal(given, before)
    assert not np.shares_memory(d.locations, given)
    assert d.n == 6
    assert DeploymentDraw(locations=[0.5, 0.25]).locations.tolist() == [0.25, 0.5]


def test_deploy_keeps_its_locations_sorted(rng):
    d = deploy(50, rng)
    assert np.all(np.diff(d.locations) >= 0)
    npt.assert_array_equal(np.sort(d.locations), d.locations)


def test_observe_evaluates_at_sorted_locations(rng, cosine_field):
    d = deploy(64, rng)
    s = observe(cosine_field, d)
    assert s.n == 64
    assert [f.name for f in dataclasses.fields(s)] == ["values"]  # no provenance rides along
    npt.assert_allclose(s.values, eval_field(cosine_field, d.locations), atol=1e-12)


def test_sample_set_validates_length():
    with pytest.raises(ValueError):
        SampleSet(values=np.zeros((3, 2), dtype=complex))


def test_load_samples_rejects_non_finite_values():
    # samples are only ever built through SampleSet, which refuses NaN and inf
    for bad in (np.array([np.nan + 0j]), np.array([0.5, np.inf]), np.array([complex(0.0, -np.inf)])):
        with pytest.raises(ValueError, match="finite"):
            SampleSet(values=bad)


def test_quantile_indices_small_cases():
    npt.assert_array_equal(quantile_indices(9, 1), [1, 4, 7])
    npt.assert_array_equal(quantile_indices(10, 1), [1, 4, 7])
    npt.assert_array_equal(quantile_indices(7, 3), [1, 2, 3, 4, 5, 6, 7])
    npt.assert_array_equal(quantile_indices(5, 0), [1])


def test_quantile_indices_are_cached_read_only_and_exact():
    for b in (0, 1, 2, 4, 8, 16):
        m = 2 * b + 1
        for n in (m, m + 1, 50, 333, 1000, 10**5, 10**9 + 7):
            ranks = quantile_indices(n, b)
            assert not ranks.flags.writeable
            assert quantile_indices(n, b) is ranks
            assert ranks.tolist() == [(n * l) // m + 1 for l in range(m)]
    with pytest.raises(ValueError):
        quantile_indices(100, 2)[0] = 5


def test_quantile_indices_track_grid_levels():
    # rank_l / n stays within 1/n of the level l/(2b+1), and ranks increase
    for b in (1, 2, 5):
        m = 2 * b + 1
        for n in (m, 17, 1003, 10**5):
            if n < m:
                continue
            ranks = quantile_indices(n, b)
            assert ranks[0] == 1
            assert np.all(np.diff(ranks) > 0)
            assert ranks.min() >= 1 and ranks.max() <= n
            levels = np.arange(m) / m
            assert np.max(np.abs(ranks / n - levels)) <= 1.0 / n + 1e-15


def test_quantile_indices_exact_at_huge_counts():
    # pure integer arithmetic: no float rounding even where n*l/(2b+1) is
    # a hair below an integer
    n, b = 10**9, 1
    npt.assert_array_equal(quantile_indices(n, b), [1, n // 3 + 1, (2 * n) // 3 + 1])


def test_quantile_indices_reject_insufficient_samples():
    with pytest.raises(ValueError):
        quantile_indices(4, 2)
    with pytest.raises(ValueError):
        quantile_indices(10, -1)


def test_quantile_locations_read_the_sorted_draw_at_the_ranks(rng):
    for n, b in ((1, 0), (5, 2), (6, 2), (97, 3), (1000, 1)):
        d = deploy(n, rng)
        before = d.locations.copy()
        q = quantile_locations(d, b)
        npt.assert_array_equal(q, d.locations[quantile_indices(n, b) - 1])
        npt.assert_array_equal(d.locations, before)
    with pytest.raises(ValueError):
        quantile_locations(deploy(4, rng), 2)
    # large draws: the ranks of the generator's own draw, read repeatedly
    for n in (2**14 - 1, 2**14, 10**5):
        for b in (0, 1, 3, 8):
            ranked = np.sort(np.random.default_rng(n + b).random(n))
            expected = ranked[quantile_indices(n, b) - 1].tolist()
            d = deploy(n, np.random.default_rng(n + b))
            assert d.n == n
            assert quantile_locations(d, b).tolist() == expected
            for other in (8, 1, b):
                assert quantile_locations(d, other).tolist() == ranked[
                    quantile_indices(n, other) - 1].tolist()
            assert d.locations.tolist() == ranked.tolist()
            assert not d.locations.flags.writeable
            assert quantile_locations(d, b).tolist() == expected


class _DrawWith:
    """A generator stub whose ``random(n)`` is a real draw with one value replaced."""

    def __init__(self, bad, where):
        self.bad, self.where = bad, where

    def random(self, n):
        x = np.random.default_rng(31).random(n)
        x[self.where] = self.bad
        return x


@pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, np.copysign(np.nan, -1.0)])
def test_deploy_refuses_values_outside_the_unit_interval_at_every_n(bad):
    # a NaN of either sign sorts last, where the check reads it
    for n in (1, 7, 2**14 - 1, 2**14, 10**5):
        for where in {0, n // 3, n - 1}:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                deploy(n, _DrawWith(bad, where))


def test_one_sorted_read_only_draw_reads_exactly_from_four_threads():
    # `deploy` sorts at once and freezes the array, so four threads reading one draw
    # together, by rank and in full, all see the sorted values of a single-threaded read
    n, bs = 10**5, (0, 1, 3, 8)
    ranked = np.sort(np.random.default_rng(41).random(n))
    expected = {b: ranked[quantile_indices(n, b) - 1].tolist() for b in bs}
    expected["all"] = ranked.tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            d = deploy(n, np.random.default_rng(41))
            start = threading.Barrier(4, timeout=60)

            def reader(k):
                # thread k reads the full locations after its k-th ranked read
                start.wait()
                reads = []
                for j in range(2 * len(bs)):
                    if j == k:
                        reads.append(("all", d.locations.tolist()))
                    b = bs[(j + k) % len(bs)]
                    reads.append((b, quantile_locations(d, b).tolist()))
                return reads

            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(reader, range(4), timeout=120))
            assert len(results) == 4
            for reads in results:
                for key, got in reads:
                    assert got == expected[key]
    finally:
        sys.setswitchinterval(interval)


def _assert_exact_rank_moments(x, n, b):
    # E U_(r) = r / (n+1) and Cov(U_(i), U_(j)) = i (n - j + 1) / ((n+1)^2 (n+2))
    # for i <= j, each held to 5 of its own standard errors (the covariance's
    # estimated from the per-draw products), over the rows of x.
    draws = x.shape[0]
    r = quantile_indices(n, b)
    lo, hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    exact = lo * (n - hi + 1) / ((n + 1) ** 2 * (n + 2))
    assert np.all(np.abs(x.mean(axis=0) - r / (n + 1)) < 5.0 * np.sqrt(np.diag(exact) / draws))
    dev = x - x.mean(axis=0)
    prods = dev[:, :, None] * dev[:, None, :]
    emp = prods.sum(axis=0) / (draws - 1)
    se = prods.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(emp - exact) < 5.0 * se)


def test_quantile_locations_match_exact_order_statistic_covariance():
    # over 20 other seeds the largest covariance entry sat at 2.7
    b, n, draws = 2, 12, 4000
    rng = np.random.default_rng(20261018)
    x = np.stack([quantile_locations(deploy(n, rng), b) for _ in range(draws)])
    _assert_exact_rank_moments(x, n, b)


@pytest.mark.parametrize("b, n, seed", [(2, 12, 4242), (1, 10**6, 5151)])
def test_sampled_quantile_locations_match_exact_beta_moments(b, n, seed):
    # over 30 other seeds per cell the largest mean and covariance z-scores
    # were 2.9 and 2.6
    draws = 4000
    x = sample_quantile_locations(n, b, draws, np.random.default_rng(seed))
    assert x.shape == (draws, 2 * b + 1)
    assert np.all(np.diff(x, axis=1) >= 0.0) and x.min() >= 0.0 and x.max() <= 1.0
    _assert_exact_rank_moments(x, n, b)


def test_sampled_quantile_locations_match_the_full_path_in_law():
    # Two-sample Kolmogorov-Smirnov distance per ranked level against sorted
    # full deployments, held to the asymptotic 0.1% critical value
    # 1.95 sqrt(2 / draws); over 30 other seeds the largest was 1.58 of that.
    b, n, draws = 1, 50, 2000
    rng = np.random.default_rng(6161)
    x = sample_quantile_locations(n, b, draws, rng)
    y = np.stack([quantile_locations(deploy(n, rng), b) for _ in range(draws)])
    for a, c in zip(np.sort(x, axis=0).T, np.sort(y, axis=0).T):
        pooled = np.concatenate([a, c])
        gap = np.searchsorted(a, pooled, side="right") - np.searchsorted(c, pooled, side="right")
        assert np.abs(gap).max() / draws < 1.95 * np.sqrt(2.0 / draws)


def test_sampled_quantile_locations_are_prefix_stable():
    for n, b, t in ((1, 0, 7), (40, 3, 50), (10**5, 2, 1000)):
        short = sample_quantile_locations(n, b, t, np.random.default_rng(7))
        long = sample_quantile_locations(n, b, 2 * t, np.random.default_rng(7))
        npt.assert_array_equal(long[:t], short)


def test_sampled_quantile_locations_single_point():
    # b = 0, n = 1: one Gamma(1) over a Gamma(1) + Gamma(1) total, a uniform
    x = sample_quantile_locations(1, 0, 5, np.random.default_rng(8))
    assert x.shape == (5, 1)
    assert np.all((x > 0.0) & (x < 1.0))
    assert sample_quantile_locations(1, 0, 0, np.random.default_rng(8)).shape == (0, 1)


def test_sampled_quantile_locations_reject_inexact_or_too_few_counts():
    # the count check runs before anything of size n is made
    with pytest.raises(ValueError, match=r"2\*\*53"):
        sample_quantile_locations(2**53, 1, 3, np.random.default_rng(0))
    assert sample_quantile_locations(2**53 - 1, 1, 3, np.random.default_rng(0)).shape == (3, 3)
    with pytest.raises(ValueError):
        sample_quantile_locations(4, 2, 3, np.random.default_rng(0))


def test_extract_quantile_samples_is_one_based():
    s = SampleSet(values=np.array([10.0, 20.0, 30.0, 40.0], dtype=complex))
    npt.assert_array_equal(extract_quantile_samples(s, np.array([1, 4])), [10.0, 40.0])
    with pytest.raises(ValueError):
        extract_quantile_samples(s, np.array([0]))
    with pytest.raises(ValueError):
        extract_quantile_samples(s, np.array([5]))


def test_sample_file_roundtrip(tmp_path, rng, complex_random_field):
    # the larger sample spans more than one formatted chunk of `save_samples`
    for n, draw in ((40, random_field), (3 * _SAVE_CHUNK // 2 + 7, complex_random_field)):
        s = observe(draw(2, rng), deploy(n, rng))
        csv_path = tmp_path / "samples.csv"
        sidecar = tmp_path / "samples.json"
        save_samples(s, csv_path, sidecar, 2, "1234")
        with open(csv_path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["value_re", "value_im"]
        back = np.array([complex(float(re), float(im)) for re, im in rows])
        assert back.tobytes() == s.values.tobytes()
        assert json.loads(sidecar.read_text()) == {"b_source": 2, "n": n, "seed": "1234"}


def _save_samples_with_csv_module(s, csv_path):
    """`save_samples`' CSV written row by row with the `csv` module: the byte oracle."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value_re", "value_im"])
        for z in s.values:
            writer.writerow([f"{z.real:.17g}", f"{z.imag:.17g}"])


def test_save_samples_bytes_equal_the_csv_module_writer(tmp_path, rng, complex_random_field):
    half = _SAVE_CHUNK // 2  # values per chunk of floats
    sizes = (0, 1, half - 1, half, half + 1, 3 * half + 7)
    extremes = SampleSet(values=np.array(
        [-0.0, 5e-324 - 5e-324j, 1.7976931348623157e308 + 0.1j, -1.7976931348623157e308, 1e16j]
    ))
    cases = [extremes]
    for draw in (random_field, complex_random_field):
        field = draw(3, rng)
        full = observe(field, deploy(max(sizes), rng))
        cases += [SampleSet(values=full.values[:n]) for n in sizes]
    for i, s in enumerate(cases):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        save_samples(s, got, tmp_path / f"got{i}.json", 3, str(i))
        _save_samples_with_csv_module(s, want)
        assert got.read_bytes() == want.read_bytes(), f"case {i}, n={s.n}"
    assert b"-0,0\r\n" in (tmp_path / "got0.csv").read_bytes()
