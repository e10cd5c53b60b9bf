"""Tests of the benchmark's tracing shim and of BENCHMARK.json's agreement with run.py.

    python3 -m pytest perfbench -q
"""

import importlib
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import orderfield  # noqa: E402
import orderfield.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from orderfield.harness import ExperimentConfig  # noqa: E402


def _function_bindings():
    """Every function-valued attribute of every loaded orderfield module."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "orderfield" or name.startswith("orderfield.")):
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                out[(name, attr)] = obj
    return out


@pytest.fixture
def threads(monkeypatch):
    def set_count(n):
        monkeypatch.setenv("ORDERSTAT_THREADS", str(n))

    return set_count


def test_install_patches_every_binding_and_uninstall_restores():
    before = _function_bindings()
    harness = importlib.import_module("orderfield.harness")
    estimator = importlib.import_module("orderfield.estimator")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # names imported across modules are wrapped where they are looked up
        assert harness.deploy is not before[("orderfield.harness", "deploy")]
        assert estimator.build_dft_matrix is not before[("orderfield.estimator", "build_dft_matrix")]
        assert orderfield.cli.run_mse_sweep is not before[("orderfield.cli", "run_mse_sweep")]
        assert orderfield.eval_field is not before[("orderfield", "eval_field")]
        # private helpers stay as they are
        assert harness._resolve_field is before[("orderfield.harness", "_resolve_field")]
        patched = {(m.__name__, a) for m, a, _ in tracer.patched}
        assert ("orderfield.sampling", "eval_field") in patched
        with pytest.raises(ValueError):
            orderfield.random_field(-1, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.patched == []


def test_spans_nest_under_pool_trials(threads, tmp_path):
    threads(2)
    cfg = ExperimentConfig(b_list=[1], n_list=[50, 500], trials=6, base_seed=3,
                           output_dir=str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = orderfield.harness.run_mse_sweep(cfg)
    finally:
        tracer.uninstall()
    assert len(report.rows) == 2
    cols = tracer.columns()
    names = np.array(tracer.names)[cols["names"]]
    by_id = dict(zip(cols["ids"].tolist(), names.tolist()))
    parent_names = [by_id.get(p, None) for p in cols["parents"].tolist()]
    roots = [n for n, p in zip(names, cols["parents"]) if p == 0]
    assert roots == ["harness.run_mse_sweep"]
    trial_parents = {p for n, p in zip(names, parent_names) if n == "harness.trial"}
    assert trial_parents == {"parallel.trial_map"}
    deploy_parents = {p for n, p in zip(names, parent_names) if n == "sampling.deploy"}
    assert deploy_parents == {"harness.trial"}
    assert int(np.sum(names == "harness.trial")) == 12
    # every span closes inside its parent
    start_of = dict(zip(cols["ids"].tolist(), cols["starts"].tolist()))
    end_of = dict(zip(cols["ids"].tolist(), cols["ends"].tolist()))
    for sid, parent in zip(cols["ids"].tolist(), cols["parents"].tolist()):
        if parent:
            assert start_of[parent] <= start_of[sid] <= end_of[sid] <= end_of[parent]
    assert tracer.counters["sampling.deploy.locations"] == 6 * (50 + 500)
    assert tracer.counters["harness.bytes_written"] > 0
    assert tracer.max_workers == 2


def test_self_time_subtracts_union_of_overlapping_pool_children():
    names = ["parallel.trial_map", "harness.trial", "sampling.deploy", "harness.run_mse_sweep"]
    cols = {
        # root [0, 12] -> pool [1, 11] -> trials [2, 7] and [4, 9] on two workers;
        # the first trial holds a nested deploy [3, 5]
        "ids": np.array([1, 2, 3, 4, 5]),
        "parents": np.array([0, 1, 2, 2, 3]),
        "names": np.array([3, 0, 1, 1, 2]),
        "starts": np.array([0.0, 1.0, 2.0, 4.0, 3.0]),
        "ends": np.array([12.0, 11.0, 7.0, 9.0, 5.0]),
    }
    st = tracing.self_times(cols, names, wall_s=15.0)
    self_s = dict(zip(names, st["self_s"]))
    assert self_s["harness.run_mse_sweep"] == pytest.approx(2.0)
    assert self_s["parallel.trial_map"] == pytest.approx(10.0 - 7.0)
    assert self_s["harness.trial"] == pytest.approx((5.0 - 2.0) + 5.0)
    assert self_s["sampling.deploy"] == pytest.approx(2.0)
    assert st["untraced_s"] == pytest.approx(3.0)
    assert list(st["calls"]) == [1, 2, 1, 1]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(np.arange(150.0))[0] == 90.0
    assert run.tail_percentile(np.arange(60.0))[0] == 75.0
    assert run.tail_percentile(np.arange(250.0))[0] == 95.0
    assert run.tail_percentile(np.arange(12.0))[0] == 75.0


def test_benchmark_json_matches_run_py():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert doc["paths"] == ["perfbench"]
    for name in workloads.NAMES:
        assert workloads.build(name).name == name


def test_cli_env_puts_absolute_src_first(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "src")
    monkeypatch.setenv("ORDERSTAT_THREADS", "2")
    env = workloads.subprocess_env(str(ROOT / "src"))
    assert env["PYTHONPATH"].split(os.pathsep) == [str(ROOT / "src"), "src"]
    assert "ORDERSTAT_THREADS" not in env
