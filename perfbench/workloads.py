"""The benchmark's four workloads: inputs from a seed, one operation, output checks.

Every workload is a closed loop run by one client: the next operation starts
only when the previous one has ended.  The benchmark seed derives every
package-level seed and config; the package itself only ever sees those
generated configs and files.

Output checks reuse tolerances the repository's tests already use and never
widen them:

- sweeps: every cell's distortion statistics are finite, and
  ``n * MSE <= distortion_bound(b)`` at every cell with ``n >= 10**3``
  (tests/test_acceptance.py, acceptance 1);
- covariance check: at every interior grid level the mean of the ranked
  location is within 5 standard errors of the exact Beta mean
  (tests/test_asymptotics.py, test_clt_check_moderate_scale_agreement); the
  degenerate lowest level has variance at most ``10 / n**2``
  (test_clt_check_degenerate_lowest_rank); all matrices are finite;
- CLI: exit code 0; ``field.json`` and the ``estimate`` document with
  ``2b+1`` finite coefficients; a ``samples.csv`` with the
  ``value_re,value_im`` header and ``n`` rows, and a ``samples.json``
  sidecar with the requested ``n``; ``ambiguity.json`` with
  ``sup_cdf_diff_theory <= 2b/grid`` (the documented per-field grid error
  of ``level_measure``); and the sweep checks above on the CLI sweep's
  ``sweep.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CONFIG_POOL = 512
MSE_CHECK_MIN_N = 1000
QUANTILE_MEAN_SE = 5.0
LOWEST_LEVEL_VAR_SCALE = 10.0
CLI_TIMEOUT_S = 120.0
CLI_PIPELINES = 64
HWM_TAG = "perfbench-vmhwm-kib"

# Runs `python -m orderfield ARGS` through runpy, then prints the process's
# own peak RSS; used only for the memory pass, never for timing.
CLI_HWM_WRAPPER = f"""
import runpy, sys
sys.argv[0] = "orderfield"
try:
    runpy.run_module("orderfield", run_name="__main__", alter_sys=True)
finally:
    hwm = [line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM")]
    print("{HWM_TAG}", hwm[0])
"""


@dataclass
class Outcome:
    """One closed-loop operation: work done, work failed, and its latency."""

    ops: int
    failed: int
    latency_s: float
    info: dict = field(default_factory=dict)


def vm_hwm_kib() -> int:
    """This process's peak resident set size in KiB (VmHWM)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` package seeds derived from the benchmark seed."""
    ss = np.random.SeedSequence(seed)
    return [int(x) for x in ss.generate_state(count, dtype=np.uint64)]


# ---- checks ----

def check_sweep_rows(rows) -> tuple[int, int, float]:
    """(trials checked, trials in failing cells, worst n*MSE/bound) for sweep rows."""
    total = failed = 0
    worst = 0.0
    for row in rows:
        b, n, trials = int(row["b"]), int(row["n"]), int(row["trials"])
        values = (row["mean_distortion"], row["stderr"], row["n_times_mse"])
        finite = all(v is not None and math.isfinite(v) for v in values)
        ok = finite
        if finite and b > 0:
            ratio = row["n_times_mse"] / row["bound"]
            worst = max(worst, ratio)
            if n >= MSE_CHECK_MIN_N and ratio > 1.0:
                ok = False
        total += trials
        failed += 0 if ok else trials
    return total, failed, worst


def check_clt_report(rep) -> bool:
    mats = (
        rep.empirical_coeff_cov, rep.analytic_coeff_cov, rep.empirical_coeff_pseudo,
        rep.analytic_coeff_pseudo, rep.empirical_quantile_cov, rep.analytic_quantile_cov,
    )
    if not all(np.all(np.isfinite(m)) for m in mats):
        return False
    for q in rep.per_quantile_moments:
        if q.level_index == 0:
            if not q.variance <= LOWEST_LEVEL_VAR_SCALE / rep.n**2:
                return False
        elif not abs(q.mean - q.beta_mean) < QUANTILE_MEAN_SE * math.sqrt(
            q.beta_variance / rep.trials
        ):
            return False
    for p in rep.pointwise_checks:
        if not (np.isfinite(p.empirical_second_moment) and np.isfinite(p.empirical_abs_second_moment)):
            return False
    return True


def max_rel_err(rep) -> float:
    return max(rep.coeff_cov_rel_err, rep.coeff_pseudo_rel_err, rep.quantile_cov_rel_err)


def check_sweep(wl, report) -> tuple[int, dict]:
    """(failed trials, info) for one `run_mse_sweep` report."""
    total, failed, worst = check_sweep_rows(r.to_json_dict() for r in report.rows)
    if total != wl.nominal_ops:
        failed = wl.nominal_ops
    return failed, {"worst_mse_ratio": worst}


def check_clt(wl, reports) -> tuple[int, dict]:
    """(failed trials, info) for the per-cell reports of one `run_clt_check`."""
    failed = sum(wl.trials for r in reports if not check_clt_report(r))
    if len(reports) != len(wl.b_list) * len(wl.n_list):
        failed = wl.nominal_ops
    worst = max((max_rel_err(r) for r in reports), default=0.0)
    return failed, {"max_rel_err": worst}


# ---- in-process workloads ----

@dataclass
class HarnessWorkload:
    """One public `orderfield.harness` entry point, one generated config per call.

    ``entry`` names the function, looked up at call time so that the tracing
    shim's wrapper is the one called; ``check`` turns its result into
    (failed trials, info).  With ``eval_count`` the call also gets that many
    seeded ``eval_points``.
    """

    name: str
    entry: str
    check: Callable
    b_list: tuple
    n_list: tuple
    trials: int
    eval_count: int = 0
    configs: list = field(default_factory=list)
    eval_points: np.ndarray | None = None

    def prepare(self, seed: int, workdir: str) -> None:
        from orderfield.harness import ExperimentConfig

        out = os.path.join(workdir, "out")
        seeds = derived_seeds(seed, CONFIG_POOL + 1)
        if self.eval_count:
            self.eval_points = np.sort(np.random.default_rng(seeds[-1]).random(self.eval_count))
        self.configs = [
            ExperimentConfig(
                b_list=self.b_list, n_list=self.n_list, trials=self.trials,
                base_seed=s, output_dir=out,
            )
            for s in seeds[:-1]
        ]

    @property
    def nominal_ops(self) -> int:
        return len(self.b_list) * len(self.n_list) * self.trials

    def run_once(self, i: int, in_process: bool = True) -> Outcome:
        from orderfield import harness

        cfg = self.configs[i % len(self.configs)]
        kwargs = {"eval_points": self.eval_points} if self.eval_count else {}
        t0 = time.perf_counter()
        result = getattr(harness, self.entry)(cfg, **kwargs)
        latency = time.perf_counter() - t0
        failed, info = self.check(self, result)
        return Outcome(self.nominal_ops, failed, latency, info)


# ---- CLI workload ----

def subprocess_env(src_dir: str) -> dict:
    """Environment for `python -m orderfield`: absolute src first on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("ORDERSTAT_THREADS", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + rest if rest else "")
    return env


def run_child(argv: list, env: dict, cwd: str, stderr_path: str) -> tuple[int, str, float]:
    """Run one child to completion: (exit code, stdout, wall seconds).

    A child still running after CLI_TIMEOUT_S is killed and so fails.
    """
    with open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=env)
        try:
            out, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        latency = time.perf_counter() - t0
    return proc.returncode, out.decode("utf-8", "replace"), latency


@dataclass
class CliWorkload:
    """Fresh `python -m orderfield` processes, five commands per pipeline."""

    name: str
    b: int = 2
    sample_n: int = 100_000
    amb_n: int = 4096
    amb_grid: int = 8192
    sweep_config: dict = field(default_factory=lambda: {
        "b_list": [1, 2], "n_list": [200, 2000], "trials": 20,
    })
    commands: tuple = ("gen-field", "sample", "estimate", "ambiguity-demo", "mse-sweep")
    seeds: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    workdir: str = ""
    src_dir: str = ""
    env: dict = field(default_factory=dict)

    def prepare(self, seed: int, workdir: str) -> None:
        import orderfield.cli  # noqa: F401  (the traced run calls it in-process)

        self.workdir = workdir
        self.env = subprocess_env(self.src_dir)
        self.seeds = [s % 2**31 for s in derived_seeds(seed, CLI_PIPELINES * len(self.commands))]
        rng = np.random.default_rng(self.seeds[-1])
        self.thetas = [round(float(x), 6) for x in rng.uniform(0.05, 0.95, CLI_PIPELINES)]
        os.makedirs(self._path("configs"), exist_ok=True)
        for k in range(CLI_PIPELINES):
            with open(self._path("configs", f"sweep{k}.json"), "w", encoding="utf-8") as fh:
                json.dump(dict(self.sweep_config, base_seed=self.seeds[k]), fh)

    def _path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def argv(self, i: int) -> list:
        pipeline, step = divmod(i, len(self.commands))
        k = pipeline % CLI_PIPELINES
        seed = str(self.seeds[i % len(self.seeds)])
        field_path = self._path("field", "field.json")
        cmd = self.commands[step]
        if cmd == "gen-field":
            return [cmd, "--b", str(self.b), "--seed", seed, "--out", self._path("field")]
        if cmd == "sample":
            return [cmd, "--field", field_path, "--n", str(self.sample_n), "--seed", seed,
                    "--out", self._path("samples")]
        if cmd == "estimate":
            return [cmd, "--field", field_path, "--n", str(self.sample_n), "--seed", seed]
        if cmd == "ambiguity-demo":
            return [cmd, "--field", field_path, "--theta", str(self.thetas[k]),
                    "--n", str(self.amb_n), "--grid", str(self.amb_grid), "--seed", seed,
                    "--out", self._path("ambiguity")]
        return [cmd, "--config", self._path("configs", f"sweep{k}.json"),
                "--out", self._path("sweep")]

    nominal_ops = 1

    def memory_argv(self, i: int) -> list:
        """Command ``i`` of the memory pass: the same command under CLI_HWM_WRAPPER."""
        return [sys.executable, "-c", CLI_HWM_WRAPPER, *self.argv(i)]

    def output_paths(self, cmd: str) -> list:
        """The files a command writes and its check reads (estimate prints instead)."""
        return {
            "gen-field": [self._path("field", "field.json")],
            "sample": [self._path("samples", "samples.json"), self._path("samples", "samples.csv")],
            "ambiguity-demo": [self._path("ambiguity", "ambiguity.json")],
            "mse-sweep": [self._path("sweep", "sweep.json")],
        }.get(cmd, [])

    def run_once(self, i: int, in_process: bool = False) -> Outcome:
        args = self.argv(i)
        outputs = self.output_paths(args[0])
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)  # a stale file must not pass the check
        if in_process:
            from orderfield import cli

            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(args)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            latency = time.perf_counter() - t0
            out = buf.getvalue()
        else:
            code, out, latency = run_child(
                [sys.executable, "-m", "orderfield", *args], self.env, self.workdir,
                self._path("stderr.log"),
            )
        ok = code == 0 and self.check(args[0], out, outputs)
        return Outcome(1, 0 if ok else 1, latency)

    def check(self, cmd: str, stdout: str, outputs: list) -> bool:
        try:
            if cmd == "estimate":
                doc = json.loads(stdout)
            else:
                with open(outputs[0], encoding="utf-8") as fh:
                    doc = json.load(fh)
            if cmd in ("gen-field", "estimate"):
                return len(doc["coeffs"]) == 2 * self.b + 1 and all(
                    math.isfinite(x) for pair in doc["coeffs"] for x in pair
                )
            if cmd == "sample":
                with open(outputs[1], "rb") as fh:
                    data = fh.read()
                rows = data.count(b"\n") - 1
                return (doc["n"] == self.sample_n and rows == self.sample_n
                        and data.startswith(b"value_re,value_im\r\n"))
            if cmd == "ambiguity-demo":
                return doc["sup_cdf_diff_theory"] <= 2 * doc["b"] / doc["grid_points"]
            _, failed, _ = check_sweep_rows(doc["rows"])
            return failed == 0 and len(doc["rows"]) == 4
        except (OSError, ValueError, KeyError, TypeError):
            return False


def build(name: str):
    """The workload called ``name``; raises KeyError for an unknown name."""
    return {
        # Both sweeps run serially.  On two threads, heavy CPU steal on the
        # shared host slowed them 30-50% more than the speed probe could see
        # (one stalled thread holds up the GIL or the pool), so no bound held.
        "sweep_large_n": lambda: HarnessWorkload(
            "sweep_large_n", "run_mse_sweep", check_sweep, (1, 2, 3), (10_000, 100_000),
            trials=2,
        ),
        "sweep_small_n": lambda: HarnessWorkload(
            "sweep_small_n", "run_mse_sweep", check_sweep, (1, 2, 4, 8), (20, 100, 300),
            trials=50,
        ),
        "clt_check": lambda: HarnessWorkload(
            "clt_check", "run_clt_check", check_clt, (1, 2), (10_000,), trials=25,
            eval_count=8,
        ),
        "cli_pipeline": lambda: CliWorkload("cli_pipeline"),
    }[name]()


NAMES = ("sweep_large_n", "sweep_small_n", "clt_check", "cli_pipeline")
