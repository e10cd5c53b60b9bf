#!/usr/bin/env python3
"""orderfield benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's own ``src``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the workload in-process, first untraced
and then with every public function of the package wrapped (see
tracing.py), and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller report with provenance goes to
``perfbench/_results/``.  ``--workload all`` runs every workload, each in a
fresh process, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "_results"
WORK_DIR = BENCH_DIR / "_work"

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
SETUP_TAG = "perfbench-setup-cpu-s"
# The reference process: a fresh interpreter that imports numpy and prints
# its main thread's CPU time.  Its CPU seconds on the machine that set-up
# times are expressed for (see measure_setup).
REFERENCE_CODE = f"import time, numpy; print({SETUP_TAG!r}, time.thread_time())"
SETUP_REF_NOMINAL_S = 0.12
IMPORT_PROBES = 5
MEMORY_PROBES = 3
MEMORY_PROBE_CALLS = 3
# Tail = highest of these percentiles with TAIL_MIN_BEYOND samples beyond it;
# p75 when even that has fewer (the count beyond is recorded in the report).
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Functions whose self time is reported as a share of all traced time.
SHARE_FUNCTIONS = (
    "fields.eval_field",
    "fields.random_field",
    "fields.build_dft_matrix",
    "sampling.deploy",
    "sampling.sorted_locations",
    "sampling.observe",
    "sampling.save_samples",
    "estimator.estimate_coeffs",
    "estimator.distortion",
    "estimator.reconstruct",
    "asymptotics.clt_empirical_check",
    "asymptotics.covariance_bundle",
    "asymptotics.trial",
    "ambiguity.level_measure_curve",
    "ambiguity.empirical_value_cdf",
    "harness.run_mse_sweep",
    "harness.run_clt_check",
    "harness.trial",
    "parallel.trial_map",
    "cli.main",
)

PER_LAYER = (
    tuple((f"{layer}.self_share", "%") for layer in tracing.LAYERS)
    + tuple((f"{fn}.self_share", "%") for fn in SHARE_FUNCTIONS)
    + (
        ("fields.eval_field.points", "count"),
        ("fields.build_dft_matrix.calls", "count"),
        ("sampling.deploy.locations", "count"),
        ("sampling.values_used_ratio", "ratio"),
        ("sampling.save_samples.bytes", "B"),
        ("estimator.estimate_coeffs.calls", "count"),
        ("asymptotics.max_rel_err", "ratio"),
        ("harness.bytes_written", "B"),
        ("harness.worst_mse_ratio", "ratio"),
        ("parallel.trial_map.wall_s", "s"),
        ("parallel.trial_busy_s", "s"),
        ("parallel.workers", "count"),
        ("parallel.efficiency", "ratio"),
        ("cli.import_s", "s"),
        ("trace.ops", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.untraced_s", "s"),
    )
)


# ---- provenance ----

def _lscpu() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    keep = ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache")
    info = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keep:
            info[key.strip()] = value.strip()
    return info


def _git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, wl) -> dict:
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _lscpu(),
        "orderstat_threads": os.environ.get("ORDERSTAT_THREADS"),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# ---- measurement ----

def tail_percentile(latencies) -> tuple[float, float]:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    n = len(latencies)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen, float(np.percentile(latencies, chosen))


def _steal_s() -> float:
    """Machine-wide CPU steal so far, from /proc/stat; 0 where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SpeedProbe:
    """A fixed slice of work that measures how fast the machine runs right now.

    On a shared host the same code runs up to ~1.5x slower for seconds to
    minutes at a time (CPU steal, busy sibling hyperthreads).  The probe runs
    before every operation; its wall time over ``nominal_s`` is the
    slow-down factor by which that operation's times are divided.  It mixes
    the kinds of work the package does: a stable sort, complex
    multiply-adds, generator construction and interpreted Python.
    """

    nominal_s = 0.009

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.random(20_000)
        self.phases = np.exp(2j * np.pi * self.values)

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            np.sort(self.values, kind="stable")
            acc = self.phases.copy()
            for _ in range(4):
                acc = acc * self.phases + 0.5
            for k in range(20):
                np.random.default_rng(k).random(8)
            total = 0
            for k in range(2000):
                total += k * k
        return time.perf_counter() - t0


class ProcessProbe:
    """The speed probe for a workload of fresh processes: one reference process.

    Interpreter start-up and imports dominate a short CLI command, and they
    do not slow down in step with SpeedProbe's in-process work.  So a
    command's probe is the wall time of the reference process (see
    REFERENCE_CODE), run just before it.
    """

    nominal_s = 0.2

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def run(self) -> float:
        return _tagged_child([sys.executable, "-c", REFERENCE_CODE], str(self.workdir),
                             str(self.workdir / "probe.log"), SETUP_TAG)[1]


def closed_loop(wl, seconds: float, in_process: bool, probe=None) -> dict:
    """Run operations back to back for ``seconds``; whole CLI pipelines only.

    Operations are grouped into blocks (one call in-process, one five-command
    pipeline for the CLI).  ``block_rates`` holds each block's operations per
    second of wall time (checks included, speed probe excluded), and
    ``norm_*`` the same figures with every operation's time divided by the
    slow-down factor the speed probe measured just before it (factor 1
    without a probe).
    """
    cycle = len(getattr(wl, "commands", (None,)))
    latencies, norm_latencies, factors = [], [], []
    block_rates, norm_block_rates = [], []
    ops, failed, info = 0, 0, {}
    steal0, cpu0 = _steal_s(), _cpu_s()
    start = time.perf_counter()
    deadline = start + seconds
    block_wall = block_norm_wall = 0.0
    block_ops = 0
    i = 0
    while True:
        factor = probe.run() / probe.nominal_s if probe is not None else 1.0
        t0 = time.perf_counter()
        try:
            out = wl.run_once(i, in_process)
        except Exception:  # a crash in the package is a failed operation, not a dead run
            traceback.print_exc(file=sys.stderr)
            out = workloads.Outcome(wl.nominal_ops, wl.nominal_ops, time.perf_counter() - t0)
        op_wall = time.perf_counter() - t0
        i += 1
        factors.append(factor)
        latencies.append(out.latency_s)
        norm_latencies.append(out.latency_s / factor)
        ops += out.ops
        failed += out.failed
        block_ops += out.ops
        block_wall += op_wall
        block_norm_wall += op_wall / factor
        for key, value in out.info.items():
            info[key] = max(info.get(key, 0.0), value)
        if i % cycle == 0:
            block_rates.append(block_ops / block_wall)
            norm_block_rates.append(block_ops / block_norm_wall)
            block_wall = block_norm_wall = 0.0
            block_ops = 0
            if time.perf_counter() >= deadline:
                break
    return {
        "wall_s": time.perf_counter() - start,
        "latencies": latencies,
        "norm_latencies": norm_latencies,
        "speed_factors": factors,
        "block_rates": block_rates,
        "norm_block_rates": norm_block_rates,
        "steal_s": _steal_s() - steal0,
        "cpu_s": _cpu_s() - cpu0,
        "ops": ops,
        "failed": failed,
        "info": info,
    }


def _tagged_child(argv, cwd: str, log: str, tag: str) -> tuple[str, float]:
    """Run one child; return the value its last line gives after ``tag``, and its wall time."""
    code, out, wall = workloads.run_child(argv, workloads.subprocess_env(str(SRC)), cwd, log)
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if code != 0 or not last.startswith(tag + " "):
        raise RuntimeError(f"probe {argv[-4:]} exited with {code}; see {log}")
    return last.split()[1], wall


def measure_setup(args, workdir: Path) -> tuple[list[float], list[float], list[float]]:
    """Set-up cost of fresh processes that start, import and generate the inputs.

    Returns, per process, its main-thread CPU seconds from its start to the
    end of set-up, the same figure for a reference process run just before
    it (a fresh interpreter that imports numpy), and its wall seconds.  CPU
    time leaves out CPU steal and other processes' load, which inflate wall
    time on a shared host by up to half.  What remains is the machine's own
    speed, which swings by as much for seconds at a time (busy sibling
    hyperthreads); adjacent processes share it, so the reference divides it
    out.  Whole-process CPU time would not do: the BLAS threads numpy starts
    spin, and they get less CPU when the host is busy.
    """
    cpu, ref, wall = [], [], []
    log = str(workdir / "setup.log")
    for k in range(SETUP_PROBES):
        ref.append(float(_tagged_child([sys.executable, "-c", REFERENCE_CODE],
                                       str(workdir), log, SETUP_TAG)[0]))
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe", str(workdir / f"probe{k}")]
        value, seconds = _tagged_child(argv, str(ROOT), log, SETUP_TAG)
        cpu.append(float(value))
        wall.append(seconds)
    return cpu, ref, wall


def measure_peak_rss(args, wl, workdir: Path) -> list[int]:
    """Peak RSS in bytes of fresh processes, each its own VmHWM.

    In-process workloads: MEMORY_PROBES processes that each prepare the
    inputs and make MEMORY_PROBE_CALLS calls.  CLI: one pass of the
    pipeline's commands.  ``ru_maxrss`` of a child would not do: on Linux it
    starts from the spawning process's own peak.
    """
    log = str(workdir / "memory.log")
    if isinstance(wl, workloads.CliWorkload):
        runs = [(wl.memory_argv(i), wl.workdir) for i in range(len(wl.commands))]
    else:
        runs = [([sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--memory-probe", str(workdir / f"memory{k}")],
                 str(ROOT))
                for k in range(MEMORY_PROBES)]
    return [int(_tagged_child(argv, cwd, log, workloads.HWM_TAG)[0]) * 1024
            for argv, cwd in runs]


def measure_cli_import(workdir: Path) -> float:
    """Median import time of orderfield.cli in a fresh interpreter, net of a bare start."""
    env = workloads.subprocess_env(str(SRC))
    log = str(workdir / "import.log")

    def start_s(code: str) -> float:
        return workloads.run_child([sys.executable, "-c", code], env, str(workdir), log)[2]

    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(start_s("pass"))
        full.append(start_s("import orderfield.cli"))
    return statistics.median(full) - statistics.median(bare)


def end_to_end(args, wl, workdir: Path) -> tuple[dict, dict, dict]:
    setup_cpu, setup_ref, setup_wall = measure_setup(args, workdir)
    in_process = not isinstance(wl, workloads.CliWorkload)
    probe = SpeedProbe() if in_process else ProcessProbe(workdir)
    probe.run()
    wl.run_once(0, in_process)  # warm-up: lazy imports, page cache, compiled bytecode
    loop = closed_loop(wl, args.seconds, in_process, probe)
    lat_ms = np.asarray(loop["latencies"]) * 1e3
    norm_ms = np.asarray(loop["norm_latencies"]) * 1e3
    tail_p, tail_ms = tail_percentile(norm_ms)
    rss_peaks = measure_peak_rss(args, wl, workdir)
    rss_bytes = max(rss_peaks) if not in_process else statistics.median(rss_peaks)
    metrics = {
        "ops_per_s": float(np.median(loop["norm_block_rates"])),
        "latency_p50_ms": float(np.percentile(norm_ms, 50)),
        "latency_tail_ms": tail_ms,
        "setup_s": SETUP_REF_NOMINAL_S * statistics.median(
            c / r for c, r in zip(setup_cpu, setup_ref)
        ),
        "peak_rss_mb": rss_bytes / 1e6,
    }
    detail = {
        ("trials_per_s" if in_process else "commands_per_s"): metrics["ops_per_s"],
        "latency_tail_percentile": tail_p,
        "latency_samples": len(norm_ms),
        "latency_samples_beyond_tail": int(np.sum(norm_ms > tail_ms)),
        "failed_ratio": loop["failed"] / max(loop["ops"], 1),
        "raw": {
            "ops_per_s": float(np.median(loop["block_rates"])),
            "mean_ops_per_s": loop["ops"] / loop["wall_s"],
            "latency_p50_ms": float(np.percentile(lat_ms, 50)),
            "latency_tail_ms": float(np.percentile(lat_ms, tail_p)),
            "setup_s": statistics.median(setup_cpu),
            "setup_wall_s": statistics.median(setup_wall),
        },
        "speed_factor_median": float(np.median(loop["speed_factors"])),
        "machine_steal_s": loop["steal_s"],
        "cpu_s": loop["cpu_s"],
        "measured_wall_s": loop["wall_s"],
        "latencies_ms": lat_ms.tolist(),
        "speed_factors": loop["speed_factors"],
        "setup_probe_cpu_s": setup_cpu,
        "setup_reference_cpu_s": setup_ref,
        "setup_probe_wall_s": setup_wall,
        "peak_rss_probe_bytes": rss_peaks,
        **{f"check.{k}": v for k, v in loop["info"].items()},
    }
    return metrics, detail, loop


def per_layer(args, wl, workdir: Path) -> tuple[dict, dict, dict]:
    import_s = measure_cli_import(workdir)
    wl.run_once(0, True)  # warm-up
    half = args.seconds / 2.0
    plain = closed_loop(wl, half, True, None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = closed_loop(wl, half, True, None)
    finally:
        tracer.uninstall()
    st = tracing.self_times(tracer.columns(), tracer.names, traced["wall_s"])
    names = tracer.names
    self_s = dict(zip(names, st["self_s"].tolist()))
    total_s = dict(zip(names, st["total_s"].tolist()))
    calls = dict(zip(names, st["calls"].tolist()))
    accounted = sum(self_s.values()) + st["untraced_s"]
    counters = tracer.counters

    def share(prefix_or_name, layer=False):
        if layer:
            picked = sum(v for k, v in self_s.items() if k.startswith(prefix_or_name + "."))
        else:
            picked = self_s.get(prefix_or_name, 0.0)
        return 100.0 * picked / accounted

    busy = sum(v for k, v in total_s.items() if k.endswith(".trial"))
    info = {k: max(plain["info"].get(k, 0.0), traced["info"].get(k, 0.0))
            for k in set(plain["info"]) | set(traced["info"])}
    values = {f"{layer}.self_share": share(layer, layer=True) for layer in tracing.LAYERS}
    values.update({f"{fn}.self_share": share(fn) for fn in SHARE_FUNCTIONS})
    points = counters["fields.eval_field.points"]
    values.update({
        "fields.eval_field.points": points,
        "fields.build_dft_matrix.calls": calls.get("fields.build_dft_matrix", 0),
        "sampling.deploy.locations": counters["sampling.deploy.locations"],
        "sampling.values_used_ratio": counters["sampling.ranks_read"] / points if points else 0.0,
        "sampling.save_samples.bytes": counters["sampling.save_samples.bytes"],
        "estimator.estimate_coeffs.calls": calls.get("estimator.estimate_coeffs", 0),
        "asymptotics.max_rel_err": info.get("max_rel_err", 0.0),
        "harness.bytes_written": counters["harness.bytes_written"],
        "harness.worst_mse_ratio": info.get("worst_mse_ratio", 0.0),
        "parallel.trial_map.wall_s": total_s.get("parallel.trial_map", 0.0),
        "parallel.trial_busy_s": busy,
        "parallel.workers": tracer.max_workers,
        "parallel.efficiency": busy / tracer.trial_capacity_s if tracer.trial_capacity_s else 0.0,
        "cli.import_s": import_s,
        "trace.ops": traced["ops"],
        "trace.overhead_ratio": (
            float(np.median(traced["block_rates"])) / float(np.median(plain["block_rates"]))
        ),
        "trace.untraced_s": st["untraced_s"],
    })
    detail = {
        "untraced_ops_per_s": plain["ops"] / plain["wall_s"],
        "traced_ops_per_s": traced["ops"] / traced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans": int(sum(calls.values())),
        "functions": {
            name: {"self_s": self_s[name], "total_s": total_s[name], "calls": calls[name]}
            for name in sorted(names) if calls[name]
        },
    }
    loop = {"ops": plain["ops"] + traced["ops"], "failed": plain["failed"] + traced["failed"]}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(RESULTS_DIR / f"{wl.name}_seed{args.seed}.spans.npz")
    return values, detail, loop


# ---- entry points ----

def run_all(args) -> int:
    """Every workload in a fresh process; prints one table and a combined JSON line."""
    combined = {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined, sort_keys=True))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--memory-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package() -> None:
    """Import orderfield from this checkout's src, or exit 2 without a result."""
    if not (SRC / "orderfield" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'orderfield'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import orderfield

    if Path(orderfield.__file__).resolve().parent != (SRC / "orderfield").resolve():
        sys.exit(f"perfbench: imported orderfield from {orderfield.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    wl = workloads.build(args.workload)
    wl.src_dir = str(SRC)
    if args.setup_probe:
        wl.prepare(args.seed, args.setup_probe)
        print(SETUP_TAG, time.thread_time())
        return 0
    # Every workload runs the package's default single worker (see workloads.build).
    os.environ.pop("ORDERSTAT_THREADS", None)
    if args.memory_probe:
        wl.prepare(args.seed, args.memory_probe)
        for i in range(MEMORY_PROBE_CALLS):
            wl.run_once(i, True)
        print(workloads.HWM_TAG, workloads.vm_hwm_kib())
        return 0
    workdir = WORK_DIR / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl.prepare(args.seed, str(workdir))
    try:
        if args.trace:
            metrics, detail, loop = per_layer(args, wl, workdir)
            spec = PER_LAYER
        else:
            metrics, detail, loop = end_to_end(args, wl, workdir)
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": loop["failed"] == 0,
        "attempted": int(loop["ops"]),
        "failed": int(loop["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    report = {"provenance": provenance(args, wl), "result": result, "detail": detail}
    out = RESULTS_DIR / f"{wl.name}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, unit in spec:
        print(f"{wl.name}  {name:34s} {metrics[name]:>14.6g} {unit}")
    for key in ("trials_per_s", "commands_per_s", "latency_tail_percentile",
                "latency_samples", "failed_ratio"):
        if key in detail:
            print(f"{wl.name}  {key:34s} {detail[key]:>14.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
