#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --runs 10 [--workload NAME ...] [--out FILE]

For every workload and end-to-end metric this prints the median, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(third minus first quartile, over the median) against the metric's bound in
BENCHMARK.json.  ``--compare FILE`` also checks each median against an
earlier summary written with ``--out``.  Runs go one at a time, from the
root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--out", help="write the summary JSON here")
    p.add_argument("--compare", help="earlier summary whose medians to check against")
    args = p.parse_args(argv)

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    summary, ok = {}, True
    for workload in args.workload or names:
        results = [run_once(workload, args.first_seed + k, bench["run_seconds"], 0)
                   for k in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        report = ROOT / "perfbench" / "_results" / f"{workload}_seed{args.first_seed}_trace0.json"
        summary[workload] = {"failed": failed,
                             "attempted": sum(r["attempted"] for r in results),
                             "provenance": json.loads(report.read_text())["provenance"]}
        ok = ok and failed == 0
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = summarize([r["metrics"][name]["value"] for r in results])
            summary[workload][name] = stats
            line = (f"{workload:14s} {name:16s} median {stats['median']:12.6g} "
                    f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                    f"spread {stats['spread']:.4f} (bound {bound}, target < {bound / 3:.4f})")
            if stats["spread"] > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if earlier is not None:
                before = earlier[workload][name]["median"]
                change = (stats["median"] - before) / before
                worse = -change if metric["better"] == "higher" else change
                line += f"  vs earlier {change:+.4f}"
                if worse > bound:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line, flush=True)
        print(f"{workload:14s} failed {failed} of {summary[workload]['attempted']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
