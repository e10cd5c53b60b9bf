#!/usr/bin/env python3
"""Peak memory per value of the commands whose size is n or a grid.

    python3 tools/mem_per_value.py [--src DIR]

Runs ``sample --n N``, ``estimate --n N`` and ``ambiguity-demo --grid N`` (at a
fixed ``--n 200``) once at each of two sizes, 10^6 and 4*10^6, each run in a fresh
``python -m orderfield`` process that reports its own peak resident set size
(``VmHWM`` in ``/proc/self/status``) when it ends.  Prints one line per command:
both peaks in MB and their growth per added value in bytes, which is what the
command holds per value at its peak; the start-up cost cancels.  ``--src`` picks
the directory holding the ``orderfield`` package (default: this checkout's
``src``), so two checkouts can be compared.  Outputs go to a temporary directory
that is removed afterwards; ``sample`` writes about 45 bytes per value there.
Linux only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAG = "mem-per-value-vmhwm-kib"
SMALL, LARGE = 10**6, 4 * 10**6  # the two sizes whose peaks are compared

# `python -m orderfield ARGS`, then this process's own peak RSS in KiB on stderr
WRAPPER = f"""
import runpy, sys
sys.argv[0] = "orderfield"
try:
    runpy.run_module("orderfield", run_name="__main__", alter_sys=True)
finally:
    hwm = [line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM")]
    print("{TAG}", hwm[0], file=sys.stderr)
"""

FIELD = os.path.join("fld", "field.json")
COMMANDS = {
    "sample": lambda n: ["sample", "--field", FIELD, "--n", str(n), "--seed", "5",
                         "--out", f"smp{n}"],
    "estimate": lambda n: ["estimate", "--field", FIELD, "--n", str(n), "--seed", "7"],
    "ambiguity-demo --grid": lambda n: ["ambiguity-demo", "--b", "3", "--theta", "0.3",
                                        "--n", "200", "--grid", str(n), "--seed", "9"],
}


def peak_kib(args: list, cwd: str, env: dict) -> int:
    proc = subprocess.run([sys.executable, "-c", WRAPPER, *args], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    tagged = [line.split()[1] for line in proc.stderr.splitlines() if line.startswith(TAG)]
    if proc.returncode != 0 or not tagged:
        raise SystemExit(f"mem_per_value: {' '.join(args)} failed:\n{proc.stderr}")
    return int(tagged[0])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    args = p.parse_args(argv)
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(Path(args.src).resolve()) + (os.pathsep + rest if rest else "")
    with tempfile.TemporaryDirectory() as work:
        peak_kib(["gen-field", "--b", "3", "--seed", "11", "--out", "fld"], work, env)
        for name, command in COMMANDS.items():
            small, large = (peak_kib(command(n), work, env) for n in (SMALL, LARGE))
            per_value = (large - small) * 1024 / (LARGE - SMALL)
            print(f"{name:22s} peak {small * 1024 / 1e6:8.1f} MB at {SMALL}, "
                  f"{large * 1024 / 1e6:8.1f} MB at {LARGE}: "
                  f"{per_value:6.1f} bytes per value", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
