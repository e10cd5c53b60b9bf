#!/usr/bin/env python3
"""Golden CLI suite: digests of every output of a fixed list of commands.

    python3 tools/golden.py SRC_DIR OUT_DIR

Writes the configs and field files below into ``OUT_DIR`` (created, must be
empty), runs each command below there as ``python -m orderfield`` with the
absolute ``SRC_DIR`` first on ``PYTHONPATH``, then prints the numpy version
and the CPU pins below, and one ``sha256  name`` line for every command's
stdout and exit code and for every file left in ``OUT_DIR``.  The listing of
the current tree is committed as ``tools/golden.txt``, and CI requires this
script to print exactly that file: a refactor leaves it unchanged, a change
that alters output updates it.  The script also holds every command to the
stderr contract and exits 1, naming the command, when one breaks it: a
command that exits 0 writes nothing to stderr, and one that exits 2 writes
exactly one ``orderfield: error:`` line.  It also exits 1, naming the file,
when a ``*.json`` file a command wrote is not the text
``json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"``, the
format the package's own JSON writer promises.

The commands run with numpy's AVX-512 kernels switched off and OpenBLAS held
to its single-threaded Haswell kernels, so any x86-64 CPU with AVX2 and FMA
takes the same code paths; without the pin, OpenBLAS's choice of kernel for
the host CPU alone changes the estimates' last bits.  numpy builds and the
C library's ``exp``/``sin``/``cos`` can still differ, so the numpy version
is pinned too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy

FIELD = os.path.join("fld", "field.json")

# the same kernels on every AVX2 + FMA CPU: numpy at its X86_V3 dispatch, OpenBLAS at Haswell
CPU_PIN = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Haswell",
    "OPENBLAS_NUM_THREADS": "1",
}

CONFIGS = {
    "cfg.json": dict(b_list=[1], n_list=[101, 301], trials=8, base_seed=3),
    "cfg2.json": dict(b_list=[1], n_list=[64], trials=12, base_seed=4),
    "cfg_b012.json": dict(b_list=[0, 1, 2], n_list=[25, 60], trials=10, base_seed=5),
    "cfg_b48.json": dict(b_list=[4, 8], n_list=[17, 40, 120], trials=12, base_seed=6),
    "cfg_fixed.json": dict(b_list=[3], n_list=[7, 90], trials=12, base_seed=8, field_source=FIELD),
    "cfg_seed64.json": dict(b_list=[1, 3], n_list=[50, 200], trials=9, base_seed=2**64 - 59),
    "cfg_select.json": dict(b_list=[0, 1, 3, 8], n_list=[16383, 16384, 100000], trials=3,
                            base_seed=2**64 - 101),
    "cfg_mixed.json": dict(b_list=[0, 2, 8], n_list=[17, 2047, 2048, 100000], trials=1,
                           base_seed=21),
    "cfg_points.json": dict(b_list=[0, 1, 3], n_list=[40, 150], trials=11, base_seed=13,
                            eval_points=[-1.75, -0.3, 0.0, 0.125, 0.5, 0.999, 1.0, 2.6]),
}

# fields that gen-field does not draw: a complex one, a real one whose magnitudes sum to 2, and
# 4e19 (1 - cos 2 pi t)^2 + 1e-7 i, whose real parts run from about 1e4 near t = 0 to 1.6e20 and
# whose imaginary parts are rounding noise of that sum, of order 1e2 (so no value is below 1e-4;
# the imaginary parts in smp/samples.csv, of order 1e-17, are scientific with negative exponents)
FIELDS = {
    "field_complex.json": dict(
        b=1, real_valued=False, coeffs=[[0.2, 0.1], [0.3, 0.0], [-0.1, 0.25]]
    ),
    "field_unbounded.json": dict(
        b=1, real_valued=True, coeffs=[[0.5, 0.0], [1.0, 0.0], [0.5, 0.0]]
    ),
    "field_wide.json": dict(
        b=2, real_valued=False,
        coeffs=[[1e19, 0.0], [-4e19, 0.0], [6e19, 1e-7], [-4e19, 0.0], [1e19, 0.0]],
    ),
    # 1e9 (1 + cos 2 pi t): real, with imaginary rounding noise in its values of order 1e-7
    "field_big.json": dict(b=1, real_valued=True, coeffs=[[5e8, 0.0], [1e9, 0.0], [5e8, 0.0]]),
}

COMMANDS = [
    # the determinism suite of tests/test_acceptance.py (acceptance 9)
    ("gen-field", "--b", "3", "--seed", "11", "--out", "fld"),
    ("estimate", "--field", FIELD, "--n", "400", "--seed", "7"),
    ("sample", "--field", FIELD, "--n", "40", "--seed", "5", "--out", "smp"),
    ("mse-sweep", "--config", "cfg.json", "--out", "sweep"),
    ("clt-check", "--config", "cfg2.json", "--out", "clt"),
    ("ambiguity-demo", "--b", "2", "--theta", "0.3", "--n", "256", "--grid", "2048",
     "--seed", "9", "--out", "amb"),
    # estimates written to a file and at a smaller bandwidth than the field's
    ("estimate", "--field", FIELD, "--n", "400", "--seed", "7", "--out", "est"),
    ("estimate", "--field", FIELD, "--n", "400", "--seed", "7", "--b", "1"),
    # b = 0 next to b > 0 in both Monte Carlo reports
    ("mse-sweep", "--config", "cfg_b012.json", "--out", "sweep012"),
    ("clt-check", "--config", "cfg_b012.json", "--out", "clt012"),
    # the ambiguity report printed, and computed for a saved field
    ("ambiguity-demo", "--b", "1", "--theta", "0.2", "--n", "128", "--grid", "512",
     "--seed", "3"),
    ("ambiguity-demo", "--field", FIELD, "--theta", "0.45", "--n", "300", "--grid", "1024",
     "--seed", "4", "--out", "amb_field"),
    # from b = 4 on, numpy sums the 2b+1 >= 9 field magnitudes pairwise, unrolled
    ("mse-sweep", "--config", "cfg_b48.json", "--out", "sweep48"),
    # one saved field shared by every trial of a sweep
    ("mse-sweep", "--config", "cfg_fixed.json", "--out", "sweep_fixed"),
    # shifts by more than a period, which are reduced by whole periods first
    ("ambiguity-demo", "--b", "2", "--theta", "1.3", "--n", "200", "--grid", "512",
     "--seed", "6"),
    ("ambiguity-demo", "--field", FIELD, "--theta", "-2.4", "--n", "200", "--grid", "512",
     "--seed", "7", "--out", "amb_neg"),
    # a complex field through the full sample and estimate path
    ("sample", "--field", "field_complex.json", "--n", "40", "--seed", "5", "--out", "smp_complex"),
    ("estimate", "--field", "field_complex.json", "--n", "300", "--seed", "7"),
    # an unbounded field widens the threshold grid; a complex field's values are refused (exit 2)
    ("ambiguity-demo", "--field", "field_unbounded.json", "--theta", "0.3", "--n", "200",
     "--grid", "512", "--seed", "8", "--out", "amb_unbounded"),
    ("ambiguity-demo", "--field", "field_complex.json", "--theta", "0.3", "--n", "200",
     "--grid", "512", "--seed", "8"),
    # enough values that samples.csv spans more than one formatted chunk
    ("sample", "--field", "field_complex.json", "--n", "10000", "--seed", "9", "--out", "smp_big"),
    # a base seed of two 32-bit words, so a cell's SeedSequence takes four words
    ("mse-sweep", "--config", "cfg_seed64.json", "--out", "sweep_seed64"),
    # samples.csv in fixed notation with integer digits and in scientific notation (e+17 to e+20)
    ("sample", "--field", "field_wide.json", "--n", "400", "--seed", "3", "--out", "smp_wide"),
    # realness judged at the coefficients' own scale: the value law of a real field near 1e9
    ("ambiguity-demo", "--field", "field_big.json", "--theta", "0.3", "--n", "200",
     "--grid", "512", "--seed", "8", "--out", "amb_big"),
    # pointwise checks from the config, at points below 0, at 0 and above 1
    ("clt-check", "--config", "cfg_points.json", "--out", "clt_points"),
    # deployments of 2**14 - 1, 2**14 and 10**5 points, read by rank (sweep) and in full (estimate)
    ("mse-sweep", "--config", "cfg_select.json", "--out", "sweep_select"),
    ("estimate", "--field", FIELD, "--n", "16384", "--seed", "12"),
    # one trial per cell (stderr 0), and n on both sides of RANKED_MIN_N = 2**11 in each bandwidth
    ("mse-sweep", "--config", "cfg_mixed.json", "--out", "sweep_mixed"),
    # every value of deployments far longer than one evaluation block, in full
    ("sample", "--field", FIELD, "--n", "100003", "--seed", "14", "--out", "smp_blocks"),
    ("estimate", "--field", "field_complex.json", "--n", "100003", "--seed", "15"),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stderr_fault(returncode: int, stderr: bytes) -> str | None:
    """How a command's stderr breaks the contract for its exit code, or None."""
    lines = stderr.decode("utf-8", "replace").splitlines()
    if returncode == 0 and stderr:
        return f"exit 0 but wrote {len(lines)} stderr line(s), the first {lines[0]!r}"
    if returncode == 2 and not (len(lines) == 1 and lines[0].startswith("orderfield: error:")):
        return f"exit 2 without exactly one 'orderfield: error:' stderr line: {lines!r}"
    return None


def is_stdlib_json_text(path: Path) -> bool:
    """Whether the file holds ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline."""
    try:
        text = path.read_text(encoding="utf-8")
        return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    except ValueError:
        return False


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/golden.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 1
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "orderfield" / "__init__.py").is_file():
        print(f"golden: no orderfield package under {src}", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"golden: {out} is not empty", file=sys.stderr)
        return 1
    inputs = {**CONFIGS, **FIELDS}
    for name, doc in inputs.items():
        (out / name).write_text(json.dumps(doc))
    print(f"numpy {numpy.__version__}", *(f"{k}={v}" for k, v in CPU_PIN.items()), sep="; ")
    env = {**os.environ, **CPU_PIN}
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + rest if rest else "")
    faults = []
    for i, args in enumerate(COMMANDS):
        r = subprocess.run([sys.executable, "-m", "orderfield", *args],
                           capture_output=True, cwd=str(out), env=env)
        print(f"{sha256(r.stdout)}  [{i:02d} {args[0]} stdout, exit {r.returncode}]")
        fault = stderr_fault(r.returncode, r.stderr)
        if fault:
            faults.append(f"golden: [{i:02d} {' '.join(args)}] {fault}")
    for p in sorted(out.rglob("*")):
        if p.is_file():
            name = p.relative_to(out).as_posix()
            print(f"{sha256(p.read_bytes())}  {name}")
            if p.suffix == ".json" and name not in inputs and not is_stdlib_json_text(p):
                faults.append(f"golden: {name} is not indented, key-sorted stdlib JSON text")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
