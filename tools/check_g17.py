#!/usr/bin/env python3
"""Compare the package's vector ``%.17g`` formatter with Python's, value by value.

    PYTHONPATH=src python3 tools/check_g17.py [N] [--seed SEED]

Formats a fixed edge set and then N seeded random float64 bit patterns
(default 10^6) with ``orderfield.io``'s formatter, the one behind
``samples.csv`` and the ``ambiguity_*.csv`` curves, and with Python's
``'%.17g' % v``.  Prints the first value whose text differs and exits 1, or
prints how many values matched and exits 0.  The edge set covers every
binary exponent with both signs, ±0, the smallest subnormal, NaN and ±inf,
every power of ten within ±4 ulps, the ``%g`` switch points 1e-5, 1e-4,
1e16 and 1e17, 17-digit round-up carries, and exact ties (dyadic rationals
with 18 significant digits, which Python rounds half to even).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from orderfield import io

CHUNK = 1 << 16


def edge_values(seed: int = 0) -> np.ndarray:
    """The hard cases listed in the module docstring, as one float64 array."""
    rng = np.random.default_rng(seed)
    # every exponent field (subnormals, normals, inf/NaN) with both signs
    exps = np.repeat(np.arange(4096, dtype=np.uint64), 2)
    mantissas = rng.integers(0, 1 << 52, exps.size, dtype=np.uint64)
    every_exponent = ((exps << np.uint64(52)) | mantissas).view(np.float64)
    specials = [0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5]
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)] + [1e-5, 1e-4, 1e16, 1e17])
    near = [powers]
    for direction in (np.inf, 0.0):
        step = powers
        for _ in range(4):
            step = np.nextafter(step, direction)
            near.append(step)
    # 17 digits followed by 9s: the digits round up and carry
    digits = rng.integers(10**10, 10**11, 2000)
    shifts = rng.integers(-300, 290, 2000)
    carries = [float(f"{d}9999999e{s}") for d, s in zip(digits.tolist(), shifts.tolist())]
    # m / 2^j with exactly 18 significant digits, the last one a 5: exact ties
    ties = []
    for j in range(2, 26):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        for m in rng.integers(lo, hi, 40).tolist():
            ties.append((m | 1) / 2**j)
    values = np.concatenate([every_exponent, specials, *near, carries, ties])
    return np.concatenate([values, -values])


def random_doubles(n: int, seed) -> np.ndarray:
    """``n`` float64 values with uniformly random bit patterns; ``seed`` may be a Generator."""
    return np.random.default_rng(seed).integers(0, 2**64, n, np.uint64).view(np.float64)


def first_mismatch(values: np.ndarray):
    """``(value, got, want)`` for the first value formatted unlike ``'%.17g' % v``, or None."""
    for start in range(0, values.size, CHUNK):
        chunk = values[start : start + CHUNK]
        got = io._g17_block(chunk[:, None], "\n").decode().split("\n")[:-1]
        want = ["%.17g" % v for v in chunk.tolist()]
        if got != want:
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            return chunk[i], got[i], want[i]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, nargs="?", default=10**6, help="random values")
    parser.add_argument("--seed", type=int, default=20261019)
    args = parser.parse_args(argv)
    checked = 0
    for batch in _batches(args.n, args.seed):
        bad = first_mismatch(batch)
        if bad is not None:
            value, got, want = bad
            print(f"mismatch at {float(value)!r} (bits {value.view(np.uint64):#018x}): "
                  f"got {got!r}, want {want!r}")
            return 1
        checked += batch.size
    print(f"{checked} values formatted exactly as '%.17g'")
    return 0


def _batches(n: int, seed: int):
    """The edge set, then ``n`` random values in chunks, all from ``seed``."""
    yield edge_values(seed)
    rng = np.random.default_rng(seed)
    for start in range(0, n, CHUNK):
        yield random_doubles(min(CHUNK, n - start), rng)


if __name__ == "__main__":
    sys.exit(main())
