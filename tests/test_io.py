"""The writers of `orderfield.io`: the vector ``%.17g`` formatter against Python's
own, `dumps_json` against the stdlib's indent encoder, and in-place file writes."""

import dataclasses
import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from orderfield import io
from orderfield.asymptotics import PointwiseCheck, QuantileMoments
from orderfield.harness import SweepRow

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_g17.py"


def _check_g17():
    spec = importlib.util.spec_from_file_location("check_g17", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_g17_block_equals_python_formatting(monkeypatch):
    check = _check_g17()
    left_to_python = []
    python = io._g17_python
    monkeypatch.setattr(io, "_g17_python", lambda v: left_to_python.append(len(v)) or python(v))
    values = np.concatenate([check.edge_values(7), check.random_doubles(200_000, 7)])
    assert check.first_mismatch(values) is None
    # the edge set's ties, non-finite values and subnormals go to Python; most values do not
    assert 0 < sum(left_to_python) < values.size // 4, sum(left_to_python)


def test_write_float_csv_rows_and_line_ends(tmp_path):
    table = np.array([[0.0, -0.0], [1.0, 0.1], [-2.5e-7, 1e20], [123456.789, np.nan]])
    for line_end in ("\n", "\r\n"):
        path = tmp_path / "t.csv"
        io.write_float_csv(path, "x,y", table, line_end)
        want = line_end.join(["x,y", *("%.17g,%.17g" % tuple(r) for r in table.tolist())])
        assert path.read_bytes() == (want + line_end).encode()


def _write_each(path, size):
    """Each writer of `orderfield.io` at ``path``, by name, with about ``size`` rows."""
    table = np.arange(2.0 * size).reshape(size, 2) / 3
    return {
        "write_json": lambda: io.write_json(path, {"rows": table.tolist(), "n": size}),
        "write_csv_lines": lambda: io.write_csv_lines(path, "a", (f"{i}" for i in range(size))),
        "write_float_csv": lambda: io.write_float_csv(path, "x,y", table, "\r\n"),
    }


@pytest.mark.parametrize("writer", ["write_json", "write_csv_lines", "write_float_csv"])
def test_a_shorter_write_over_a_longer_file_leaves_only_the_fresh_bytes(tmp_path, writer):
    path, fresh = tmp_path / "f", tmp_path / "fresh"
    _write_each(fresh, 5)[writer]()
    _write_each(path, 20000)[writer]()  # spans several formatted chunks in write_float_csv
    assert path.stat().st_size > 20 * fresh.stat().st_size
    _write_each(path, 5)[writer]()
    assert path.read_bytes() == fresh.read_bytes()
    _write_each(path, 6)[writer]()  # and a longer one over a shorter file
    _write_each(fresh, 6)[writer]()
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("writer", ["write_json", "write_csv_lines", "write_float_csv"])
def test_writers_write_to_devnull_and_give_a_new_file_opens_mode(tmp_path, writer):
    _write_each(os.devnull, 50)[writer]()  # a character device, which cannot be truncated
    with open(tmp_path / "by_open", "w"):
        pass
    _write_each(tmp_path / "new", 3)[writer]()
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "by_open").stat().st_mode


def test_a_failed_chunk_leaves_the_bytes_written_before_it(tmp_path, monkeypatch):
    path = tmp_path / "f.csv"
    io.write_float_csv(path, "x", np.zeros((3 * io._FLOAT_CHUNK, 1)))
    block = io._g17_block
    calls = []

    def fail_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError
        return block(*args)

    monkeypatch.setattr(io, "_g17_block", fail_second)
    with pytest.raises(MemoryError):
        io.write_float_csv(path, "x", np.ones((3 * io._FLOAT_CHUNK, 1)))
    assert path.read_bytes() == b"x\n" + b"1\n" * io._FLOAT_CHUNK


@dataclasses.dataclass(frozen=True)
class _NoFields:
    pass


_RECORDS = (SweepRow, PointwiseCheck, QuantileMoments, _NoFields)
_CHARS = list("az09 {}%\"\\/\t\n\x00\x7f") + ["nan", "inf", "\u00e9", "\u2014", "\U0001d11e"]
_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, 1e16, 1e-5]


def _random_text(rng) -> str:
    return "".join(rng.choice(_CHARS, size=int(rng.integers(0, 5))).tolist())


def _random_float(rng) -> float:
    if rng.random() < 0.3:
        return _FLOATS[int(rng.integers(len(_FLOATS)))]
    return float(rng.normal() * 10.0 ** int(rng.integers(-300, 300)))


def _random_flat(rng):
    """A value of the kinds a report record holds, mostly exact floats, ints and complex."""
    kind = int(rng.integers(9))
    if kind < 3:
        return _random_float(rng)
    if kind == 3:
        return int(rng.integers(-(2**62), 2**62)) * 2 ** int(rng.integers(0, 1100))
    if kind == 4:
        return complex(_random_float(rng), _random_float(rng))
    if kind == 5:
        return bool(rng.integers(2))
    if kind == 6:
        return int(rng.integers(-3, 3))
    return _random_numpy_scalar(rng) if kind == 7 else _random_float(rng)


def _random_numpy_scalar(rng):
    kind = int(rng.integers(5))
    if kind < 2:
        return (np.float64, np.complex128)[kind](_random_float(rng))
    scalars = (np.float32(rng.normal()), np.int64(rng.integers(-5, 5)), np.bool_(rng.integers(2)))
    return scalars[kind - 2]


def _random_doc(rng, depth: int = 0):
    """A nested document of dicts, lists, tuples, report records, pair lists, 2-D
    arrays and leaves; the deeper, the likelier a leaf."""
    kind = int(rng.integers(14 if depth < 3 else 7))
    if kind == 0:
        return None
    if kind == 1:
        return bool(rng.integers(2))
    if kind == 2:
        return _random_flat(rng)
    if kind == 3:
        return _random_text(rng)
    if kind == 4:
        return _random_numpy_scalar(rng)
    if kind in (5, 6):
        return int(rng.integers(-(2**40), 2**40)) * 2 ** int(rng.integers(0, 80))
    width = int(rng.integers(0, 5))
    if kind == 7:
        return {_random_text(rng): _random_doc(rng, depth + 1) for _ in range(width)}
    if kind == 8:
        return {_random_text(rng): _random_flat(rng) for _ in range(width)}
    if kind == 9:
        return [_random_doc(rng, depth + 1) for _ in range(width)]
    if kind == 10:
        return tuple(_random_doc(rng, depth + 1) for _ in range(width))
    if kind == 11:
        return [[_random_float(rng), _random_float(rng) if rng.random() < 0.9 else 1]
                for _ in range(width)]
    if kind == 12:
        cls = _RECORDS[int(rng.integers(len(_RECORDS)))]
        return cls(*(_random_flat(rng) for _ in dataclasses.fields(cls)))
    shape = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
    values = [complex(_random_float(rng), _random_float(rng)) for _ in range(shape[0] * shape[1])]
    return np.array(values, np.complex128).reshape(shape)


def test_dumps_json_equals_the_stdlib_on_generated_documents():
    rng = np.random.default_rng(20261021)
    for i in range(2000):
        doc = _random_doc(rng)
        want = json.dumps(io.to_json(doc), indent=2, sort_keys=True)
        assert io.dumps_json(doc) == want, (i, doc)


@pytest.mark.parametrize("doc", [{1: 0.5}, {"a": {2: 1}}, {1: [0.5]}, {1: 0, "a": 1}, {None: 1}])
def test_dumps_json_refuses_keys_that_are_not_strings(doc):
    # the stdlib would write an int key as a string; the writer takes str keys only
    with pytest.raises(TypeError):
        io.dumps_json(doc)
