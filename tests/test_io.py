"""The vector ``%.17g`` formatter of `orderfield.io` against Python's own."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from orderfield import io

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
