"""The vector ``%.17g`` formatter of `orderfield.io` against Python's own."""

import importlib.util
from pathlib import Path

import numpy as np

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
