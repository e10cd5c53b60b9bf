"""On-disk formats: complex numbers as ``[re, im]`` pairs, JSON and CSV text.

JSON documents are written with two-space indent, sorted keys and a
trailing newline: the text `dumps_json` returns is exactly that of
``json.dumps(doc, indent=2, sort_keys=True)``, with ASCII-escaped strings,
``repr`` numbers, ``true``/``false``/``null``, and ``NaN``, ``Infinity`` and
``-Infinity`` for non-finite floats.  Report CSVs are one comma-separated
line per row with ``\\n`` line ends.  Every JSON document and report CSV
the package writes goes through here.  (``samples.csv`` is written by
`sampling.save_samples`, ``%.17g`` per part with ``\\r\\n`` line ends.)
"""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np


def pair(z) -> list:
    """One complex number as ``[re, im]``."""
    return [float(z.real), float(z.imag)]


def pairs_to_json(values) -> list:
    """A one-dimensional complex array as a list of ``[re, im]`` pairs."""
    return np.ascontiguousarray(values, np.complex128).view(np.float64).reshape(-1, 2).tolist()


def pairs_from_json(doc) -> np.ndarray:
    """Inverse of `pairs_to_json`; raises TypeError or ValueError when malformed."""
    pairs = [(re, im) for re, im in doc]
    if any(isinstance(x, bool) for p in pairs for x in p):  # complex() reads them as 1, 0
        raise ValueError("pair parts must be numbers, not true or false")
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode a real or complex matrix as row-major [re, im] pairs."""
    a = np.asarray(m, dtype=np.complex128)
    return {
        "shape": [int(a.shape[0]), int(a.shape[1])],
        "data": pairs_to_json(a.ravel(order="C")),
    }


def to_json(x):
    """A report value as JSON data, with the dataclass field names as keys.

    Dataclasses become objects of their fields, 2-D arrays `matrix_to_json`
    documents, complex numbers ``[re, im]`` pairs, tuples and lists lists,
    and numpy scalars the matching Python numbers.
    """
    if dataclasses.is_dataclass(x):
        return {f.name: to_json(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return matrix_to_json(x)
    if isinstance(x, (complex, np.complexfloating)):
        return pair(x)
    if isinstance(x, (tuple, list)):
        return [to_json(v) for v in x]
    return x.item() if isinstance(x, np.generic) else x


def as_int(value, name: str) -> int:
    """A JSON or config integer; floats, booleans and strings raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def dumps_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, for JSON data.

    The stdlib takes its C encoder only without ``indent``; this walks the
    document once and renders each list of finite ``[re, im]`` float pairs
    with a single ``%`` format.  Keys must be strings.
    """
    out = []
    _encode(doc, "\n", out.append)
    return "".join(out)


def _encode(x, newline: str, emit) -> None:
    """Append the text of ``x`` at the indent that ``newline`` ends with."""
    if isinstance(x, float):
        emit(_float_text(x))
    elif isinstance(x, str):
        emit(encode_basestring_ascii(x))
    elif x is None:
        emit("null")
    elif x is True:
        emit("true")
    elif x is False:
        emit("false")
    elif isinstance(x, int):
        emit(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            emit("[]")
            return
        inner = newline + "  "
        pairs = _finite_pair_floats(x)
        if pairs is not None:
            item = f"{inner}[{inner}  %r,{inner}  %r{inner}]"
            emit("[" + ",".join([item] * len(x)) % pairs + newline + "]")
            return
        sep = "[" + inner
        for v in x:
            emit(sep)
            _encode(v, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(x, dict):
        if not x:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(x.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            emit(sep + encode_basestring_ascii(k) + ": ")
            _encode(v, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _finite_pair_floats(x):
    """The flattened values of a list of 2-lists of finite exact floats, else None.

    ``%r`` is ``float.__repr__`` only for exact floats, and gives ``nan`` and
    ``inf`` where JSON text needs ``NaN`` and ``Infinity``.
    """
    if set(map(type, x)) != {list} or set(map(len, x)) != {2}:
        return None
    flat = tuple(chain.from_iterable(x))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    return flat


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(doc) + "\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv_lines(path, header: str, lines) -> None:
    """Write a header line and pre-formatted rows, each ending in ``\\n``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *lines]) + "\n")
