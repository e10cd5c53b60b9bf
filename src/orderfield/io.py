"""On-disk formats: complex numbers as ``[re, im]`` pairs, JSON and CSV text.

JSON documents are written with two-space indent, sorted keys and a
trailing newline; report CSVs are one comma-separated line per row with
``\\n`` line ends.  Every JSON document and report CSV the package writes
goes through here.  (``samples.csv`` is written by `sampling.save_samples`,
``%.17g`` per part with ``\\r\\n`` line ends.)
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np


def pair(z) -> list:
    """One complex number as ``[re, im]``."""
    return [float(z.real), float(z.imag)]


def pairs_to_json(values) -> list:
    """A one-dimensional complex array as a list of ``[re, im]`` pairs."""
    return [pair(z) for z in values]


def pairs_from_json(doc) -> np.ndarray:
    """Inverse of `pairs_to_json`; raises TypeError or ValueError when malformed."""
    return np.array([complex(re, im) for re, im in doc], dtype=np.complex128)


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
    return json.dumps(doc, indent=2, sort_keys=True)


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
