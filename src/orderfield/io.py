"""On-disk formats: complex numbers as ``[re, im]`` pairs, JSON and CSV text.

JSON documents are written with two-space indent, sorted keys and a
trailing newline: the text `dumps_json` returns is exactly that of
``json.dumps(to_json(doc), indent=2, sort_keys=True)``, with ASCII-escaped
strings, ``repr`` numbers, ``true``/``false``/``null``, and ``NaN``,
``Infinity`` and ``-Infinity`` for non-finite floats.  It takes report
dataclasses, 2-D arrays, complex numbers and numpy scalars as they are, and
writes each flat record (all values exact floats, ints or complex numbers)
with one cached format.  Every JSON document and CSV the
package writes goes through here, a CSV as one comma-separated line per row,
and each file is written over in place and then cut to its new length.
`write_float_csv`, the one writer of float CSVs (``samples.csv``, the
``ambiguity_*.csv`` curves), gives each value exactly ``'%.17g' % v`` with
array operations, a chunk of rows at a time (about 270 bytes per value):
|v|·10^(16-k), k the exact decimal exponent, as a double-double (Dekker's
product by a two-double power of ten rounded from exact integers; error
below 2^-46), rounded half to even to 17 digits and laid out by the ``%g``
rules.  Values within 2^-36 of a rounding tie, non-finite values and nonzero
magnitudes outside [1e-279, 1e279] get Python's own ``%``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import stat
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
    dicts dicts of converted values, and numpy scalars the matching Python
    numbers.  `dumps_json` takes the same values unconverted.
    """
    names = _field_names(type(x))
    if names is not None:
        return {name: to_json(getattr(x, name)) for name in names}
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return matrix_to_json(x)
    if isinstance(x, (complex, np.complexfloating)):
        return pair(x)
    if isinstance(x, (tuple, list)):
        return [to_json(v) for v in x]
    return x.item() if isinstance(x, np.generic) else x


@functools.lru_cache(maxsize=None)
def _field_names(cls) -> tuple | None:
    """The sorted field names of a dataclass type, else None; looked up once per type."""
    is_record = dataclasses.is_dataclass(cls)
    return tuple(sorted(f.name for f in dataclasses.fields(cls))) if is_record else None


def as_int(value, name: str) -> int:
    """A JSON or config integer; floats, booleans and strings raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def dumps_json(doc) -> str:
    """``json.dumps(to_json(doc), indent=2, sort_keys=True)``, byte for byte.

    The stdlib takes its C encoder only without ``indent``; this walks ``doc``
    once, without building `to_json`'s tree.  A 2-D array's pairs and each
    flat record (a dict or report dataclass whose values are all exact floats,
    ints or complex numbers) are written with one format, a record's cached per
    keys, value types and indent, unless a value is not finite.  A key that is
    not a str raises TypeError.
    """
    out = []
    _encode(doc, "\n", out.append)
    return "".join(out)


def _encode(x, newline: str, emit) -> None:
    """Append the text of ``x`` at the indent that ``newline`` ends with."""
    if x is None or isinstance(x, bool):
        emit("null" if x is None else "true" if x else "false")
    elif isinstance(x, float):
        emit(_float_text(x))
    elif isinstance(x, str):
        emit(encode_basestring_ascii(x))
    elif isinstance(x, int):
        emit(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in x:
            emit(sep)
            _encode(v, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(x, dict):
        keys = tuple(sorted(x))
        _encode_record(keys, [x[k] for k in keys], newline, emit)
    elif (keys := _field_names(type(x))) is not None:
        _encode_record(keys, [getattr(x, k) for k in keys], newline, emit)
    elif isinstance(x, np.ndarray):  # the `matrix_to_json` document
        inner, (rows, cols) = newline + "  ", x.shape
        flat = np.asarray(x, np.complex128).ravel().view(np.float64).tolist()
        data = _pairs_format(rows * cols, inner) % tuple(flat)
        if "n" in data:
            return _encode(matrix_to_json(x), newline, emit)
        emit(f'{{{inner}"data": {data},{inner}"shape": [{inner}  {rows},{inner}  {cols}{inner}]'
             + newline + "}")
    elif isinstance(x, (complex, np.complexfloating)):
        _encode(pair(x), newline, emit)
    elif isinstance(x, np.generic):
        _encode(x.item(), newline, emit)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _encode_record(keys: tuple, values: list, newline: str, emit) -> None:
    """Append the object of the sorted ``keys`` and their ``values``, in one format
    when `_record_layout` has one and every value is finite."""
    heads, fmt = _record_layout(keys, tuple(map(type, values)), newline)
    text = fmt and fmt.format(*values)
    if text and "nan" not in text and "inf" not in text:  # every value was finite
        emit(text)
        return
    inner = newline + "  "
    for head, v in zip(heads, values):
        emit(head)
        _encode(v, inner, emit)
    emit(newline + "}")


@functools.lru_cache(maxsize=1024)
def _record_layout(keys: tuple, types: tuple, newline: str):
    """The text before each value of an object and, when every value type is exactly
    float, int or complex (``!r`` of an ``np.float64`` is ``np.float64(0.1)``), its
    `str.format` format.  The repr of a finite float or an int holds neither ``nan``
    nor ``inf``, so formatted text without them has only finite values."""
    inner = newline + "  "
    heads = [("," if i else "{") + inner + encode_basestring_ascii(k) + ": "
             for i, k in enumerate(keys)]
    value = {float: "{0!r}", int: "{0!r}",  # the value at position 0, numbered below
             complex: f"[{inner}  {{0.real!r}},{inner}  {{0.imag!r}}{inner}]"}
    if not set(types) <= value.keys():
        return heads, None
    body = "".join(h.replace("{", "{{").replace("}", "}}") + value[t].replace("0", str(i))
                   for i, (h, t) in enumerate(zip(heads, types)))
    return heads, body + newline + "}}" if keys else "{{}}"


def _pairs_format(count: int, newline: str) -> str:
    """The ``%`` format of a list of ``count`` ``[re, im]`` pairs at that indent."""
    inner = newline + "  "
    pairs = (f",{inner}[{inner}  %r,{inner}  %r{inner}]" * count)[1:]
    return "[" + pairs + newline + "]" if count else "[]"


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _write_in_place(path, chunks) -> None:
    """Make the byte chunks the whole of the file at ``path``, written over it in place.

    The file is opened without ``O_TRUNC`` (a new one gets `open`'s mode) and,
    when it is a regular file, cut to the written length afterwards, also
    when a chunk fails: on a filesystem that discards freed blocks, emptying
    a file and filling it again costs several times the write.  Other files,
    such as ``os.devnull``, where ``ftruncate`` fails, are only written.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_json(path, doc) -> None:
    _write_in_place(path, [(dumps_json(doc) + "\n").encode()])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_float_csv(path, header: str, table, line_end: str = "\n") -> None:
    """Write a header line and the rows of a 2-D float table, each value exactly
    ``'%.17g' % v``, ``,`` between values and ``line_end`` after each row."""
    table = np.asarray(table, np.float64)
    step = _FLOAT_CHUNK // table.shape[1]
    _write_in_place(path, chain([(header + line_end).encode()], (
        _g17_block(table[start : start + step], line_end) for start in range(0, len(table), step)
    )))


_FLOAT_CHUNK = 8192  # values formatted at a time by `write_float_csv`
_OFF = 283  # the tables of `_g17_block` hold decimal exponents k = -_OFF.._OFF at k + _OFF
_SPLIT = 2.0**27 + 1  # Dekker's splitter for float64


@functools.lru_cache(maxsize=None)
def _g17_tables():
    """Read-only tables of `_g17_block`, built on its first call."""
    pow10 = []  # 10^e = hi + lo for -_OFF <= e < 300, both rounded from exact integers
    for e in range(-_OFF, 300):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        h_num, h_den = (num / den).as_integer_ratio()
        pow10.append((num / den, (num * h_den - h_num * den) / (den * h_den)))
    hi, lo = np.array(pow10).T
    ceil10 = np.where(lo > 0, np.nextafter(hi, np.inf), hi)[: 2 * _OFF + 1]  # least double >= 10^k
    hi, lo = hi[:15:-1], lo[:15:-1]  # 10^(16 - k)
    hi_hi = hi * _SPLIT - (hi * _SPLIT - hi)
    spread = np.zeros((10000, 8), np.uint8)  # '0000'..'9999', a NUL after each digit
    spread[:, ::2] = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48
    k = np.arange(-_OFF, _OFF + 1)
    fixed = (k >= -4) & (k <= 16)
    texts = [(b"\0" + b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"").ljust(8, b"\0")
             + (b"" if f else b"e%+03d" % x).ljust(8, b"\0") for x, f in zip(k.tolist(), fixed)]
    int_last = np.where(fixed, k, 0)  # the index of the last digit before the point
    tables = [np.frombuffer(b"".join(texts), np.uint64).reshape(-1, 2),  # "0.00", "e+XX"
              np.array([hi, hi_hi, hi - hi_hi, lo]), ceil10, spread.view(np.uint64).ravel(),
              int_last, np.where(fixed & ((k < 0) | (k == 16)), 0, 7 + 2 * int_last)]
    for t in tables:
        t.flags.writeable = False
    return tables


def _g17_python(values) -> list:
    """``'%.17g' % v`` for the values the vector path leaves to Python."""
    return ["%.17g" % v for v in values]


def _g17_block(block: np.ndarray, line_end: str) -> bytes:
    """The rows of a 2-D float64 block as CSV text.  Each value fills 48 bytes: sign,
    "0." and zeros before a fraction, 17 digits each followed by the point or NUL,
    exponent and separator; digits after the last one to print are NUL, as are gaps."""
    texts, pow10, ceil10, spread, int_last, point = _g17_tables()
    ncols, values = block.shape[1], block.ravel()
    ok = (np.abs(values) >= 1e-279) & (np.abs(values) <= 1e279)
    a = np.where(ok, np.abs(values), 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) + _OFF
    i += (a >= ceil10[i + 1]).astype(np.intp) - (a < ceil10[i])  # now 10^k <= a < 10^(k+1)
    p_hi, p_hh, p_hl, p_lo = pow10.take(i, axis=1)
    p = a * p_hi  # an integer above 2^53; a * 10^(16-k) = p + err, with |error| < 2^-46
    a_hi = a * _SPLIT - (a * _SPLIT - a)
    a_lo = a - a_hi
    err = ((a_hi * p_hh - p) + a_hi * p_hl + a_lo * p_hh) + a_lo * p_hl + a * p_lo
    whole = np.floor(err)
    err -= whole
    slow = ~(ok & (np.abs(err - 0.5) > 2.0**-36)) & (values != 0)  # Python's, near a tie
    d = p.astype(np.int64) + whole.astype(np.int64) + (err > 0.5)
    d[slow | (values == 0)] = 0
    carry = d == 10**17
    d[carry], i[carry] = 10**16, i[carry] + 1
    top, high, low = (x.astype(np.int32) for x in (d // 10**16, d // 10**8 % 10**8, d % 10**8))
    rows = np.empty((len(values), 6), np.uint64)
    rows[:, [0, 5]] = texts[i]
    for col, part in ((1, high), (3, low)):
        rows[:, col], rows[:, col + 1] = (spread[g] for g in np.divmod(part, 10**4))
    text = rows.view(np.uint8)
    text.ravel()[np.arange(0, text.size, 48) + point[i]] = ord(".")  # at 0 when there is none
    text[:, 0] = np.signbit(values) * ord("-")
    text[:, 6] = top + 48
    seps = [","] * (ncols - 1) + [line_end]
    sep_codes = np.frombuffer("".join(x.ljust(2, "\0") for x in seps).encode(), np.uint16)
    rows.view(np.uint16)[:, 23] = np.tile(sep_codes, len(values) // ncols)
    tail = np.flatnonzero(low % 10 == 0)  # a trailing zero digit (or more) to drop
    body = text[tail, 6:40]  # the digits, each with the point or NUL after it
    nonzero = (body[:, ::2] != 48) | (np.arange(17) == 0)
    last = np.maximum(16 - np.argmax(nonzero[:, ::-1], axis=1), int_last[i[tail]])
    body[np.arange(34) > 2 * last[:, None]] = 0
    text[tail, 6:40] = body
    for j, s in zip(np.flatnonzero(slow).tolist(), _g17_python(values[slow].tolist())):
        text[j] = np.frombuffer((s + seps[j % ncols]).encode().ljust(48, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")


def write_csv_lines(path, header: str, lines) -> None:
    """Write a header line and pre-formatted rows, each ending in ``\\n``."""
    _write_in_place(path, ["\n".join([header, *lines, ""]).encode()])
