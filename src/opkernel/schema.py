"""The JSON formats: descriptor field checks, the one re/im reader and
writer, and the one report serializer.

Every descriptor passes through these helpers, so unknown or missing
fields, wrong types, ragged arrays and non-finite numbers are refused the
same way everywhere, with SchemaError (exit code 2). Complex arrays are
objects {"re": [..], "im": [..]} with "im" optional and of the same shape.

Reports are written by `report_text`, which gives the bytes of
json.dumps(obj, indent=2, sort_keys=True) without its pure-Python encoder;
`float_reprs` formats the float matrices of reports and Gram CSVs.
"""

from __future__ import annotations

import math
from itertools import chain
from json import JSONEncoder
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import SchemaError


def _fields(obj, what: str, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)} in {what}")
    for field in required:
        if field not in obj:
            raise SchemaError(f"missing field '{field}' in {what}")


def _int_field(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"'{name}' must be an integer")
    return value


def _float_field(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"'{name}' must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"'{name}' must be finite")
    return value


def _list_field(value, name: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"'{name}' must be a list")
    return value


def _float_array(value, message: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(message) from exc


def _point_field(value, name: str, m: int) -> np.ndarray:
    arr = _float_array(value, f"'{name}' must be a list of numbers")
    if arr.shape != (m,) or not np.all(np.isfinite(arr)):
        raise SchemaError(f"'{name}' must be a finite vector of length {m}")
    return arr


def _points_field(value, name: str, m: int) -> np.ndarray:
    arr = _float_array(value, f"'{name}' must be a list of points")
    if arr.ndim == 1 and m == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != m or arr.shape[0] < 1 or not np.all(
        np.isfinite(arr)
    ):
        raise SchemaError(f"'{name}' must be a nonempty list of length-{m} points")
    return arr


def complex_from_json(obj, what: str) -> np.ndarray:
    """The complex array of {"re": .., "im": ..}: both parts rectangular
    arrays of finite numbers with equal shapes, "im" defaulting to zeros."""
    _fields(obj, what, ("re",), ("im",))
    message = f"{what} must hold rectangular arrays of numbers"
    re = _float_array(obj["re"], message)
    im = _float_array(obj["im"], message) if "im" in obj else np.zeros_like(re)
    if re.shape != im.shape:
        raise SchemaError(f"'re' and 'im' shapes differ in {what}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise SchemaError(f"{what} has non-finite entries")
    return re + 1j * im


def complex_to_json(a: np.ndarray) -> dict:
    """{"re": .., "im": ..} nested lists of the real and imaginary parts."""
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


# ----------------------------------------------------------------------
# report serializer
# ----------------------------------------------------------------------

_INDENT = "  "
# the C encoder, for scalars and flat lists of numbers: stdlib's spelling
# of NaN, Infinity, ints, bools and None
_COMPACT = JSONEncoder(separators=(",", ":")).encode


def float_reprs(a: np.ndarray) -> np.ndarray:
    """repr() of every entry of a finite float array, as an object array of
    the same shape. Each distinct magnitude is formatted once: for finite x,
    repr(-x) == "-" + repr(x), -0.0 included, so a Hermitian Gram (re
    symmetric, im antisymmetric) costs half its entries."""
    a = np.asarray(a, dtype=float)
    mags, inverse = np.unique(np.abs(a).ravel(), return_inverse=True)
    texts = [repr(m) for m in mags.tolist()]
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
    return table[inverse.reshape(a.shape) + len(texts) * np.signbit(a)]


def _float_matrix(rows) -> np.ndarray | None:
    """rows as an array when it is a nonempty rectangular list of nonempty
    lists of finite floats, else None."""
    if not all(isinstance(row, (list, tuple)) for row in rows):
        return None
    width = len(rows[0])
    if not width or any(len(row) != width for row in rows):
        return None
    if set(map(type, chain.from_iterable(rows))) != {float}:
        return None
    a = np.array(rows, dtype=float)
    return a if np.isfinite(a).all() else None


def _write(obj, level: int, out) -> None:
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        pad = "\n" + _INDENT * (level + 1)
        sep = "{"
        for key in sorted(obj):
            out(sep + pad + encode_basestring_ascii(key) + ": ")
            _write(obj[key], level + 1, out)
            sep = ","
        out("\n" + _INDENT * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        pad = "\n" + _INDENT * (level + 1)
        close = "\n" + _INDENT * level + "]"
        if not any(isinstance(v, (str, dict, list, tuple)) for v in obj):
            out("[" + pad + _COMPACT(obj)[1:-1].replace(",", "," + pad) + close)
            return
        matrix = _float_matrix(obj)
        if matrix is not None:
            inner = "\n" + _INDENT * (level + 2)
            rows = float_reprs(matrix).tolist()
            rows = ("[" + inner + ("," + inner).join(row) + pad + "]" for row in rows)
            out("[" + pad + ("," + pad).join(rows) + close)
            return
        sep = "["
        for v in obj:
            out(sep + pad)
            _write(v, level + 1, out)
            sep = ","
        out(close)
    else:
        out(_COMPACT(obj))


def report_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for trees
    of dicts with str keys, lists, tuples and JSON scalars."""
    chunks: list[str] = []
    _write(obj, 0, chunks.append)
    return "".join(chunks)
