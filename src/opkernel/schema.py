"""The JSON formats: descriptor field checks, the one re/im reader and
writer, and the one report serializer.

Every descriptor passes through these helpers, so unknown or missing
fields, wrong types, ragged arrays and non-finite numbers are refused the
same way everywhere, with SchemaError (exit code 2). Complex arrays are
objects {"re": [..], "im": [..]} with "im" optional and of the same shape.

Reports are written by `write_report`, which streams the bytes of
json.dumps(obj, indent=2, sort_keys=True) and a newline to a text file
without its pure-Python encoder. Report trees hold numpy arrays as they
are. A finite 2-D float array (a Gram, a point list) is formatted straight
from the array by `float_reprs`, one block of rows at a time, and each
block is written as soon as it is formatted: no matrix becomes a nested
list, and no report one whole string. Other arrays are written as their
tolist(). Gram CSV cells come from `float_reprs` too.
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
    """value as a float array; JSON true and false are not numbers, though
    numpy would read them as 1.0 and 0.0."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(message) from exc
    if any(type(v) is bool for v in np.asarray(value, dtype=object).flat):
        raise SchemaError(message)
    return arr


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
    """{"re": .., "im": ..}: the real and imaginary parts of a as float
    arrays, for the report writer."""
    return {"re": a.real, "im": a.imag}


# ----------------------------------------------------------------------
# report serializer
# ----------------------------------------------------------------------

_INDENT = "  "
# the C encoder, for scalars and lists of numbers: stdlib's spelling of NaN,
# Infinity, ints, bools and None
_COMPACT = JSONEncoder(separators=(",", ":")).encode
# types whose compact text holds no comma, bracket or quote
_SCALARS = {float, int, bool, type(None)}
# Entries of a float matrix formatted at a time (one row at least): a report
# or Gram CSV being written holds one row block of a matrix as text, never
# the whole matrix.
_ROW_BLOCK_ENTRIES = 2**12


def float_reprs(a: np.ndarray):
    """repr() of every entry of a finite 2-D float array with at least one
    column, in blocks of rows of at most _ROW_BLOCK_ENTRIES entries: each
    block a list of rows, each row a list of str. Each distinct magnitude of
    the whole array is formatted once: for finite x, repr(-x) == "-" +
    repr(x), -0.0 included, so a Hermitian Gram (re symmetric, im
    antisymmetric) costs half its entries.

    With at most a.size / 4 distinct magnitudes, the negative text of each
    is made once too (a.size / 2 strings at most). With more, negative
    entries are prefixed block by block, and the table keeps one string per
    magnitude."""
    mags, inverse = np.unique(np.abs(a).ravel(), return_inverse=True)
    texts = np.empty(mags.size, dtype=object)
    for lo in range(0, mags.size, _ROW_BLOCK_ENTRIES):  # never a list of every magnitude
        chunk = mags[lo : lo + _ROW_BLOCK_ENTRIES].tolist()
        texts[lo : lo + len(chunk)] = list(map(repr, chunk))
    signed = np.concatenate([texts, "-" + texts]) if 4 * mags.size <= a.size else None
    inverse = inverse.reshape(a.shape)
    step = max(1, _ROW_BLOCK_ENTRIES // a.shape[1])
    for lo in range(0, a.shape[0], step):
        neg = np.signbit(a[lo : lo + step])
        if signed is not None:
            yield signed[inverse[lo : lo + step] + mags.size * neg].tolist()
            continue
        block = texts[inverse[lo : lo + step]]
        block[neg] = "-" + block[neg]
        yield block.tolist()


def _write(obj, level: int, out, flush) -> None:
    """Append the text of obj at indent level to out; call flush after each
    row block of a float matrix."""
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
            _write(obj[key], level + 1, out, flush)
            sep = ","
        out("\n" + _INDENT * level + "}")
    elif isinstance(obj, np.ndarray):
        if obj.ndim != 2 or not obj.size or obj.dtype != float or not np.isfinite(obj).all():
            _write(obj.tolist(), level, out, flush)
            return
        pad = "\n" + _INDENT * (level + 1)
        inner = "\n" + _INDENT * (level + 2)
        sep = "["
        between = pad + "]," + pad + "[" + inner
        for block in float_reprs(obj):
            out(sep + pad + "[" + inner + between.join(map(("," + inner).join, block)) + pad + "]")
            flush()
            sep = ","
        out("\n" + _INDENT * level + "]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        pad = "\n" + _INDENT * (level + 1)
        close = "\n" + _INDENT * level + "]"
        types = set(map(type, obj))
        if types <= _SCALARS:
            out("[" + pad + _COMPACT(obj)[1:-1].replace(",", "," + pad) + close)
            return
        if types <= {list, tuple} and all(obj) and set(map(type, chain.from_iterable(obj))) <= _SCALARS:
            # nonempty rows of scalars: one C encoder call, split between rows
            inner = "\n" + _INDENT * (level + 2)
            rows = _COMPACT(obj)[2:-2].split("],[")
            rows = ("[" + inner + row.replace(",", "," + inner) + pad + "]" for row in rows)
            out("[" + pad + ("," + pad).join(rows) + close)
            return
        sep = "["
        for v in obj:
            out(sep + pad)
            _write(v, level + 1, out, flush)
            sep = ","
        out(close)
    else:
        out(_COMPACT(obj))


def write_report(obj, fh) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True) and a newline to the
    text file fh, byte for byte, each row block of a float matrix as soon as
    it is formatted. obj is a tree of dicts with str keys, lists, tuples,
    numpy arrays (as their tolist()) and JSON scalars."""
    chunks: list[str] = []

    def flush():
        fh.write("".join(chunks))
        chunks.clear()

    _write(obj, 0, chunks.append, flush)
    chunks.append("\n")
    flush()
