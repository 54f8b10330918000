"""The JSON descriptor format: field checks and the one re/im reader and writer.

Every descriptor passes through these helpers, so unknown or missing
fields, wrong types, ragged arrays and non-finite numbers are refused the
same way everywhere, with SchemaError (exit code 2). Complex arrays are
objects {"re": [..], "im": [..]} with "im" optional and of the same shape.
"""

from __future__ import annotations

import math

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
