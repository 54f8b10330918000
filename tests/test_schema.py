"""The JSON layer: field checks, the re/im reader and writer, and the
report serializer."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opkernel.errors import SchemaError
from opkernel.schema import (
    _float_field,
    complex_from_json,
    complex_to_json,
    float_reprs,
    report_text,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_complex_to_json_matches_per_element_floats(pairs, matrix):
    """The writer gives the bytes of the per-element float() lists it
    replaced, signed zeros included, and the reader gives back the values
    (re + 1j * im, as every reader before it: a -0.0 imaginary part reads
    as 0.0)."""
    a = np.array([complex(re, im) for re, im in pairs] + [complex(-0.0, -0.0)])
    if matrix:
        a = np.stack([a, a[::-1]])
        old = {"re": [[float(c) for c in row] for row in a.real], "im": [[float(c) for c in row] for row in a.imag]}
    else:
        old = {"re": [float(c) for c in a.real], "im": [float(c) for c in a.imag]}
    text = json.dumps(complex_to_json(a), sort_keys=True)
    assert text == json.dumps(old, sort_keys=True)
    back = complex_from_json(json.loads(text), "a")
    assert np.array_equal(back.view(float), a.view(float))


def test_complex_from_json_im_defaults_to_zero():
    got = complex_from_json({"re": [[1, 2], [3, 4]]}, "m")
    assert got.dtype == complex and np.array_equal(got, np.array([[1, 2], [3, 4]], dtype=complex))


@pytest.mark.parametrize(
    "obj, match",
    [
        ([1.0], "must be a JSON object"),
        ({"im": [1.0]}, "missing field 're'"),
        ({"re": [1.0], "imag": [0.0]}, "unknown fields"),
        ({"re": "abc"}, "rectangular arrays of numbers"),
        ({"re": [[1.0, 2.0], [3.0]]}, "rectangular arrays of numbers"),
        ({"re": [1.0], "im": "x"}, "rectangular arrays of numbers"),
        ({"re": [{"a": 1}]}, "rectangular arrays of numbers"),
        ({"re": [10**400]}, "rectangular arrays of numbers"),
        ({"re": [1.0, 2.0], "im": [0.0]}, "shapes differ"),
        ({"re": [float("inf")]}, "non-finite"),
        ({"re": [1.0], "im": [float("nan")]}, "non-finite"),
        ({"re": [None]}, "non-finite"),
    ],
)
def test_complex_from_json_refuses(obj, match):
    with pytest.raises(SchemaError, match=match):
        complex_from_json(obj, "a")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_float_field_refuses_non_finite(value):
    with pytest.raises(SchemaError, match="'t' must be finite"):
        _float_field(value, "t")


# ---------------------------------------------------------------- report writer

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e-7, 1e16]
NON_FINITE = [math.nan, math.inf, -math.inf]
any_float = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS + NON_FINITE))
finite_float = st.one_of(finite, st.sampled_from(EDGE_FLOATS))
keys = st.text(max_size=6)  # non-ASCII and escapes included
scalars = st.one_of(st.none(), st.booleans(), st.integers(), any_float, keys)


def matrices(entries):
    """Rectangular lists of lists; square ones drawn about as often."""
    shapes = st.tuples(st.integers(1, 5), st.integers(1, 5)) | st.integers(1, 5).map(lambda n: (n, n))
    return shapes.flatmap(
        lambda s: st.lists(st.lists(entries, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0])
    )


trees = st.recursive(
    scalars | matrices(finite_float) | matrices(any_float),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(keys, children, max_size=4),
    max_leaves=40,
)


@given(trees)
@settings(max_examples=300, deadline=None)
@example([[]])
@example([[], []])
@example([{}])
@example([[1.0], [2.0, 3.0]])
@example([[1.0, 2]])
@example([[True, 1.0]])
@example([[1.0, math.nan]])
@example(("a", (1.0, -0.0)))
def test_report_text_matches_stdlib_indent_sort_keys(obj):
    assert report_text(obj) + "\n" == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@given(st.lists(finite_float, min_size=1, max_size=30), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
@example([0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1], 2)
def test_float_reprs_is_repr_of_each_entry(values, rows):
    a = np.array(values * rows).reshape(rows, len(values))
    got = float_reprs(a)
    assert got.shape == a.shape
    assert got.tolist() == [[repr(v) for v in row] for row in a.tolist()]

