"""The JSON layer: field checks, the re/im reader and writer, and the
report serializer."""

import io
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opkernel import schema
from opkernel.cli import _emit
from opkernel.errors import SchemaError
from opkernel.schema import (
    _float_field,
    complex_from_json,
    complex_to_json,
    float_reprs,
    write_report,
)


def report_text(obj) -> str:
    """The text write_report writes for obj, its closing newline included."""
    fh = io.StringIO()
    write_report(obj, fh)
    return fh.getvalue()

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_complex_to_json_matches_per_element_floats(pairs, matrix):
    """The report writer gives the bytes of the per-element float() lists
    complex_to_json replaced, signed zeros included, and the reader gives
    back the values (re + 1j * im, as every reader before it: a -0.0
    imaginary part reads as 0.0)."""
    a = np.array([complex(re, im) for re, im in pairs] + [complex(-0.0, -0.0)])
    if matrix:
        a = np.stack([a, a[::-1]])
        old = {"re": [[float(c) for c in row] for row in a.real], "im": [[float(c) for c in row] for row in a.imag]}
    else:
        old = {"re": [float(c) for c in a.real], "im": [float(c) for c in a.imag]}
    text = report_text(complex_to_json(a))
    assert text == json.dumps(old, indent=2, sort_keys=True) + "\n"
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
    assert report_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@given(st.lists(finite_float, min_size=1, max_size=30), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
@example([0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1], 2)
def test_float_reprs_is_repr_of_each_entry(values, rows):
    a = np.array(values * rows).reshape(rows, len(values))
    got = [row for block in float_reprs(a) for row in block]
    assert got == [[repr(v) for v in row] for row in a.tolist()]


def _listed(obj):
    """obj with every numpy array replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _listed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_listed(v) for v in obj]
    return obj


@st.composite
def float_arrays(draw, shapes, values=any_float):
    """Float arrays of a drawn shape: entries from a small drawn pool of
    values (repeats, signed zeros, non-finite), or normal draws at a scale
    (mostly distinct magnitudes)."""
    shape = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(values, min_size=1, max_size=8)))
        return pool[rng.integers(pool.size, size=shape)]
    return rng.standard_normal(shape) * draw(st.sampled_from([1.0, 1e-300, 1e300]))


SMALL_SHAPES = st.one_of(
    st.just((0,)),
    st.integers(1, 6).map(lambda k: (k,)),
    st.integers(0, 3).map(lambda r: (r, 0)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
)
array_trees = st.recursive(
    scalars | matrices(finite_float) | float_arrays(SMALL_SHAPES),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(keys, children, max_size=4),
    max_leaves=20,
)


@given(array_trees)
@settings(max_examples=300, deadline=None)
@example(np.zeros(0))
@example(np.zeros((3, 0)))
@example({"m": np.array([[math.nan, -0.0], [math.inf, -math.inf]])})
@example([np.array([[0.0, -0.0], [5e-324, -5e-324]]), np.array([1.0, -0.0, math.nan])])
def test_report_text_of_arrays_is_stdlib_json_of_their_lists(obj):
    assert report_text(obj) == json.dumps(_listed(obj), indent=2, sort_keys=True) + "\n"


def _block_edge_shapes():
    """(r, c) with r rows on both sides of a row-block edge, and two blocks
    plus one row, for blocks of k = budget // c rows (one row when a row
    alone passes the budget)."""

    def rows(c):
        k = max(1, schema._ROW_BLOCK_ENTRIES // c)
        return st.sampled_from([k - 1, k, k + 1, 2 * k + 1]).map(lambda r: (r, c))

    return st.sampled_from([1, 3, 7, schema._ROW_BLOCK_ENTRIES + 1]).flatmap(rows)


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@given(float_arrays(_block_edge_shapes(), st.sampled_from(EDGE_FLOATS + NON_FINITE) | finite), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_matrices_are_written_in_row_blocks_with_stdlib_bytes(a, depth):
    """The streamed write_report gives json.dumps' bytes at every row-block
    edge; a finite matrix reaches the file one row block per write, plus
    the closing write."""
    obj = a
    for _ in range(depth):
        obj = {"m": [obj, -0.0]}
    want = json.dumps(_listed(obj), indent=2, sort_keys=True)
    fh = _Writes()
    write_report(obj, fh)
    assert fh.getvalue() == want + "\n"
    if a.size and np.isfinite(a).all():
        k = max(1, schema._ROW_BLOCK_ENTRIES // a.shape[1])
        assert fh.calls == -(-a.shape[0] // k) + 1
        blocks = list(float_reprs(a))
        assert [len(b) for b in blocks[:-1]] == [k] * (len(blocks) - 1) and 1 <= len(blocks[-1]) <= k


def test_writing_a_720_row_complex_report_holds_a_bounded_working_set(tmp_path):
    """The report of a 720-row complex Hermitian Gram is written to a file
    with a tracemalloc peak of at most half of the 105.6 MiB that formatting
    it through nested lists and one whole string took; the matrix is built
    before tracing starts."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((720, 720)) + 1j * rng.standard_normal((720, 720))
    h = a + a.conj().T
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        _emit(SimpleNamespace(output=str(path)), {"result": {"matrix": complex_to_json(h)}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 105.6 / 2 * 2**20
    got = json.loads(path.read_text())["result"]["matrix"]
    assert np.array_equal(np.array(got["re"]) + 1j * np.array(got["im"]), h)

