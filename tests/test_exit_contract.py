"""The command line's exit contract on generated descriptors.

Every command the strategies build, whatever its numbers, must exit 0, 2, 3
or 4 without a Python warning; exits 2 and 4 write exactly one stderr line,
and every report parses as strict JSON (no NaN, no Infinity). The numbers
run from the smallest subnormal to the largest finite doubles, so overflow
in any stage (kernel values, eigensolves, traces, Cholesky scales,
interpolation solves) has to surface as a typed failure, not as a warning
or a wrong verdict.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from opkernel.cli import main

MAGNITUDES = (0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 3.0, 369.0, 1e4, 1e6, 1e154, 1e300, 1e308)
CONTRACT = settings(max_examples=500, derandomize=True, database=None, deadline=None)

nonneg = st.sampled_from(MAGNITUDES)
signed = st.builds(lambda x, s: s * x, nonneg, st.sampled_from((1.0, -1.0)))
dims = st.integers(1, 2)


def _vector(n, numbers=signed):
    return st.lists(numbers, min_size=n, max_size=n)


def _matrix(ell):
    """An atom matrix: arbitrary signed entries, or PSD by construction (a
    nonnegative diagonal, or c times the all-ones matrix)."""
    square = st.lists(_vector(ell), min_size=ell, max_size=ell)
    diagonal = _vector(ell, nonneg).map(lambda d: [[d[i] if i == j else 0.0 for j in range(ell)] for i in range(ell)])
    ones = nonneg.map(lambda c: [[c] * ell for _ in range(ell)])
    return st.one_of(
        square.map(lambda re: {"re": re}),
        st.tuples(square, square).map(lambda ri: {"re": ri[0], "im": ri[1]}),
        diagonal.map(lambda re: {"re": re}),
        ones.map(lambda re: {"re": re}),
    )


@st.composite
def kernels(draw):
    m, ell = draw(dims), draw(dims)
    family = draw(st.sampled_from(({"kind": "gaussian"}, {"kind": "askey"}, {"kind": "omega"}, {"kind": "plane_wave"})))
    if family["kind"] == "askey":
        family = {"kind": "askey", "ell": draw(st.integers(1, 4))}
    elif family["kind"] == "omega":
        family = {"kind": "omega", "m": draw(st.integers(1, 3))}
    key, where = ("xi", _vector(m)) if family["kind"] == "plane_wave" else ("omega", signed)
    atoms = draw(st.lists(st.fixed_dictionaries({key: where, "G": _matrix(ell)}), max_size=3))
    return {"family": family, "ambient_dim": m, "measure": {"dim": ell, "atoms": atoms}}


def _points(m):
    return st.lists(_vector(m), min_size=1, max_size=3)


def _targets(n, ell):
    return st.lists(_vector(ell), min_size=n, max_size=n).map(lambda re: {"re": re})


@st.composite
def commands(draw):
    """(command, descriptor) over eval, gram, deriv-gram, plain and Hermite
    interp, probe and classify."""
    kern = draw(kernels())
    m, ell = kern["ambient_dim"], kern["measure"]["dim"]
    command = draw(st.sampled_from(("eval", "eval-t", "gram", "deriv-gram", "interp", "hermite", "probe", "classify")))
    if command == "eval":
        return "eval", {"kernel": kern, "x": draw(_vector(m)), "y": draw(_vector(m))}
    if command == "eval-t":
        return "eval", {"kernel": kern, "t": draw(signed)}
    if command == "gram":
        return "gram", {"kernel": kern, "points": draw(_points(m))}
    if command == "deriv-gram":
        return "deriv-gram", {"kernel": kern, "points": draw(_points(m)), "q": draw(st.integers(0, 2))}
    if command == "interp":
        pts = draw(_points(m))
        obj = {"kernel": kern, "points": pts, "targets": draw(_targets(len(pts), ell))}
        if draw(st.booleans()):
            obj["ridge"] = draw(signed)
        return "interp", obj
    if command == "hermite":
        datum = st.fixed_dictionaries({
            "x": _vector(m),
            "alpha": st.lists(st.integers(0, 5), min_size=m, max_size=m),
            "target": _targets(1, ell).map(lambda t: {"re": t["re"][0]}),
        })
        return "interp", {"kernel": kern, "data": draw(st.lists(datum, min_size=1, max_size=3))}
    size = {"n": draw(st.integers(2, 3)), "trials": draw(st.integers(1, 2))}
    if command == "probe":
        if draw(st.booleans()):
            size["box"] = draw(nonneg)
        return "probe", {"kernel": kern, **size}
    return "classify", {**kern, **size}


def _refuse_constant(name):
    raise ValueError(f"report holds {name}")


def run(command, obj):
    """(exit code, stderr, report text or None, warnings) of one main() call."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        src.write_text(json.dumps(obj))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--input", str(src), "--output", str(out), "--no-timestamp"])
        report = out.read_text() if out.exists() else None
    return code, err.getvalue(), report, [str(w.message) for w in caught]


@given(commands())
@CONTRACT
def test_every_command_keeps_the_exit_contract(case):
    command, obj = case
    code, err, report, caught = run(command, obj)
    assert code in (0, 2, 3, 4), (code, err)
    assert not caught, caught
    if code in (2, 4):
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith("error: " if code == 2 else "numerical failure: "), err
        assert report is None
    else:
        json.loads(report, parse_constant=_refuse_constant)
