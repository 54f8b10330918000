"""The command line's exit contract on generated descriptors.

Every command the strategies build, whatever its numbers, must exit 0, 2, 3
or 4 without a Python warning; exits 2 and 4 write exactly one stderr line,
and every report parses as strict JSON (no NaN, no Infinity). The numbers
run from the smallest subnormal to the largest finite doubles, so overflow
in any stage (kernel values, eigensolves, traces, Cholesky scales,
interpolation solves, difference stencils) has to surface as a typed
failure, not as a warning or a wrong verdict. Integer fields past their
caps, up to 10**400, must be refused with exit 2 before anything of their
size is allocated.
"""

import contextlib
import io
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opkernel.certify import MAX_BUMP_GRID_N, MAX_PROBE_DIM, MAX_PROBE_N, MAX_PROBE_TRIALS
from opkernel.cli import MAX_MONOTONE_GRID_NUM, main
from opkernel.kernel import MAX_AMBIENT_DIM
from opkernel.measures import MAX_MEASURE_DIM
from opkernel.profiles import JET_ORDER_CAP, MAX_ASKEY_ELL, MAX_DIFFERENCE_ORDER, MAX_OMEGA_M

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
def monotone_descriptors(draw):
    """A monotone descriptor: a named function or a Williamson mixture, and
    a grid that is often not increasing or not positive."""
    function = draw(st.sampled_from(("exp-neg", "inv-1p", "two-plus-sin", "williamson")))
    if function == "williamson":
        atoms = draw(st.lists(st.lists(signed, min_size=2, max_size=2), min_size=1, max_size=2))
        function = {"williamson": {"atoms": atoms, "ell": draw(st.integers(2, 4))}}
    obj = {"function": function, "mode": draw(st.sampled_from(("cm", "ell-cm")))}
    if draw(st.booleans()):
        obj["grid"] = {"start": draw(signed), "stop": draw(signed), "num": draw(st.integers(1, 5))}
    if draw(st.booleans()):
        obj["h"] = draw(nonneg)
    if obj["mode"] == "cm":
        obj["nmax"] = draw(st.integers(0, 6))
    elif function == "exp-neg" or draw(st.booleans()):
        obj["ell"] = draw(st.integers(2, 4))
    return obj


@st.composite
def commands(draw):
    """(argv, descriptor) over eval, gram, deriv-gram, plain and Hermite
    interp, probe, classify, monotone and both demos; the descriptor is None
    where the command takes no --input."""
    command = draw(st.sampled_from(("eval", "eval-t", "gram", "deriv-gram", "interp", "hermite", "probe", "classify",
                                    "monotone", "shifted-gaussian", "radial-bump")))
    if command == "monotone":
        return ["monotone"], draw(monotone_descriptors())
    if command == "shifted-gaussian":
        w = ",".join(repr(x) for x in draw(st.lists(signed, min_size=1, max_size=2)))
        return ["demo", "shifted-gaussian", f"--w={w}", "--seed", str(draw(st.integers(0, 3)))], None
    if command == "radial-bump":
        grid_n = draw(st.sampled_from((128, 129, 200)))
        box = draw(st.sampled_from((1.5, 3.0)) | nonneg)
        return ["demo", "radial-bump", "--grid-n", str(grid_n), f"--box={box!r}"], None
    kern = draw(kernels())
    m, ell = kern["ambient_dim"], kern["measure"]["dim"]
    if command == "eval":
        return ["eval"], {"kernel": kern, "x": draw(_vector(m)), "y": draw(_vector(m))}
    if command == "eval-t":
        return ["eval"], {"kernel": kern, "t": draw(signed)}
    if command == "gram":
        return ["gram"], {"kernel": kern, "points": draw(_points(m))}
    if command == "deriv-gram":
        return ["deriv-gram"], {"kernel": kern, "points": draw(_points(m)), "q": draw(st.integers(0, 2))}
    if command == "interp":
        pts = draw(_points(m))
        obj = {"kernel": kern, "points": pts, "targets": draw(_targets(len(pts), ell))}
        if draw(st.booleans()):
            obj["ridge"] = draw(signed)
        return ["interp"], obj
    if command == "hermite":
        datum = st.fixed_dictionaries({
            "x": _vector(m),
            "alpha": st.lists(st.integers(0, 5), min_size=m, max_size=m),
            "target": _targets(1, ell).map(lambda t: {"re": t["re"][0]}),
        })
        return ["interp"], {"kernel": kern, "data": draw(st.lists(datum, min_size=1, max_size=3))}
    size = {"n": draw(st.integers(2, 3)), "trials": draw(st.integers(1, 2))}
    if command == "probe":
        if draw(st.booleans()):
            size["box"] = draw(nonneg)
        return ["probe"], {"kernel": kern, **size}
    return ["classify"], {**kern, **size}


def _refuse_constant(name):
    raise ValueError(f"report holds {name}")


def run(argv, obj):
    """(exit code, stderr, report text or None, warnings, traced allocation
    peak) of one main() call; obj, if not None, is written to --input."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        argv = [*argv, "--output", str(out), "--no-timestamp"]
        if obj is not None:
            src.write_text(json.dumps(obj))
            argv += ["--input", str(src)]
        err = io.StringIO()
        tracemalloc.start()
        try:
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = out.read_text() if out.exists() else None
    return code, err.getvalue(), report, [str(w.message) for w in caught], peak


def check_contract(code, err, report, caught):
    assert code in (0, 2, 3, 4), (code, err)
    assert not caught, caught
    if code in (2, 4):
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith("error: " if code == 2 else "numerical failure: "), err
        assert report is None
    else:
        json.loads(report, parse_constant=_refuse_constant)


@given(commands())
@CONTRACT
def test_every_command_keeps_the_exit_contract(case):
    code, err, report, caught, _ = run(*case)
    check_contract(code, err, report, caught)


# Integers past each field's range: one past the cap, the C integer limits,
# and 10**400, which no float holds; and below the field's minimum.
BEYOND = (2**31, 2**63, 2**64, 10**20, 10**400, -1, -(10**400))
_GAUSS = {"family": {"kind": "gaussian"}, "ambient_dim": 1,
          "measure": {"dim": 1, "atoms": [{"omega": 1.0, "G": {"re": [[1.0]]}}]}}
_PLANE_WAVE = {"family": {"kind": "plane_wave"}, "ambient_dim": 1, "measure": {"dim": 1, "atoms": []}}
_PROBE = {"kernel": _GAUSS, "n": 2, "trials": 1}
_CLASSIFY = {**_GAUSS, "n": 2, "trials": 1}
_EVAL = {"kernel": _GAUSS, "x": [0.0], "y": [0.5]}
_MONOTONE = {"function": "exp-neg", "mode": "cm", "nmax": 2, "grid": {"start": 0.5, "stop": 5.0, "num": 10}}
_WILLIAMSON = {"function": {"williamson": {"atoms": [[1.0, 1.0]], "ell": 3}}, "mode": "cm"}


def _with(obj, path, value):
    """A copy of obj with the field at path (a tuple of keys) set to value."""
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return obj


# field: (first value past its cap, argv, a descriptor that runs, and the
# path of the field in it; or None and the option that takes the value)
INTEGER_FIELDS = {
    "probe n": (MAX_PROBE_N + 1, ["probe"], _PROBE, ("n",)),
    "probe trials": (MAX_PROBE_TRIALS + 1, ["probe"], _PROBE, ("trials",)),
    "classify n": (MAX_PROBE_N + 1, ["classify"], _CLASSIFY, ("n",)),
    "classify trials": (MAX_PROBE_TRIALS + 1, ["classify"], _CLASSIFY, ("trials",)),
    "classify ambient_dim": (MAX_PROBE_DIM + 1, ["classify"], _CLASSIFY, ("ambient_dim",)),
    "deriv-gram q": (JET_ORDER_CAP // 2 + 1, ["deriv-gram"], {"kernel": _GAUSS, "points": [[0.0]], "q": 1}, ("q",)),
    "radial dim": (MAX_MEASURE_DIM + 1, ["gram"], {"kernel": _GAUSS, "points": [[0.0]]}, ("kernel", "measure", "dim")),
    "plane-wave dim": (MAX_MEASURE_DIM + 1, ["gram"], {"kernel": _PLANE_WAVE, "points": [[0.0]]},
                       ("kernel", "measure", "dim")),
    "askey ell": (MAX_ASKEY_ELL + 1, ["eval"], _with(_EVAL, ("kernel", "family"), {"kind": "askey", "ell": 3}),
                  ("kernel", "family", "ell")),
    "omega m": (MAX_OMEGA_M + 1, ["eval"], _with(_EVAL, ("kernel", "family"), {"kind": "omega", "m": 3}),
                ("kernel", "family", "m")),
    "eval-t ambient_dim": (MAX_AMBIENT_DIM + 1, ["eval"], {"kernel": _GAUSS, "t": 0.5}, ("kernel", "ambient_dim")),
    "grid num": (MAX_MONOTONE_GRID_NUM + 1, ["monotone"], _MONOTONE, ("grid", "num")),
    "nmax": (MAX_DIFFERENCE_ORDER + 1, ["monotone"], _MONOTONE, ("nmax",)),
    "ell-cm ell": (MAX_DIFFERENCE_ORDER + 1, ["monotone"], {**_MONOTONE, "mode": "ell-cm", "ell": 3}, ("ell",)),
    "williamson ell": (MAX_ASKEY_ELL + 1, ["monotone"], _WILLIAMSON, ("function", "williamson", "ell")),
    "--grid-n": (MAX_BUMP_GRID_N + 1, ["demo", "radial-bump"], None, "--grid-n"),
    "--m": (2, ["demo", "radial-bump"], None, "--m"),
}


@given(st.sampled_from(sorted(INTEGER_FIELDS)), st.integers(0, len(BEYOND)))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_integers_past_every_cap_are_refused_before_allocation(field, which):
    """Each integer field, at one past its cap, at the C integer limits, at
    10**400 and below its minimum, exits 2 with one line, having traced
    under 1 MiB of allocations."""
    past, argv, obj, where = INTEGER_FIELDS[field]
    value = past if which == len(BEYOND) else BEYOND[which]
    if obj is None:
        argv = [*argv, f"{where}={value}"]
    else:
        obj = _with(obj, where, value)
    code, err, report, caught, peak = run(argv, obj)
    check_contract(code, err, report, caught)
    assert code == 2, err
    assert peak < 2**20, peak


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_the_integer_field_descriptors_run(field):
    """The descriptors above run as given, so a refusal comes from the field."""
    _, argv, obj, _ = INTEGER_FIELDS[field]
    code, err, report, caught, _ = run(argv, obj)
    check_contract(code, err, report, caught)
    assert code == 0, err


# Valid descriptors holding only required fields, so that every mutation
# below is malformed: a field of a wrong JSON type (or a string no field
# takes, spanning two lines), a dropped field, an extra field, or a value
# nested past the JSON parser's recursion limit (or past numpy's 64
# dimensions).
_G = {"re": [[1.0]]}
_ONE_ATOM = {"dim": 1, "atoms": [{"omega": 1.0, "G": _G}]}
MALFORMED_BASES = {
    "eval": (["eval"], _EVAL),
    "eval-t": (["eval"], {"kernel": {**_GAUSS, "family": {"kind": "omega", "m": 3}}, "t": 0.5}),
    "gram": (["gram"], {"kernel": {**_PLANE_WAVE, "measure": {"dim": 1, "atoms": [{"xi": [1.0], "G": _G}]}},
                        "points": [[0.0], [0.5]]}),
    "deriv-gram": (["deriv-gram"], {"kernel": _GAUSS, "points": [[0.0], [0.5]], "q": 1}),
    "interp": (["interp"], {"kernel": {**_GAUSS, "family": {"kind": "askey", "ell": 3}}, "points": [[0.0], [0.5]],
                            "targets": {"re": [[1.0], [0.5]]}}),
    "hermite": (["interp"], {"kernel": _GAUSS, "data": [{"x": [0.0], "alpha": [1], "target": {"re": [1.0]}}]}),
    "sin-cos": (["interp"], {"experiment": "sin-cos"}),
    "probe": (["probe"], {"kernel": _GAUSS}),
    "classify": (["classify"], {"family": {"kind": "gaussian"}, "ambient_dim": 1, "measure": _ONE_ATOM}),
    "monotone": (["monotone"], {"function": "exp-neg", "mode": "cm"}),
    "williamson": (["monotone"], {"function": {"williamson": {"atoms": [[1.0, 1.0]], "ell": 3}}, "mode": "ell-cm"}),
}
WRONG_VALUES = (None, True, False, 0, -1.5, "x", "a\nb", [], [1.0], [[1.0]], {}, {"re": [1.0]})
_DEEP = '"deep"'


def _json_class(value):
    for name, types in (("bool", bool), ("number", (int, float)), ("string", str), ("array", list), ("object", dict)):
        if isinstance(value, types):
            return name
    return "null"


def _members(obj, path=()):
    """(path, value) of every member of a JSON tree, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*path, key), value
        yield from _members(value, (*path, key))


def _drop(obj, path):
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return obj


def malformed_descriptors():
    """(label, argv, descriptor text) of every single mutation of the bases."""
    for name, (argv, base) in MALFORMED_BASES.items():
        yield f"{name} extra", argv, json.dumps({**base, "extra": 1})
        for path, value in _members(base):
            label = f"{name} {'.'.join(map(str, path))}"
            for wrong in WRONG_VALUES:
                if _json_class(wrong) != _json_class(value) or (isinstance(value, str) and wrong == "a\nb"):
                    yield f"{label} = {wrong!r}", argv, json.dumps(_with(base, path, wrong))
            if isinstance(path[-1], str):
                yield f"{label} dropped", argv, json.dumps(_drop(base, path))
            if isinstance(value, dict):
                yield f"{label} extra", argv, json.dumps(_with(base, (*path, "extra"), 1))
            for depth in (70, 100_000):
                yield f"{label} nested {depth}", argv, json.dumps(_with(base, path, "deep")).replace(
                    _DEEP, "[" * depth + "]" * depth)


def test_malformed_values_are_refused_with_one_line():
    """Every single mutation of the bases, enumerated in a fixed order,
    exits 2 with exactly one `error: ` line and no warning. Before the fix,
    JSON true and false inside number arrays (points, G, xi, targets) were
    read as 1.0 and 0.0, and an unknown family kind, function, mode or
    experiment was echoed unquoted, so a string with a newline split the
    message over two lines."""
    failures = []
    count = 0
    for label, argv, text in malformed_descriptors():
        count += 1
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
            src.write_text(text)
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main([*argv, "--input", str(src), "--output", str(out), "--no-timestamp"])
            message = err.getvalue()
            if code != 2 or message.count("\n") != 1 or not message.startswith("error: ") or caught or out.exists():
                failures.append((label, code, message, [str(w.message) for w in caught]))
    assert count > 1000
    assert not failures, failures


@pytest.mark.parametrize("name", sorted(MALFORMED_BASES))
def test_the_malformed_bases_run(name):
    argv, obj = MALFORMED_BASES[name]
    code, err, report, caught, _ = run(argv, obj)
    check_contract(code, err, report, caught)
    assert code == 0, err
