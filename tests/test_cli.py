"""End-to-end command-line tests: exit codes, report shape, determinism."""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkernel import certify, cli, kernel as kernel_module
from opkernel.certify import MAX_PROBE_BOX, MAX_PROBE_DIM, MAX_PROBE_N, MAX_PROBE_TRIALS
from opkernel.cli import MAX_MONOTONE_GRID_NUM, kernel_from_json, main
from opkernel.errors import InvalidParameter
from opkernel.kernel import MAX_AMBIENT_DIM, MAX_GRAM_ROWS, MAX_JET_TABLE_ENTRIES, MAX_PAIR_DIFF_ENTRIES, deriv_gram
from opkernel.measures import MAX_MEASURE_DIM, OperatorMeasure
from opkernel.profiles import MAX_ASKEY_ELL, MAX_DIFFERENCE_ORDER, MAX_OMEGA_M

GAUSS_SCALAR = {
    "family": {"kind": "gaussian"},
    "measure": {"dim": 1, "atoms": [{"omega": 1.0, "G": {"re": [[1.0]]}}]},
    "ambient_dim": 1,
}
GAUSS_IDENTITY2 = {
    "family": {"kind": "gaussian"},
    "measure": {
        "dim": 2,
        "atoms": [{"omega": 1.0, "G": {"re": [[1.0, 0.0], [0.0, 1.0]]}}],
    },
    "ambient_dim": 2,
}
GAUSS_RANK_DEFICIENT = {
    "family": {"kind": "gaussian"},
    "measure": {
        "dim": 2,
        "atoms": [{"omega": 1.0, "G": {"re": [[1.0, 0.0], [0.0, 0.0]]}}],
    },
    "ambient_dim": 2,
}
PLANE_WAVE_SCALAR = {
    "family": {"kind": "plane_wave"},
    "measure": {"dim": 1, "atoms": [{"xi": [1.0], "G": {"re": [[1.0]]}}]},
    "ambient_dim": 1,
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(tmp_path, argv, obj=None):
    """Run main() with an input descriptor and captured JSON output file."""
    out = tmp_path / "out.json"
    full = list(argv) + ["--output", str(out), "--no-timestamp"]
    if obj is not None:
        full += ["--input", write_json(tmp_path, "in.json", obj)]
    code = main(full)
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


# ---------------------------------------------------------------- eval


def test_eval_points(tmp_path):
    code, rep = run(
        tmp_path, ["eval"], {"kernel": GAUSS_SCALAR, "x": [1.0], "y": [0.0]}
    )
    assert code == 0
    val = rep["result"]["matrix"]["re"][0][0]
    assert val == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert rep["command"] == "eval"


def test_eval_radial_t(tmp_path):
    code, rep = run(tmp_path, ["eval"], {"kernel": GAUSS_SCALAR, "t": 0.0})
    assert code == 0
    assert rep["result"]["matrix"]["re"][0][0] == 1.0


EVAL_T_ATOMS = [
    {"omega": 0.0, "G": {"re": [[1.0, 0.5], [0.5, 2.0]], "im": [[0.0, 0.25], [-0.25, 0.0]]}},
    {"omega": 0.3, "G": {"re": [[2.0, 0.0], [0.0, 1.0]]}},
    {"omega": 1.7, "G": {"re": [[0.5, -0.25], [-0.25, 0.5]]}},
]


@pytest.mark.parametrize("family", [{"kind": "gaussian"}, {"kind": "askey", "ell": 3}, {"kind": "omega", "m": 3}],
                         ids=lambda f: f["kind"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("t", [0.0, 0.7, 1e200])  # at 1e200 the square overflows
def test_eval_t_is_eval_at_t_e1(tmp_path, capsys, family, m, t):
    """eval --t reports bitwise what eval reports at x = t e_1, y = 0: the
    same exit code, result bytes and stderr, a scale-0 atom included."""
    kernel = {"family": family, "measure": {"dim": 2, "atoms": EVAL_T_ATOMS}, "ambient_dim": m}
    outs = []
    at_t_e1 = {"kernel": kernel, "x": [t] + [0.0] * (m - 1), "y": [0.0] * m}
    for i, obj in enumerate([{"kernel": kernel, "t": t}, at_t_e1]):
        (tmp_path / str(i)).mkdir()
        code, rep = run(tmp_path / str(i), ["eval"], obj)
        outs.append((code, rep and json.dumps(rep["result"]), capsys.readouterr().err))
    assert outs[0] == outs[1]
    # Omega is evaluated only up to w*t = 1e4
    assert outs[0][0] == (4 if family["kind"] == "omega" and t == 1e200 else 0)


def test_eval_report_echoes_input(tmp_path):
    obj = {"kernel": GAUSS_SCALAR, "x": [1.0], "y": [0.0]}
    code, rep = run(tmp_path, ["eval"], obj)
    assert code == 0
    assert rep["input"] == obj
    assert set(rep) == {"command", "input", "result", "seed", "tolerances", "version"}


def test_eval_rejects_t_for_plane_wave(tmp_path):
    code, rep = run(tmp_path, ["eval"], {"kernel": PLANE_WAVE_SCALAR, "t": 1.0})
    assert code == 2


def test_eval_rejects_both_t_and_points(tmp_path):
    code, _ = run(
        tmp_path, ["eval"], {"kernel": GAUSS_SCALAR, "x": [0.0], "y": [0.0], "t": 1.0}
    )
    assert code == 2


def test_eval_rejects_unknown_field(tmp_path):
    code, _ = run(
        tmp_path, ["eval"], {"kernel": GAUSS_SCALAR, "x": [0.0], "y": [0.0], "zz": 1}
    )
    assert code == 2


def test_eval_requires_input(tmp_path):
    code, _ = run(tmp_path, ["eval"])
    assert code == 2


def test_eval_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", "--input", str(bad)]) == 2


def test_eval_missing_file(tmp_path):
    assert main(["eval", "--input", str(tmp_path / "absent.json")]) == 2


# ---------------------------------------------------------------- gram


def test_gram_json(tmp_path):
    code, rep = run(
        tmp_path, ["gram"], {"kernel": GAUSS_SCALAR, "points": [[0.0], [1.0]]}
    )
    assert code == 0
    res = rep["result"]
    assert res["n_points"] == 2 and res["ell"] == 1 and res["dim"] == 2
    assert res["row_layout"] == "point_index * ell + component"
    assert res["min_eigenvalue"] > 0.0


def test_gram_csv_needs_output(tmp_path):
    argv = [
        "gram",
        "--format",
        "csv",
        "--input",
        write_json(tmp_path, "in.json", {"kernel": GAUSS_SCALAR, "points": [[0.0]]}),
    ]
    assert main(argv) == 2


@pytest.mark.parametrize("command, q", [("gram", None), ("deriv-gram", 1)])
def test_csv_without_output_is_refused_before_the_gram(tmp_path, capsys, monkeypatch, command, q):
    """Refused once the descriptor is parsed, before any Gram or eigensolve:
    a kernel whose values overflow (exit 4 with --output) gets exit 2 too."""
    kern = {
        "family": {"kind": "plane_wave"},
        "ambient_dim": 1,
        "measure": {"dim": 1, "atoms": [{"xi": [1e300], "G": {"re": [[1.0]]}}]},
    }
    obj = {"kernel": kern, "points": [[0.0], [1e10]]} | ({} if q is None else {"q": q})
    path = write_json(tmp_path, "in.json", obj)
    assert main([command, "--input", path, "--format", "csv", "--output", str(tmp_path / "g.csv")]) == 4
    capsys.readouterr()
    monkeypatch.setattr(cli, "deriv_gram", None)
    monkeypatch.setattr(cli, "gram", None)
    assert main([command, "--input", path, "--format", "csv"]) == 2
    assert capsys.readouterr().err == "error: --format csv needs --output PATH for the matrix\n"


def test_gram_csv_writes_matrix_and_sidecar(tmp_path, capsys):
    out = tmp_path / "g.csv"
    argv = [
        "gram",
        "--format",
        "csv",
        "--output",
        str(out),
        "--no-timestamp",
        "--input",
        write_json(tmp_path, "in.json", {"kernel": GAUSS_SCALAR, "points": [[0.0]]}),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("wrote ")
    lines = out.read_text().strip().split("\n")
    assert lines[-1] == "1.0,0.0"
    sidecar = json.loads((tmp_path / "g.csv.meta.json").read_text())
    assert sidecar["result"]["min_eigenvalue"] == 1.0


def test_gram_duplicate_points_rejected(tmp_path):
    code, _ = run(
        tmp_path, ["gram"], {"kernel": GAUSS_SCALAR, "points": [[0.0], [0.0]]}
    )
    assert code == 2


def test_deriv_gram_single_point(tmp_path):
    code, rep = run(
        tmp_path,
        ["deriv-gram"],
        {"kernel": GAUSS_SCALAR, "points": [[0.0]], "q": 1},
    )
    assert code == 0
    res = rep["result"]
    assert res["multi_indices"] == [[0], [1]]
    assert res["matrix"]["re"] == [[1.0, 0.0], [0.0, 2.0]]
    assert res["min_eigenvalue"] == pytest.approx(1.0, abs=1e-14)


def test_deriv_gram_askey_rejected(tmp_path):
    askey = {
        "family": {"kind": "askey", "ell": 4},
        "measure": {"dim": 1, "atoms": [{"omega": 1.0, "G": {"re": [[1.0]]}}]},
        "ambient_dim": 1,
    }
    code, _ = run(
        tmp_path, ["deriv-gram"], {"kernel": askey, "points": [[0.0], [0.4]], "q": 1}
    )
    assert code == 2


def _omega_kernel(m_source, scale, ambient_dim=1):
    return {
        "family": {"kind": "omega", "m": m_source},
        "measure": {"dim": 1, "atoms": [{"omega": scale, "G": {"re": [[1.0]]}}]},
        "ambient_dim": ambient_dim,
    }


@pytest.mark.parametrize("t", [380.0, 1000.0])
def test_eval_omega_past_old_series_cap(tmp_path, t):
    # the exact-rational series returned 1.9e8 at t = 380 and raised
    # OverflowError out of main at t = 1000
    code, rep = run(tmp_path, ["eval"], {"kernel": _omega_kernel(3, 1.0), "t": t})
    assert code == 0
    assert abs(rep["result"]["matrix"]["re"][0][0] - math.sin(t) / t) <= 1e-13


def test_eval_omega_above_range_cap_exits_four(tmp_path, capsys):
    code, rep = run(tmp_path, ["eval"], {"kernel": _omega_kernel(3, 1.0), "t": 1e6})
    err = capsys.readouterr().err
    assert code == 4 and rep is None
    assert "w*t <= 10000" in err
    assert "Traceback" not in err


def test_eval_weight_near_float_max(tmp_path, capsys):
    """A weight of 1e308 is symmetrized without overflow: K(0, 0.5) is
    e^-0.25 * 1e308, with no numpy warning and no non-finite complaint."""
    kernel = {
        "family": {"kind": "gaussian"},
        "measure": {"dim": 1, "atoms": [{"omega": 1.0, "G": {"re": [[1e308]]}}]},
        "ambient_dim": 1,
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, ["eval"], {"kernel": kernel, "x": [0.0], "y": [0.5]})
    assert code == 0
    assert rep["result"]["matrix"]["re"][0][0] == pytest.approx(math.exp(-0.25) * 1e308, rel=1e-15)
    assert not caught and capsys.readouterr().err == ""


EXTREME_SCALARS = (0.0, 1e-300, 1.0, 369.0, 1e4, 1e6, 1e300)


@given(
    command=st.sampled_from(["eval", "gram", "deriv-gram", "classify"]),
    m_source=st.integers(1, 7),
    ambient_dim=st.integers(1, 3),
    scale=st.sampled_from(EXTREME_SCALARS),
    t=st.sampled_from(EXTREME_SCALARS),
    q=st.integers(1, 2),
)
@settings(max_examples=40, deadline=None)
def test_cli_omega_extreme_scalars_exit_cleanly(command, m_source, ambient_dim, scale, t, q):
    """Every command on omega kernels ends in a result or a typed refusal."""
    kernel = _omega_kernel(m_source, scale, ambient_dim)
    far = [t] + [0.0] * (ambient_dim - 1)
    if command == "eval":
        obj = {"kernel": kernel, "t": t}
    elif command == "classify":
        obj = dict(kernel, n=3, trials=2, box=t)
    else:
        obj = {"kernel": kernel, "points": [[0.0] * ambient_dim, far]}
        if command == "deriv-gram":
            obj["q"] = q
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            out = str(Path(tmp) / "out.json")
            code = main([command, "--input", str(path), "--output", out, "--no-timestamp"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "family, scale, g, expected",
    [
        # a scale-0 atom is constant: every block is G, however far apart
        ({"kind": "omega", "m": 3}, 0.0, [[2.0, 0.5], [0.5, 1.0]], [[2.0, 0.5, 2.0, 0.5], [0.5, 1.0, 0.5, 1.0]] * 2),
        ({"kind": "gaussian"}, 1.0, [[1.0, 0.0], [0.0, 1.0]], np.eye(4).tolist()),
    ],
)
def test_gram_at_overflowing_distance(tmp_path, capsys, family, scale, g, expected):
    """Points 1e300 apart: the squared distance overflows to inf, which counts
    as far, with no numpy warning on stderr."""
    kernel = {
        "family": family,
        "measure": {"dim": 2, "atoms": [{"omega": scale, "G": {"re": g}}]},
        "ambient_dim": 1,
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, ["gram"], {"kernel": kernel, "points": [[-1e300], [1e300]]})
    assert code == 0
    assert rep["result"]["matrix"]["re"] == expected
    assert not caught and capsys.readouterr().err == ""


def _strict_json(text):
    """json.loads that refuses NaN and Infinity."""
    def refuse(name):
        raise AssertionError(f"report has {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("q", [1, 2])
def test_deriv_gram_at_overflowing_distance(tmp_path, capsys, q):
    """As in gram, a squared distance that overflows counts as far: the two
    points' blocks vanish, where jet monomials overflowed to inf times a
    zero jet, and each diagonal block is the Gram of one point."""
    obj = {"kernel": GAUSS_SCALAR, "points": [[-1e300], [1e300]], "q": q}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, ["deriv-gram"], obj)
    assert code == 0
    assert not caught and capsys.readouterr().err == ""
    rep = _strict_json((tmp_path / "out.json").read_text())
    one = deriv_gram(kernel_from_json(GAUSS_SCALAR), [[0.0]], q).matrix.entries
    expected = np.kron(np.eye(2), one)
    assert np.array_equal(np.array(rep["result"]["matrix"]["re"]), expected.real)
    assert np.array_equal(np.array(rep["result"]["matrix"]["im"]), expected.imag)


def test_omega_deriv_gram_at_overflowing_distance_fails_as_gram(tmp_path, capsys):
    """An omega kernel is evaluated only up to w*t <= OMEGA_T_MAX, so at an
    infinite distance deriv-gram fails exactly as gram does."""
    kernel = _omega_kernel(3, 1.0, 1)
    errs = []
    for command, extra in (("gram", {}), ("deriv-gram", {"q": 1}), ("deriv-gram", {"q": 2})):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rep = run(tmp_path, [command], dict({"kernel": kernel, "points": [[-1e300], [1e300]]}, **extra))
        assert code == 4 and rep is None and not caught
        errs.append(capsys.readouterr().err)
    assert errs[0].startswith("numerical failure: ") and errs[0].count("\n") == 1
    assert errs[1] == errs[2] == errs[0]


# ---------------------------------------------------------------- classify


def test_classify_strict_exit_zero(tmp_path):
    code, rep = run(
        tmp_path,
        ["classify"],
        {
            "family": {"kind": "gaussian"},
            "measure": GAUSS_IDENTITY2["measure"],
            "ambient_dim": 2,
        },
    )
    assert code == 0
    assert rep["result"]["verdict"] == "StrictlyPD_and_Universal"
    assert rep["result"]["consistent"] is True


def test_classify_degenerate_exit_three(tmp_path):
    code, rep = run(
        tmp_path,
        ["classify"],
        {
            "family": {"kind": "gaussian"},
            "measure": GAUSS_RANK_DEFICIENT["measure"],
            "ambient_dim": 2,
        },
    )
    assert code == 3
    assert rep["result"]["verdict"] == "NotStrictlyPD"
    assert rep["result"]["witness"] is not None
    assert rep["result"]["witness_design"] is not None


def test_classify_askey_bound_exit_two(tmp_path):
    code, _ = run(
        tmp_path,
        ["classify"],
        {
            "family": {"kind": "askey", "ell": 3},
            "measure": GAUSS_SCALAR["measure"],
            "ambient_dim": 4,
        },
    )
    assert code == 2


def test_classify_rejects_plane_wave(tmp_path):
    code, _ = run(
        tmp_path,
        ["classify"],
        {
            "family": {"kind": "plane_wave"},
            "measure": PLANE_WAVE_SCALAR["measure"],
            "ambient_dim": 1,
        },
    )
    assert code == 2


# ---------------------------------------------------------------- demo


def test_demo_shifted_gaussian(tmp_path):
    code, rep = run(tmp_path, ["demo", "shifted-gaussian", "--w", "1"])
    assert code == 0
    res = rep["result"]
    assert res["reproduced"] is True
    assert res["mixed_form"] == 0.0
    assert res["projection_floor"] > 1e-8


def test_demo_radial_bump(tmp_path):
    code, rep = run(tmp_path, ["demo", "radial-bump", "--grid-n", "256"])
    assert code == 0
    res = rep["result"]
    assert res["reproduced"] is True
    assert res["relative_form"] <= 1e-6


def test_demo_radial_bump_refuses_a_zero_reference_form(tmp_path, capsys):
    """No point of this grid has |x| < 1/2, so phi2 vanishes on it and so
    does the reference form; the relative form once read Infinity."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, ["demo", "radial-bump", "--grid-n", "128", "--box", "100"])
    err = capsys.readouterr().err
    assert code == 2 and rep is None and not caught
    assert err.startswith("error: need a grid that resolves the bumps") and err.count("\n") == 1
    assert "reference form 0.0" in err


def test_demo_radial_bump_refuses_a_grid_past_the_atom_cap(tmp_path, capsys):
    """6822 grid points inside |x| < 1, past the cap of 1024: this grid once
    died allocating 2 GiB (or exited 1 under a memory limit)."""
    code, rep = run(tmp_path, ["demo", "radial-bump", "--grid-n", "8192", "--box", "1.2"])
    err = capsys.readouterr().err
    assert code == 2 and rep is None
    assert err == (
        "error: grid_n = 8192 over box = 1.2 puts 6822 grid points in the bumps' support; need <= 1024\n"
    )


def test_demo_shifted_gaussian_redraws_an_ill_conditioned_design(tmp_path, capsys):
    """This design's projection floor was 8.64e-9, under the 1e-8 tolerance,
    and the demo exited 3; one redraw on the same stream clears it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, ["demo", "shifted-gaussian", "--w=0.4067", "--seed", "1164430487"])
    assert code == 0 and capsys.readouterr().err == "" and not caught
    res = rep["result"]
    assert res["reproduced"] is True and res["params"]["design_redraws"] == 1
    assert res["projection_floor"] > res["criteria"]["projection_floor_tol"]


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("grid_n, box", [(256, "1.5"), (640, "2.2"), (2048, "5.6")])
def test_demo_radial_bump_golden_bytes(capsys, grid_n, box):
    """The bump demo's report stays byte for byte the one in tests/golden."""
    argv = ["demo", "radial-bump", "--grid-n", str(grid_n), "--box", box, "--no-timestamp"]
    assert main(argv) == 0
    golden = (GOLDEN / f"demo_radial_bump_{grid_n}_{box}.json").read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("command, name", [
    ("deriv-gram", "deriv_gram_gaussian_m2_q2"),
    ("deriv-gram", "deriv_gram_omega5_m3_q1"),
    ("interp", "interp_hermite_gaussian_m2"),
])
def test_jet_reports_golden_bytes(capsys, command, name):
    """Derivative Grams of a complex gaussian (ell = 2) and of omega(5), and
    a Hermite interpolation, stay byte for byte the reports in tests/golden."""
    assert main([command, "--input", str(GOLDEN / f"{name}.input.json"), "--no-timestamp"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


def test_demo_bump_m2_rejected(tmp_path):
    code, _ = run(tmp_path, ["demo", "radial-bump", "--m", "2"])
    assert code == 2


def test_demo_bad_w_rejected(tmp_path):
    code, _ = run(tmp_path, ["demo", "shifted-gaussian", "--w", "abc"])
    assert code == 2


def test_demo_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["demo", "shifted-gaussian", "--w", "1,0.5", "--seed", "3", "--no-timestamp"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [["--box", "inf"], ["--box", "1e308"], ["--box", "2e6"], ["--grid-n", "100000000000"], ["--grid-n", "8193"]],
)
def test_demo_radial_bump_refuses_unusable_grid(tmp_path, capsys, flags):
    """Each once printed RuntimeWarnings and a misleading non-finite-matrix
    error, or ended in a MemoryError traceback."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, ["demo", "radial-bump", *flags])
    err = capsys.readouterr().err
    assert code == 2 and rep is None and not caught
    assert err.startswith("error: need") and err.count("\n") == 1
    assert ("box" if flags[0] == "--box" else "grid_n") in err


# ---------------------------------------------------------------- interp


def test_interp_sin_cos_experiment(tmp_path):
    code, rep = run(tmp_path, ["interp"], {"experiment": "sin-cos"})
    assert code == 0
    res = rep["result"]
    assert res["error_ratio_5_to_20"] >= 5.0
    assert res["sup_errors"]["20"] < res["sup_errors"]["5"]


def test_interp_points_targets(tmp_path):
    obj = {
        "kernel": GAUSS_SCALAR,
        "points": [[-1.0], [0.0], [1.0]],
        "targets": {"re": [[0.5], [1.0], [0.5]]},
    }
    code, rep = run(tmp_path, ["interp"], obj)
    assert code == 0
    assert rep["result"]["residual"] <= 1e-9
    assert len(rep["result"]["coefficients"]) == 3


def test_interp_hermite_data(tmp_path):
    obj = {
        "kernel": GAUSS_SCALAR,
        "data": [
            {"x": [0.0], "alpha": [0], "target": {"re": [1.0]}},
            {"x": [0.0], "alpha": [1], "target": {"re": [0.0]}},
        ],
        "ridge": 0.0,
    }
    code, rep = run(tmp_path, ["interp"], obj)
    assert code == 0
    assert rep["result"]["residual"] <= 1e-12
    alphas = [c["alpha"] for c in rep["result"]["coefficients"]]
    assert alphas == [[0], [1]]


_G_COMPLEX2 = {"re": [[2.0, 0.5], [0.5, 1.0]], "im": [[0.0, 0.3], [-0.3, 0.0]]}


@pytest.mark.parametrize("family, key, where", [
    ({"kind": "gaussian"}, "omega", 0.7),
    ({"kind": "omega", "m": 3}, "omega", 1.3),
    ({"kind": "askey", "ell": 3}, "omega", 0.4),
    ({"kind": "plane_wave"}, "xi", [0.5, -1.0]),
])
def test_interp_hermite_at_order_zero_is_plain_interp(tmp_path, family, key, where):
    """Hermite data that are all of order 0 take their blocks from
    eval_diffs, as plain interp does, so the result is the same byte for
    byte. They once went through the jet tables, and askey kernels, which
    have none, exited 2 with "askey kernels have no analytic jets"."""
    kernel = {"family": family, "ambient_dim": 2, "measure": {"dim": 2, "atoms": [{key: where, "G": _G_COMPLEX2}]}}
    points = [[0.0, 0.0], [0.5, -0.25], [-1.0, 0.75], [0.3, 0.9]]
    targets = [[1.0, -0.5], [0.25, 2.0], [-1.5, 0.0], [0.75, 0.5]]
    plain = {"kernel": kernel, "points": points, "targets": {"re": targets}}
    data = [{"x": x, "alpha": [0, 0], "target": {"re": t}} for x, t in zip(points, targets)]
    code, rep = run(tmp_path, ["interp"], plain)
    assert code == 0
    code, hermite = run(tmp_path, ["interp"], {"kernel": kernel, "data": data})
    assert code == 0
    assert json.dumps(hermite["result"]) == json.dumps(rep["result"])


@pytest.mark.parametrize("order", [5, 9, 2**63, 2**64])
def test_interp_hermite_alpha_past_the_jet_cap_exits_two(tmp_path, capsys, order):
    """An alpha of 2**63 once became uint64 in np.stack, where alpha + alpha
    wraps to 0: interp exited 0 with the order-0 interpolant. 2**64 exited 1
    with a numpy TypeError. Both are now refused as 9 is. The system pairs
    each datum with itself (gamma = 2 alpha), so the cap on |alpha| is half
    the jet cap: 5 is refused by name, not later by the jet tables."""
    obj = {"kernel": GAUSS_SCALAR, "data": [{"x": [0.0], "alpha": [order], "target": {"re": [1.0]}}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(tmp_path, ["interp"], obj)
    assert code == 2 and rep is None
    assert capsys.readouterr().err == "error: derivative order exceeds cap 4\n"


@pytest.mark.parametrize("obj", [
    {"kernel": GAUSS_SCALAR, "points": [[0.0], [0.1]], "targets": {"re": [[1.0], [0.5]]}},
    {"kernel": GAUSS_SCALAR, "data": [
        {"x": [0.0], "alpha": [1], "target": {"re": [1.0]}},
        {"x": [0.1], "alpha": [1], "target": {"re": [0.5]}},
    ]},
    {"experiment": "sin-cos"},
])
def test_interp_honours_duplicate_tolerance(tmp_path, capsys, obj):
    """Points 0.1 apart solve at the default tolerance and are refused at
    --tol duplicate=0.5, as gram refuses them."""
    code, rep = run(tmp_path, ["interp"], obj)
    assert code == 0 and rep["tolerances"]["duplicate"] == 1e-12
    (tmp_path / "wide").mkdir()
    code, rep = run(tmp_path / "wide", ["interp", "--tol", "duplicate=0.5"], obj)
    err = capsys.readouterr().err
    assert code == 2 and rep is None
    assert err.startswith("error: ") and err.count("\n") == 1


def test_interp_default_ridge_survives_trace_overflow(tmp_path, capsys):
    """A Gram diagonal of 1e308 at two points overflows the trace; the
    default ridge is then 1e-10 times the mean of the diagonal. This once
    printed a RuntimeWarning and exited 2 with "ridge must be finite"."""
    kernel = {**GAUSS_SCALAR, "measure": {"dim": 1, "atoms": [{"omega": 1.0, "G": {"re": [[1e308]]}}]}}
    obj = {"kernel": kernel, "points": [[0.0], [1.0]], "targets": {"re": [[1.0], [2.0]]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, ["interp"], obj)
    assert code == 0 and capsys.readouterr().err == "" and not caught
    assert rep["result"]["ridge"] == 1e-10 * 1e308
    assert rep["result"]["residual"] <= 1e-15


def test_interp_residual_stays_finite(tmp_path, capsys):
    """Targets of +-1e308 solve to coefficients near the float maximum; the
    residual's block norms are taken without overflow. This once printed a
    RuntimeWarning and wrote "residual": Infinity, which is not JSON."""
    obj = {"kernel": GAUSS_SCALAR, "points": [[0.0], [1.0]], "targets": {"re": [[1e308], [-1e308]]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, ["interp"], obj)
    assert code == 0 and capsys.readouterr().err == "" and not caught
    rep = json.loads((tmp_path / "out.json").read_text(), parse_constant=lambda c: pytest.fail(f"report has {c}"))
    assert 0.0 <= rep["result"]["residual"] < math.inf


def _one_atom(family, key, value, g):
    return {"family": family, "measure": {"dim": 1, "atoms": [{key: value, "G": {"re": [[g]]}}]}, "ambient_dim": 1}


_TWO_HUGE_ATOMS = {
    "family": {"kind": "gaussian"},
    "measure": {"dim": 1, "atoms": [{"omega": w, "G": {"re": [[1e308]]}} for w in (1.0, 2.0)]},
    "ambient_dim": 1,
}


@pytest.mark.parametrize("command, obj, stage", [
    # the phase d . xi = 1e310 overflows
    ("gram", {"kernel": _one_atom({"kind": "plane_wave"}, "xi", [1e300], 1.0), "points": [[0.0], [1e10]]},
     "plane-wave phase"),
    # the fourth derivative (about 1e24) times G = 1e300 overflows
    ("deriv-gram", {"kernel": _one_atom({"kind": "gaussian"}, "omega", 1e3, 1e300), "points": [[0.0], [0.5]], "q": 4},
     "derivative kernel blocks"),
    ("interp", {"kernel": _one_atom({"kind": "gaussian"}, "omega", 1.0, 1e308), "data": [
        {"x": [0.0], "alpha": [0], "target": {"re": [0.0]}},
        {"x": [0.0], "alpha": [1], "target": {"re": [0.0]}},
        {"x": [1.0], "alpha": [0], "target": {"re": [0.0]}},
    ]}, "derivative kernel blocks"),
    # the jet coefficient (-i xi)^2 = -1e400 overflows
    ("deriv-gram", {"kernel": _one_atom({"kind": "plane_wave"}, "xi", [1e200], 1.0), "points": [[0.0], [1.0]], "q": 1},
     "derivative kernel blocks"),
    # two radial atoms of G = 1e308 sum to inf: eval once wrote Infinity and
    # exited 0, and classify once printed a RuntimeWarning
    ("eval", {"kernel": _TWO_HUGE_ATOMS, "x": [0.0], "y": [0.0]}, "kernel blocks"),
    ("eval", {"kernel": _TWO_HUGE_ATOMS, "t": 0.0}, "kernel blocks"),
    ("gram", {"kernel": _TWO_HUGE_ATOMS, "points": [[0.0], [1.0]]}, "kernel blocks"),
    ("interp", {"kernel": _TWO_HUGE_ATOMS, "points": [[0.0], [1.0]], "targets": {"re": [[1.0], [0.0]]}}, "kernel blocks"),
    ("probe", {"kernel": _TWO_HUGE_ATOMS, "n": 3, "trials": 2}, "kernel blocks"),
    ("classify", {**_TWO_HUGE_ATOMS, "n": 3, "trials": 2}, "total operator"),
])
def test_kernel_overflow_is_a_numerical_failure(tmp_path, capsys, command, obj, stage):
    """Finite input whose kernel values overflow exits 4 with one line naming
    the stage, and no numpy warning. These once printed RuntimeWarnings and
    exited 2 with "matrix has non-finite entries"."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, [command], obj)
    err = capsys.readouterr().err
    assert code == 4 and rep is None and not caught
    assert err.startswith(f"numerical failure: {stage}") and err.count("\n") == 1


_HUGE_GAUSS = _one_atom({"kind": "gaussian"}, "omega", 1.0, 1e308)
_CLOSE = [[0.0], [1e-5]]


@pytest.mark.parametrize("command, obj, stage", [
    # a Gram trace of about 3e308 made the scale max(1, trace) inf, so any
    # lambda_min passed "lambda_min <= tol * scale": probe exited 3, and
    # classify exited 0 with "consistent": false
    ("probe", {"kernel": _HUGE_GAUSS, "n": 3, "trials": 2}, "PSD check: the trace overflows"),
    ("classify", {**_HUGE_GAUSS, "n": 3, "trials": 2}, "PSD check: the trace overflows"),
    # lambda_max = 2e308 came back inf and its residual NaN, which passed
    ("gram", {"kernel": _HUGE_GAUSS, "points": _CLOSE}, "eigendecomposition: an eigenvalue overflows"),
    # ||M||_F = 2e308 made the Cholesky residual bound inf
    ("interp", {"kernel": _HUGE_GAUSS, "points": _CLOSE, "targets": {"re": [[1.0], [2.0]]}},
     "Cholesky factorization: the matrix norm overflows"),
    ("interp", {"kernel": _HUGE_GAUSS, "data": [{"x": x, "alpha": [0], "target": {"re": [1.0]}} for x in _CLOSE]},
     "Cholesky factorization: the matrix norm overflows"),
    # the atoms' PSD check sums the diagonal 1e308 + 1e308
    ("eval", {"kernel": {**GAUSS_IDENTITY2, "ambient_dim": 1, "measure": {"dim": 2, "atoms": [
        {"omega": 1.0, "G": {"re": [[1e308, 0.0], [0.0, 1e308]]}}]}}, "x": [0.0], "y": [1.0]},
     "PSD check: the trace overflows"),
])
def test_eigensolve_overflow_is_a_numerical_failure(tmp_path, capsys, command, obj, stage):
    """An eigenvalue, trace or Cholesky scale past the float range exits 4
    with one line naming the stage. Each of these once exited 0 or 3 with
    RuntimeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(tmp_path, [command], obj)
    err = capsys.readouterr().err
    assert code == 4 and rep is None
    assert err.startswith(f"numerical failure: {stage}") and err.count("\n") == 1


def test_gram_of_two_far_huge_blocks_still_solves(tmp_path, capsys):
    """At distance 100 the Gram is diag(1e308, 1e308): its eigenvalues and
    Frobenius norm are finite, and gram reads no trace."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(tmp_path, ["gram"], {"kernel": _HUGE_GAUSS, "points": [[0.0], [100.0]]})
    assert code == 0 and capsys.readouterr().err == ""
    assert rep["result"]["min_eigenvalue"] == 1e308


def test_interp_unknown_experiment(tmp_path):
    code, _ = run(tmp_path, ["interp"], {"experiment": "nonexistent"})
    assert code == 2


# ---------------------------------------------------------------- monotone


def test_monotone_cm_pass(tmp_path):
    code, rep = run(tmp_path, ["monotone"], {"function": "exp-neg", "mode": "cm"})
    assert code == 0
    assert rep["result"]["ok"] is True
    assert rep["result"]["violation"] is None


def test_monotone_cm_violation(tmp_path):
    code, rep = run(tmp_path, ["monotone"], {"function": "two-plus-sin", "mode": "cm"})
    assert code == 3
    assert rep["result"]["violation"] == {"n": 1, "t": 0.5}


def test_monotone_williamson_ell_cm(tmp_path):
    obj = {
        "function": {"williamson": {"atoms": [[1.0, 1.0], [0.5, 2.0]], "ell": 3}},
        "mode": "ell-cm",
    }
    code, rep = run(tmp_path, ["monotone"], obj)
    assert code == 0
    assert rep["result"]["ok"] is True
    assert isinstance(rep["result"]["notes"], str)


def test_monotone_unknown_function(tmp_path):
    code, _ = run(tmp_path, ["monotone"], {"function": "sqrt", "mode": "cm"})
    assert code == 2


@pytest.mark.parametrize("num", [-1, 0])
def test_monotone_grid_num_below_one_exits_two(tmp_path, capsys, num):
    obj = {"function": "exp-neg", "mode": "cm", "grid": {"start": 0.5, "stop": 5.0, "num": num}}
    code, rep = run(tmp_path, ["monotone"], obj)
    err = capsys.readouterr().err
    assert code == 2 and rep is None
    assert err == f"error: grid 'num' must be >= 1, got {num}\n"


@pytest.mark.parametrize("num", [MAX_MONOTONE_GRID_NUM + 1, 10**12, 10**400])
def test_monotone_grid_num_above_cap_exits_two(tmp_path, capsys, monkeypatch, num):
    """A huge grid is refused before anything is allocated."""

    def no_linspace(*args, **kwargs):
        raise AssertionError("np.linspace reached")

    monkeypatch.setattr(np, "linspace", no_linspace)
    obj = {"function": "exp-neg", "mode": "cm", "grid": {"start": 0.5, "stop": 5.0, "num": num}}
    code, rep = run(tmp_path, ["monotone"], obj)
    err = capsys.readouterr().err
    assert code == 2 and rep is None
    assert err == f"error: grid 'num' must be <= {MAX_MONOTONE_GRID_NUM}, got {num}\n"


@pytest.mark.parametrize("obj, depth", [
    ({"function": "two-plus-sin", "mode": "ell-cm", "ell": 3, "h": 1e308}, 3),
    ({"function": "exp-neg", "mode": "cm", "grid": {"start": 1e308, "stop": 1.7e308, "num": 10}, "h": 1e307}, 6),
])
def test_monotone_stencil_past_the_float_range_exits_two(tmp_path, capsys, obj, depth):
    """Both once passed with "ok": true, printing RuntimeWarnings from
    sin(inf) or an overflowing scalar add."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, ["monotone"], obj)
    err = capsys.readouterr().err
    assert code == 2 and rep is None and not caught
    assert err == f"error: the difference stencil reaches t_max + {depth}*h = inf; shrink h or the grid\n"


def _williamson(atoms, mode):
    return {"function": {"williamson": {"atoms": atoms, "ell": 3}}, "mode": mode}


@pytest.mark.parametrize("atoms, mode, stage", [
    # f = 1e308 is constant, but its second difference 1e308 - 2e308 + 1e308 overflows
    ([[0.0, 1e308]], "cm", "forward difference of order 2 overflows the float range"),
    # f = 2e308 overflows
    ([[0.0, 1e308], [0.0, 1e308]], "cm", "function values on the difference stencil are not finite"),
    ([[0.0, 1e308], [0.0, 1e308]], "ell-cm", "function values on the difference stencil are not finite"),
])
def test_monotone_overflowing_mixture_is_a_numerical_failure(tmp_path, capsys, atoms, mode, stage):
    """The first once exited 3 ("not completely monotone") with a
    RuntimeWarning; the other two exited 0 with "ok": true and "tolerance":
    Infinity, which is not JSON, and printed warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(tmp_path, ["monotone"], _williamson(atoms, mode))
    assert code == 4 and rep is None
    assert capsys.readouterr().err == f"numerical failure: {stage}\n"


@pytest.mark.parametrize("atoms, mode, tolerance", [
    ([[0.0, 1e308]], "ell-cm", 1e300),  # the ell-cm differences of a constant stay finite
    ([[1e308, 1e308]], "cm", 0.0),  # r * t overflows, so f = 0 on the grid
    ([[1e308, 1e308]], "ell-cm", 0.0),
])
def test_monotone_large_mixture_passes_without_warning(tmp_path, capsys, atoms, mode, tolerance):
    """[[1e308, 1e308]] once warned from r * t."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, ["monotone"], _williamson(atoms, mode))
    assert code == 0 and capsys.readouterr().err == ""
    rep = json.loads((tmp_path / "out.json").read_text(), parse_constant=lambda c: pytest.fail(f"report has {c}"))
    assert rep["result"]["ok"] is True and rep["result"]["tolerance"] == tolerance


# ---------------------------------------------------------------- probe


def test_probe_strict(tmp_path):
    code, rep = run(tmp_path, ["probe"], {"kernel": GAUSS_IDENTITY2, "trials": 8})
    assert code == 0
    assert rep["result"]["verdict"] == "NoViolationFound"


def test_probe_degenerate(tmp_path):
    code, rep = run(tmp_path, ["probe"], {"kernel": GAUSS_RANK_DEFICIENT, "trials": 8})
    assert code == 3
    assert rep["result"]["violation"]["trial"] == 0


@pytest.mark.parametrize("n", [MAX_PROBE_N + 1, 100_000])
@pytest.mark.parametrize("command", ["probe", "classify"])
def test_probe_design_size_above_cap_exits_two(tmp_path, capsys, monkeypatch, command, n):
    """A huge probe design is refused before any design is drawn."""

    def no_design(*args, **kwargs):
        raise AssertionError("_seeded_design reached")

    monkeypatch.setattr(certify, "_seeded_design", no_design)
    obj = {"kernel": GAUSS_SCALAR, "n": n} if command == "probe" else {**GAUSS_SCALAR, "n": n}
    code, rep = run(tmp_path, [command], obj)
    err = capsys.readouterr().err
    assert code == 2 and rep is None
    assert err == f"error: need 2 <= n <= {MAX_PROBE_N} points and trials >= 1\n"


@pytest.mark.parametrize("order", [MAX_DIFFERENCE_ORDER + 1, 10**9])
@pytest.mark.parametrize("mode, field, low", [("cm", "nmax", 0), ("ell-cm", "ell", 2)])
def test_monotone_difference_order_above_cap_exits_two(tmp_path, capsys, monkeypatch, mode, field, low, order):
    """A huge difference order is refused before its value table is built."""

    def no_table(*args, **kwargs):
        raise AssertionError("np.empty reached")

    monkeypatch.setattr(np, "empty", no_table)
    obj = {"function": "exp-neg", "mode": mode, field: order, "h": 1e-12}
    code, rep = run(tmp_path, ["monotone"], obj)
    err = capsys.readouterr().err
    assert code == 2 and rep is None
    assert err == f"error: {field} must be an integer in [{low}, {MAX_DIFFERENCE_ORDER}]\n"


def test_monotone_williamson_ell_past_the_cap_exits_two(tmp_path, capsys):
    """The exponent ell - 1 of a Williamson truncated power enters float
    arithmetic, as askey's does: ell = 10**400 ended in an OverflowError
    traceback (exit 1), and 10**7 exited 0. At the askey cap it runs; past
    it the function is refused with one line."""
    def obj(ell):
        return {"function": {"williamson": {"atoms": [[1.0, 1.0]], "ell": ell}}, "mode": "cm"}

    code, rep = run(tmp_path, ["monotone"], obj(MAX_ASKEY_ELL))
    assert code == 0 and rep["result"]["ok"]
    for ell in (MAX_ASKEY_ELL + 1, 10**400):
        assert _refused_small(tmp_path, ["monotone"], obj(ell)) < 2**20
        assert capsys.readouterr().err == f"error: ell must be an integer in [2, {MAX_ASKEY_ELL}]\n"


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def _probe_obj(command, kernel, **fields):
    return {"kernel": kernel, **fields} if command == "probe" else {**kernel, **fields}


@pytest.mark.parametrize("command", ["probe", "classify"])
@pytest.mark.parametrize("field, cap, message", [
    ("trials", MAX_PROBE_TRIALS, f"need trials <= {MAX_PROBE_TRIALS}"),
    ("ambient_dim", MAX_PROBE_DIM, f"need ambient dimension <= {MAX_PROBE_DIM} for a probe design"),
])
def test_probe_trials_and_dimension_caps(tmp_path, capsys, monkeypatch, command, field, cap, message):
    """At the cap the design is drawn; above it, and at 1e9, the input is
    refused with one error line before any design exists."""
    monkeypatch.setattr(certify, "_seeded_design", _reached)

    def obj(value):
        if field == "trials":
            return _probe_obj(command, GAUSS_SCALAR, trials=value)
        return _probe_obj(command, dict(GAUSS_SCALAR, ambient_dim=value))

    with pytest.raises(_Reached):
        run(tmp_path, [command], obj(cap))
    for value in (cap + 1, 10**9):
        code, rep = run(tmp_path, [command], obj(value))
        assert code == 2 and rep is None
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["probe", "classify"])
def test_probe_box_cap(tmp_path, capsys, monkeypatch, command):
    """At the cap the design is drawn; above it, and at 1e308 (where the
    draw's width 2 * box overflowed with a traceback), the box is refused
    with one error line and no warning before any design exists."""
    monkeypatch.setattr(certify, "_seeded_design", _reached)
    with pytest.raises(_Reached):
        run(tmp_path, [command], _probe_obj(command, GAUSS_SCALAR, box=MAX_PROBE_BOX))
    for box in (math.nextafter(MAX_PROBE_BOX, math.inf), 1e308):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rep = run(tmp_path, [command], _probe_obj(command, GAUSS_SCALAR, box=box))
        assert code == 2 and rep is None and not caught
        assert capsys.readouterr().err == f"error: need box <= {MAX_PROBE_BOX:g}\n"


def _line(n, m):
    """n distinct points on a line in R^m."""
    pts = np.zeros((n, m))
    pts[:, 0] = np.arange(n)
    return pts.tolist()


@pytest.mark.parametrize("points, q, rows", [
    (_line(683, 2), 1, 683 * 3),  # cap + 1
    (_line(1, 200), 4, math.comb(204, 4)),  # one 200-coordinate point, about 6.9e7 rows
    (_line(1, 1000), 4, math.comb(1004, 4)),  # over 1e9 rows
])
def test_deriv_gram_row_cap_refuses_before_enumerating(tmp_path, capsys, monkeypatch, points, q, rows):
    monkeypatch.setattr(kernel_module, "multi_indices_up_to", _reached)
    obj = {"kernel": dict(GAUSS_SCALAR, ambient_dim=len(points[0])), "points": points, "q": q}
    code, rep = run(tmp_path, ["deriv-gram"], obj)
    assert code == 2 and rep is None
    err = capsys.readouterr().err
    assert err == f"error: derivative Gram would have {rows} rows; need <= {MAX_GRAM_ROWS}\n"


def test_deriv_gram_jet_tables_refused_before_allocating(tmp_path, capsys, monkeypatch):
    """1024 points (m = 1, q = 1) against 60 atoms would need jet tables of
    3 gammas x 524,800 pairs i <= j x 60 atoms (240 MiB per gamma):
    deriv_diffs refuses them with exit 2 before it allocates anything (the
    command once ran out of memory)."""
    original, peaks = kernel_module.OperatorKernel.deriv_diffs, []

    def measured(self, gammas, diffs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return original(self, gammas, diffs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    monkeypatch.setattr(kernel_module.OperatorKernel, "deriv_diffs", measured)
    measure = {"dim": 1, "atoms": [{"omega": 1.0 + j, "G": {"re": [[1.0]]}} for j in range(60)]}
    obj = {"kernel": dict(GAUSS_SCALAR, measure=measure), "points": _line(1024, 1), "q": 1}
    tracemalloc.start()
    try:
        code, rep = run(tmp_path, ["deriv-gram"], obj)
    finally:
        tracemalloc.stop()
    assert code == 2 and rep is None
    entries = 3 * (1024 * 1025 // 2) * 60
    assert capsys.readouterr().err == (
        f"error: jet tables would hold {entries} entries (gammas x pairs x atoms); need <= {MAX_JET_TABLE_ENTRIES}\n"
    )
    assert len(peaks) == 1 and peaks[0] < 2**16


@pytest.mark.parametrize("family, key, scales", [
    ("gaussian", "omega", (1.0, 2.0)),
    ("plane_wave", "xi", ([1.0], [2.0])),
])
def test_jet_table_cap_both_sides(monkeypatch, family, key, scales):
    """Two points, q = 1 (gammas 0, 1, 2) and two atoms: 3 gammas x 3 pairs
    i <= j x 2 atoms = 18 entries pass a cap of 18 and are refused at 17."""
    atoms = [{key: w, "G": {"re": [[1.0]]}} for w in scales]
    k = kernel_from_json({"family": {"kind": family}, "measure": {"dim": 1, "atoms": atoms}, "ambient_dim": 1})
    monkeypatch.setattr(kernel_module, "MAX_JET_TABLE_ENTRIES", 18)
    deriv_gram(k, np.array([[0.0], [0.5]]), q=1)
    monkeypatch.setattr(kernel_module, "MAX_JET_TABLE_ENTRIES", 17)
    with pytest.raises(InvalidParameter, match="jet tables would hold 18 entries"):
        deriv_gram(k, np.array([[0.0], [0.5]]), q=1)


def test_deriv_gram_row_cap_admits_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel_module, "multi_indices_up_to", _reached)
    assert MAX_GRAM_ROWS % 2 == 0
    obj = {"kernel": GAUSS_SCALAR, "points": _line(MAX_GRAM_ROWS // 2, 1), "q": 1}
    with pytest.raises(_Reached):
        run(tmp_path, ["deriv-gram"], obj)


def _gram_fields(n):
    return {"points": _line(n, 1)}


def _interp_fields(n):
    return {"points": _line(n, 1), "targets": {"re": [[0.0]] * n}}


def _hermite_fields(n):
    return {"data": [{"x": [float(i)], "alpha": [0], "target": {"re": [0.0]}} for i in range(n)]}


@pytest.mark.parametrize("argv, fields, what", [
    (["gram"], _gram_fields, "block Gram"),
    (["interp"], _interp_fields, "block Gram"),
    (["interp"], _hermite_fields, "derivative Gram"),
], ids=["gram", "interp", "hermite"])
def test_gram_row_cap_both_sides(tmp_path, capsys, monkeypatch, argv, fields, what):
    """A Gram of MAX_GRAM_ROWS rows reaches the pairwise pass; one row more
    is refused with one line before the pass."""
    monkeypatch.setattr(kernel_module, "pair_diffs", _reached)
    with pytest.raises(_Reached):
        run(tmp_path, argv, {"kernel": GAUSS_SCALAR, **fields(MAX_GRAM_ROWS)})
    code, rep = run(tmp_path, argv, {"kernel": GAUSS_SCALAR, **fields(MAX_GRAM_ROWS + 1)})
    assert code == 2 and rep is None
    assert capsys.readouterr().err == f"error: {what} would have {MAX_GRAM_ROWS + 1} rows; need <= {MAX_GRAM_ROWS}\n"


def test_pair_diff_cap_both_sides(tmp_path, capsys, monkeypatch):
    """The probe's own caps sit exactly at the bound on n^2 * m: a design of
    MAX_PROBE_N points in R^MAX_PROBE_DIM reaches the pairwise pass, and as
    many points in one more dimension are refused before it."""
    assert MAX_PROBE_N**2 * MAX_PROBE_DIM == MAX_PAIR_DIFF_ENTRIES
    for module in (kernel_module, certify):  # the probe's drawer takes its pass in certify
        monkeypatch.setattr(module, "pair_diffs", _reached)
    with pytest.raises(_Reached):
        run(tmp_path, ["probe"], _probe_obj("probe", dict(GAUSS_SCALAR, ambient_dim=MAX_PROBE_DIM), n=MAX_PROBE_N))
    m = MAX_PROBE_DIM + 1
    obj = {"kernel": dict(GAUSS_SCALAR, ambient_dim=m), "points": _line(MAX_PROBE_N, m)}
    code, rep = run(tmp_path, ["gram"], obj)
    assert code == 2 and rep is None
    assert capsys.readouterr().err == (
        f"error: pairwise differences would hold {MAX_PROBE_N**2 * m} floats (n^2 x m); need <= {MAX_PAIR_DIFF_ENTRIES}\n"
    )
    k = kernel_from_json(dict(GAUSS_SCALAR, ambient_dim=2))
    monkeypatch.setattr(kernel_module, "MAX_PAIR_DIFF_ENTRIES", 18)
    with pytest.raises(_Reached):
        kernel_module.gram(k, np.array(_line(3, 2)))
    monkeypatch.setattr(kernel_module, "MAX_PAIR_DIFF_ENTRIES", 17)
    with pytest.raises(InvalidParameter, match="pairwise differences would hold 18 floats"):
        kernel_module.gram(k, np.array(_line(3, 2)))


def _identity_kernel(family, dim, m):
    key, scale = ("xi", [1.0] * m) if family == "plane_wave" else ("omega", 1.0)
    atom = {key: scale, "G": {"re": np.eye(dim).tolist()}}
    return {"family": {"kind": family}, "ambient_dim": m, "measure": {"dim": dim, "atoms": [atom]}}


@pytest.mark.parametrize("argv, obj, rows, entry", [
    (["gram"], {"kernel": _identity_kernel("gaussian", 256, 1), "points": _line(64, 1)}, 64 * 256, (kernel_module, "_check_points")),
    (["gram"], {"kernel": _identity_kernel("gaussian", 1, 1), "points": _line(20000, 1)}, 20000, (kernel_module, "_check_points")),
    (["probe"], {"kernel": _identity_kernel("plane_wave", 256, 2), "n": 64, "trials": 2}, 64 * 256, (certify, "_seeded_design")),
    (["classify"], {**_identity_kernel("gaussian", 256, 2), "n": 64, "trials": 2}, 64 * 256, (certify, "_seeded_design")),
], ids=["gram-dim256", "gram-20000-points", "probe-plane-wave-dim256", "classify-dim256"])
def test_large_block_grams_refused_before_allocating(tmp_path, capsys, monkeypatch, argv, obj, rows, entry):
    """Each of these once ended in an _ArrayMemoryError traceback (exit 1)
    while it allocated 2 to 4 GiB; from the point check (or the probe's
    design draw) on, less than 1 MiB is allocated before the one-line
    refusal."""
    (module, name), peaks = entry, []
    original = getattr(module, name)

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    monkeypatch.setattr(module, name, measured)
    tracemalloc.start()
    try:
        code, rep = run(tmp_path, argv, obj)
    finally:
        tracemalloc.stop()
    assert code == 2 and rep is None
    assert capsys.readouterr().err == f"error: block Gram would have {rows} rows; need <= {MAX_GRAM_ROWS}\n"
    assert len(peaks) == 1 and peaks[0] < 2**20


@pytest.mark.parametrize("h", [1e-2, 1e-3])
@pytest.mark.parametrize("function, mode, field", [
    ("exp-neg", "cm", "nmax"),
    ("inv-1p", "cm", "nmax"),
    ("exp-neg", "ell-cm", "ell"),
    ({"williamson": {"atoms": [[1.0, 1.0], [0.5, 0.5]], "ell": MAX_DIFFERENCE_ORDER}}, "ell-cm", "ell"),
])
def test_monotone_order_cap_is_above_roundoff(tmp_path, function, mode, field, h):
    """Exactly completely or ell-monotone functions pass at the largest
    admitted order on the default grid (at 64, roundoff failed them)."""
    obj = {"function": function, "mode": mode, field: MAX_DIFFERENCE_ORDER, "h": h}
    code, rep = run(tmp_path, ["monotone"], obj)
    assert code == 0 and rep["result"]["ok"] is True


# ---------------------------------------------------------------- errors and flags


def test_non_utf8_input_exits_two(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(b'{"kernel": "\xff"}')
    assert main(["probe", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input is not valid JSON: ") and err.count("\n") == 1


def test_integer_past_the_digit_limit_exits_two(tmp_path, capsys):
    """Python parses no integer of more than 4300 digits; such an askey ell
    once ended in a ValueError traceback."""
    path = tmp_path / "in.json"
    kernel = json.dumps(dict(GAUSS_SCALAR, family={"kind": "askey", "ell": 0})).replace('"ell": 0', '"ell": 1' + "0" * 5000)
    path.write_text('{"kernel": %s, "t": 0.5}' % kernel)
    assert main(["eval", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input is not valid JSON: ") and err.count("\n") == 1


def test_deeply_nested_input_exits_two(tmp_path, capsys):
    """100000 nested arrays once ended in a RecursionError traceback."""
    path = tmp_path / "in.json"
    path.write_text("[" * 100_000)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["probe", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: input JSON is nested too deeply to parse\n"
    assert not caught


def test_output_under_a_regular_file_exits_two(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    argv = ["gram", "--output", str(tmp_path / "file" / "x")]
    argv += ["--input", write_json(tmp_path, "in.json", {"kernel": GAUSS_SCALAR, "points": [[0.0]]})]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 20] Not a directory") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["probe", "--format", "csv"],
    ["classify", "--format", "json"],
    ["demo", "shifted-gaussian", "--input", "in.json"],
])
def test_flags_are_offered_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["demo", "radial-bump", "--grid-n", "abc"], "argument --grid-n: invalid int value: 'abc'"),
    (["probe", "--seed", "-1"], "argument --seed: must be >= 0"),
    ([], "the following arguments are required: command"),
], ids=["grid-n-abc", "negative-seed", "no-subcommand"])
def test_argument_errors_are_one_error_line(capsys, argv, message):
    """An argument argparse refuses exits 2 with one `error: ` line, as every
    other refused input does; it once wrote the usage block and a line
    "opkernel demo: error: ..."."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as info:
        main(["demo", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: opkernel demo [-h]") and "--grid-n GRID_N" in out.out and out.err == ""


def test_json_booleans_are_not_numbers(tmp_path, capsys):
    """numpy reads true as 1.0: the point [true] was once taken as x = 1."""
    code, rep = run(tmp_path, ["eval"], {"kernel": GAUSS_SCALAR, "x": [True], "y": [0.0]})
    assert code == 2 and rep is None
    assert capsys.readouterr().err == "error: 'x' must be a list of numbers\n"


def test_refused_values_are_quoted_on_one_line(tmp_path, capsys):
    """A refused string is quoted with its escapes, so a newline in it does
    not split the message (it once wrote two lines)."""
    obj = {"kernel": dict(GAUSS_SCALAR, family={"kind": "gauss\nian"}), "x": [0.0], "y": [0.0]}
    code, rep = run(tmp_path, ["eval"], obj)
    assert code == 2 and rep is None
    assert capsys.readouterr().err == "error: unknown family kind 'gauss\\nian'\n"


def _golden_input(name):
    return ["--input", str(GOLDEN / f"{name}.input.json")]


@pytest.mark.parametrize("argv, name, code", [
    (["probe", "--seed", "5", *_golden_input("probe_gaussian_rank_one")], "probe_gaussian_rank_one", 3),
    (["classify", "--seed", "2", *_golden_input("classify_omega3_strict")], "classify_omega3_strict", 0),
    (["demo", "shifted-gaussian", "--w", "1,0.5", "--seed", "3"], "demo_shifted_gaussian_1_0.5_3", 0),
    (["probe", "--seed", "3", *_golden_input("probe_gaussian_1d_n16")], "probe_gaussian_1d_n16", 3),
])
def test_strictness_reports_golden_bytes(capsys, argv, name, code):
    """A degenerate probe with its violation witness, a strict
    classification, a shifted-gaussian demo, and a strict 1-D probe whose
    first false violation (trial 40) sits in the second of its three chunks
    stay byte for byte the reports in tests/golden."""
    assert main(argv + ["--no-timestamp"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


# ---------------------------------------------------------------- one parser per process


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one main() call, argparse exits included."""
    try:
        code = main(argv + ["--no-timestamp"])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_shares_one_parser_and_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """Calls interleaved in one process, through the shared parser, give the
    bytes, exit codes and stderr of a freshly built parser per call: an
    override --tol followed by a call without it, an argparse error followed
    by a valid call, and every subcommand in turn."""
    classify = ["classify", "--seed", "2", *_golden_input("classify_omega3_strict")]
    calls = [
        classify + ["--tol", "psd=1e-6", "--tol", "probe=1e-9"],
        classify,
        ["probe", "--format", "csv"],
        ["probe", "--seed", "5", *_golden_input("probe_gaussian_rank_one")],
        ["classify", "--tol", "bogus=1", *_golden_input("classify_omega3_strict")],
        ["eval", "--input", write_json(tmp_path, "eval.json", {"kernel": GAUSS_SCALAR, "x": [1.0], "y": [0.0]})],
        ["gram", "--input", write_json(tmp_path, "gram.json", {"kernel": GAUSS_COMPLEX2, "points": POINTS2})],
        ["deriv-gram", *_golden_input("deriv_gram_gaussian_m2_q2")],
        ["demo", "shifted-gaussian", "--w", "1,0.5", "--seed", "3"],
        ["demo", "radial-bump", "--grid-n", "256", "--box", "1.5"],
        ["interp", *_golden_input("interp_hermite_gaussian_m2")],
        ["monotone", "--input", write_json(tmp_path, "mono.json", {"function": "exp-neg", "mode": "cm"})],
        ["gram", "--help"],
        ["demo"],
        ["demo", "shifted-gaussian"],
    ]
    shared = [_outcome(capsys, argv) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert [_outcome(capsys, argv) for argv in calls] == shared
    assert [code for code, _, _ in shared] == [0, 0, 2, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0]
    assert shared[0][1] != shared[1][1] and '"psd": 1e-10' in shared[1][1]


# ---------------------------------------------------------------- integer caps


def _refused_small(tmp_path, argv, obj):
    """Run a command that must be refused, and its traced allocation peak."""
    (tmp_path / "out.json").unlink(missing_ok=True)
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rep = run(tmp_path, argv, obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and rep is None and not caught
    return peak


@pytest.mark.parametrize("family, field, cap, past, message", [
    ("askey", "ell", MAX_ASKEY_ELL, [MAX_ASKEY_ELL + 1, 10**400], f"askey needs ell_smoothness <= {MAX_ASKEY_ELL}"),
    ("omega", "m", MAX_OMEGA_M, [MAX_OMEGA_M + 1, 10**5, 10**400], f"omega needs m_source <= {MAX_OMEGA_M}"),
])
def test_family_parameter_cap(tmp_path, capsys, family, field, cap, past, message):
    """At the cap the kernel evaluates, at w * t = 1e4 for omega; past it,
    and at 10**400 (which ended in an OverflowError traceback), the family
    is refused with one line. Omega m = 100000 at w * t = 9999 printed two
    RuntimeWarnings and gave 0.0 for 6.3e-219."""
    def obj(value, y=0.5):
        kernel = dict(GAUSS_SCALAR, family={"kind": family, field: value})
        return {"kernel": kernel, "x": [0.0], "y": [y]}

    for y in (0.5, 1e4):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rep = run(tmp_path, ["eval"], obj(cap, y))
        assert code == 0 and abs(rep["result"]["matrix"]["re"][0][0]) <= 1.0 and not caught
    for value in past:
        assert _refused_small(tmp_path, ["eval"], obj(value, 9999.0)) < 2**20
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kernel", [GAUSS_SCALAR, PLANE_WAVE_SCALAR])
def test_measure_dim_cap(tmp_path, capsys, kernel):
    """A measure with no atoms at the cap is built; past it, and at 10**6
    (which once raised a 7.28 TiB MemoryError), the descriptor is refused
    with one line before any matrix is allocated."""
    assert OperatorMeasure(MAX_MEASURE_DIM).dim == MAX_MEASURE_DIM
    assert kernel_module.PlaneWaveMeasure(MAX_MEASURE_DIM, 1).dim == MAX_MEASURE_DIM
    for dim in (MAX_MEASURE_DIM + 1, 10**6):
        obj = {"kernel": dict(kernel, measure={"dim": dim, "atoms": []}), "points": [[0.0], [1.0]]}
        assert _refused_small(tmp_path, ["gram"], obj) < 2**20
        assert capsys.readouterr().err == f"error: need dim <= {MAX_MEASURE_DIM}\n"


@pytest.mark.parametrize("kernel, argv, fields", [
    (GAUSS_SCALAR, ["eval"], {"t": 0.5}),
    (dict(PLANE_WAVE_SCALAR, measure={"dim": 1, "atoms": []}), ["gram"], {"points": [[0.0]]}),
])
def test_ambient_dim_cap(tmp_path, capsys, kernel, argv, fields):
    """A radial evaluation at t and a plane-wave measure at the cap run; past
    it, and at 10**8 (where eval --t allocated 800 MB and exited 0), they are
    refused with one line before the coordinates are allocated."""
    def obj(m):
        out = {"kernel": dict(kernel, ambient_dim=m), **fields}
        if "points" in out:  # past the cap the measure is refused before the points are read
            out["points"] = [[0.0] * min(m, MAX_AMBIENT_DIM)]
        return out

    code, rep = run(tmp_path, argv, obj(MAX_AMBIENT_DIM))
    assert code == 0
    for m in (MAX_AMBIENT_DIM + 1, 10**8):
        assert _refused_small(tmp_path, argv, obj(m)) < 2**20
        assert capsys.readouterr().err == f"error: need ambient dimension <= {MAX_AMBIENT_DIM}\n"


# ---------------------------------------------------------------- malformed input


def _with_g(kernel, **g):
    """The kernel descriptor with its first atom's G replaced by g."""
    kernel = json.loads(json.dumps(kernel))
    kernel["measure"]["atoms"][0]["G"] = g
    return kernel


def _with_dim(kernel, dim):
    kernel = json.loads(json.dumps(kernel))
    kernel["measure"]["dim"] = dim
    return kernel


def _hermite(alpha=(0,), target=1.0, data=None):
    datum = {"x": [0.0], "alpha": list(alpha), "target": {"re": [target]}}
    return {"kernel": GAUSS_SCALAR, "data": [datum] if data is None else data}


_EVAL_AT = {"x": [0.0], "y": [1.0]}
INF = 1e400  # json.dumps writes Infinity, and 1e400 as JSON text parses to inf too

MALFORMED = {
    "radial-re-string": (["eval"], dict(_EVAL_AT, kernel=_with_g(GAUSS_SCALAR, re="abc"))),
    "plane-wave-re-string": (["eval"], dict(_EVAL_AT, kernel=_with_g(PLANE_WAVE_SCALAR, re="abc"))),
    "radial-re-ragged": (["eval"], dict(_EVAL_AT, kernel=_with_g(GAUSS_SCALAR, re=[[1.0], []]))),
    "plane-wave-re-ragged": (["eval"], dict(_EVAL_AT, kernel=_with_g(PLANE_WAVE_SCALAR, re=[[1.0], []]))),
    "radial-im-string": (["eval"], dict(_EVAL_AT, kernel=_with_g(GAUSS_SCALAR, re=[[1.0]], im="x"))),
    "plane-wave-im-string": (["eval"], dict(_EVAL_AT, kernel=_with_g(PLANE_WAVE_SCALAR, re=[[1.0]], im="x"))),
    "radial-re-infinite": (["eval"], dict(_EVAL_AT, kernel=_with_g(GAUSS_SCALAR, re=[[INF]]))),
    "radial-dim-fraction": (["eval"], dict(_EVAL_AT, kernel=_with_dim(GAUSS_SCALAR, 1.7))),
    "radial-dim-bool": (["eval"], dict(_EVAL_AT, kernel=_with_dim(GAUSS_SCALAR, True))),
    "plane-wave-dim-fraction": (["eval"], dict(_EVAL_AT, kernel=_with_dim(PLANE_WAVE_SCALAR, 1.7))),
    "plane-wave-dim-bool": (["eval"], dict(_EVAL_AT, kernel=_with_dim(PLANE_WAVE_SCALAR, True))),
    "hermite-alpha-fraction": (["interp"], _hermite(alpha=(0.9,))),
    "hermite-alpha-not-list": (["interp"], dict(_hermite(), data=[{"x": [0.0], "alpha": "0", "target": {"re": [1.0]}}])),
    "hermite-data-not-list": (["interp"], _hermite(data=5)),
    "hermite-target-infinite": (["interp"], _hermite(target=INF)),
    "targets-infinite": (["interp"], {"kernel": GAUSS_SCALAR, "points": [[0.0]], "targets": {"re": [[INF]]}}),
    "eval-t-infinite": (["eval"], {"kernel": GAUSS_SCALAR, "t": INF}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two(tmp_path, capsys, case):
    """Each of these once ended in a traceback, a silent cast or a NaN
    report; now each is refused with exit 2 and one error line."""
    argv, obj = MALFORMED[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, argv, obj)
    err = capsys.readouterr().err
    assert code == 2 and rep is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err and not caught


def test_json_infinity_literal_refused(tmp_path, capsys):
    """1e400 in the JSON text itself (not written by json.dumps)."""
    path = tmp_path / "in.json"
    path.write_text('{"kernel": %s, "points": [[0.0]], "targets": {"re": [[1e400]]}}' % json.dumps(GAUSS_SCALAR))
    assert main(["interp", "--input", str(path), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["probe", "classify"])
@pytest.mark.parametrize("box", [float("nan"), float("inf"), -1.0, 0.0])
def test_bad_box_exits_two(tmp_path, capsys, command, box):
    obj = {"kernel": GAUSS_IDENTITY2} if command == "probe" else dict(GAUSS_IDENTITY2)
    obj.update(n=3, trials=2, box=box)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(tmp_path, [command], obj)
    err = capsys.readouterr().err
    assert code == 2 and rep is None
    assert err.startswith("error: ") and "box" in err
    assert "Traceback" not in err and "DuplicatePoints" not in err and not caught


# ---------------------------------------------------------------- report bytes

GAUSS_COMPLEX2 = {
    "family": {"kind": "gaussian"},
    "measure": {
        "dim": 2,
        "atoms": [
            {"omega": 0.7, "G": {"re": [[2.0, 0.5], [0.5, 1.0]], "im": [[0.0, 0.3], [-0.3, 0.0]]}},
            {"omega": 1.9, "G": {"re": [[1.0, 0.0], [0.0, 0.5]]}},
        ],
    },
    "ambient_dim": 2,
}
POINTS2 = [[0.0, 0.0], [0.5, -0.25], [-1.0, 0.75]]
REPORTS = {
    "gram": (["gram"], {"kernel": GAUSS_COMPLEX2, "points": POINTS2}),
    "deriv-gram": (["deriv-gram"], {"kernel": GAUSS_COMPLEX2, "points": POINTS2, "q": 1}),
    "classify": (["classify"], GAUSS_COMPLEX2),
    "demo-shifted-gaussian": (["demo", "shifted-gaussian", "--w", "1,0.5"], None),
    "demo-radial-bump": (["demo", "radial-bump", "--grid-n", "128"], None),
    "interp": (
        ["interp"],
        {"kernel": GAUSS_SCALAR, "points": [[-1.0], [0.0], [1.0]], "targets": {"re": [[0.5], [1.0], [-0.5]]}},
    ),
}


def _is_stdlib_report(text):
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_is_stdlib_indent_sort_keys(tmp_path, case):
    argv, obj = REPORTS[case]
    code, rep = run(tmp_path, argv, obj)
    assert code == 0 and rep is not None
    assert _is_stdlib_report((tmp_path / "out.json").read_text())


def test_deriv_gram_csv_cells_are_exact_entries(tmp_path):
    obj = {"kernel": GAUSS_COMPLEX2, "points": POINTS2, "q": 1}
    out = tmp_path / "g.csv"
    argv = ["deriv-gram", "--format", "csv", "--output", str(out), "--no-timestamp"]
    assert main(argv + ["--input", write_json(tmp_path, "in.json", obj)]) == 0
    assert _is_stdlib_report((tmp_path / "g.csv.meta.json").read_text())
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    cells = np.array([[float(c) for c in row] for row in rows])
    want = deriv_gram(kernel_from_json(GAUSS_COMPLEX2), np.array(POINTS2), 1).matrix.entries
    for got, part in ((cells[:, 0::2], want.real), (cells[:, 1::2], want.imag)):
        assert np.array_equal(got, part) and np.array_equal(np.signbit(got), np.signbit(part))
    assert np.any(want.imag != 0.0)


# ---------------------------------------------------------------- tolerances


def test_tol_override_echoed(tmp_path):
    out = tmp_path / "out.json"
    argv = [
        "eval",
        "--input",
        write_json(tmp_path, "in.json", {"kernel": GAUSS_SCALAR, "t": 0.5}),
        "--output",
        str(out),
        "--no-timestamp",
        "--tol",
        "psd=1e-8",
    ]
    assert main(argv) == 0
    rep = json.loads(out.read_text())
    assert rep["tolerances"]["psd"] == 1e-8
    assert "probe" in rep["tolerances"]


def test_tol_unknown_name_rejected(tmp_path):
    argv = [
        "eval",
        "--input",
        write_json(tmp_path, "in.json", {"kernel": GAUSS_SCALAR, "t": 0.5}),
        "--tol",
        "bogus=1",
    ]
    assert main(argv) == 2


@pytest.mark.parametrize("tol", ["psd=nan", "duplicate=inf", "psd=-1"])
def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys, tol):
    """psd=nan once made a strictly PD gaussian NotStrictlyPD and wrote NaN
    into the report; duplicate=inf wrote Infinity; psd=-1 made every kernel
    strict."""
    obj = dict(GAUSS_SCALAR, n=3, trials=2)
    code, rep = run(tmp_path, ["classify", "--tol", tol], obj)
    err = capsys.readouterr().err
    name, _, value = tol.partition("=")
    assert code == 2 and rep is None
    assert err == f"error: --tol {name} must be finite and >= 0, got '{value}'\n"


def test_tol_zero_is_accepted(tmp_path):
    code, rep = run(tmp_path, ["classify", "--tol", "psd=0"], dict(GAUSS_SCALAR, n=3, trials=2))
    assert code == 0 and rep["tolerances"]["psd"] == 0.0


def test_tol_ridge_controls_interp(tmp_path):
    obj = {
        "kernel": GAUSS_SCALAR,
        "points": [[0.0], [1.0]],
        "targets": {"re": [[1.0], [0.0]]},
    }
    out = tmp_path / "out.json"
    argv = [
        "interp",
        "--input",
        write_json(tmp_path, "in.json", obj),
        "--output",
        str(out),
        "--no-timestamp",
        "--tol",
        "ridge=1e-6",
    ]
    assert main(argv) == 0
    assert json.loads(out.read_text())["result"]["ridge"] == 1e-6
