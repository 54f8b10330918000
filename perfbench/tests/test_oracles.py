"""The benchmark's output checks accept correct reports and reject known-bad ones.

Run with: python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import oracles  # noqa: E402
from workloads import Spec, kernel  # noqa: E402


def _cm(a):
    a = np.asarray(a, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def _check(tmp_path, spec, result, rc=0):
    out = tmp_path / "out.json"
    out.write_text(json.dumps({"result": result}))
    return oracles.check(spec, rc, None, str(out))


OMEGA3 = kernel("omega", {"dim": 1, "atoms": [{"omega": 1.0, "G": _cm([[1.0]])}]}, 1, 3)
GAUSS2 = kernel(
    "gaussian",
    {"dim": 2, "atoms": [{"omega": 0.7, "G": _cm([[2.0, 0.5j], [-0.5j, 1.0]])}]},
    2,
)
PLANE2 = kernel(
    "plane_wave",
    {"dim": 1, "atoms": [{"xi": [1.0, -0.5], "G": _cm([[1.0]])}, {"xi": [0.3, 2.0], "G": _cm([[0.5]])}]},
    2,
)


def test_omega_closed_forms_agree_with_the_series():
    t = np.array([0.0, 1e-3, 0.5, 0.999, 1.0, 3.0, 40.0])
    for m in (1, 3, 5):
        series = []
        for tv in t:
            term, acc = 1.0, 1.0
            for k in range(80):
                term *= -(tv * tv / 4) / ((k + 1) * (k + m / 2))
                acc += term
            series.append(acc)
        assert np.allclose(oracles.omega_closed(m, t)[:6], series[:6], atol=1e-13, rtol=0)
    assert oracles.omega_closed(3, [380.0])[0] == pytest.approx(math.sin(380.0) / 380.0)


def test_eval_rejects_the_seed_value_of_omega3_at_380(tmp_path):
    spec = Spec("eval", ["eval"], {"kernel": OMEGA3, "t": 380.0}, {"rc": 0})
    good = math.sin(380.0) / 380.0
    assert _check(tmp_path, spec, {"matrix": _cm([[good]])}) is None
    reason = _check(tmp_path, spec, {"matrix": _cm([[1.9e8]])})
    assert reason is not None and "closed form" in reason


def _gram_result(matrix, pts, ell, q=None):
    res = {
        "n_points": len(pts),
        "ell": ell,
        "min_eigenvalue": float(np.linalg.eigvalsh(matrix)[0]),
        "matrix": _cm(matrix),
    }
    if q is not None:
        res["multi_indices"] = [list(a) for a in oracles.multi_indices(len(pts[0]), q)]
    return res


@pytest.mark.parametrize("kern", [GAUSS2, PLANE2], ids=["gaussian", "plane_wave"])
def test_gram_accepts_reference_and_rejects_perturbed(tmp_path, kern):
    pts = np.array([[0.0, 0.0], [0.5, -0.2], [-0.7, 0.9]])
    spec = Spec("gram", ["gram"], {"kernel": kern, "points": pts.tolist()}, {"rc": 0})
    ref = oracles.reference_gram(kern, pts)
    ell = kern["measure"]["dim"]
    assert _check(tmp_path, spec, _gram_result(ref, pts, ell)) is None
    bad = ref.copy()
    bad[0, -1] += 1e-3
    bad[-1, 0] += 1e-3
    assert _check(tmp_path, spec, _gram_result(bad, pts, ell)) is not None
    indefinite = ref - 2 * np.eye(ref.shape[0]) * np.max(np.abs(ref))
    assert "not PSD" in _check(tmp_path, spec, _gram_result(indefinite, pts, ell))


@pytest.mark.parametrize("kern", [GAUSS2, PLANE2], ids=["gaussian", "plane_wave"])
def test_deriv_gram_rejects_a_sign_flip(tmp_path, kern):
    pts = np.array([[0.1, 0.0], [0.6, -0.4]])
    spec = Spec("deriv-gram", ["deriv-gram"], {"kernel": kern, "points": pts.tolist(), "q": 1}, {"rc": 0})
    ref = oracles.reference_deriv_gram(kern, pts, 1)
    ell = kern["measure"]["dim"]
    assert _check(tmp_path, spec, _gram_result(ref, pts, ell, q=1)) is None
    bad = ref.copy()
    r, c = 3 * ell, ell  # point 1 index 0 against point 0 index 1
    bad[r : r + ell, c : c + ell] *= -1
    bad[c : c + ell, r : r + ell] *= -1
    assert _check(tmp_path, spec, _gram_result(bad, pts, ell, q=1)) is not None


def test_reference_deriv_gram_matches_the_package():
    from opkernel.cli import kernel_from_json
    from opkernel.kernel import deriv_gram

    pts = np.array([[0.1, 0.0], [0.6, -0.4], [-0.3, 0.8]])
    for kern in (GAUSS2, PLANE2):
        got = deriv_gram(kernel_from_json(kern), pts, 2).matrix.entries
        assert np.allclose(got, oracles.reference_deriv_gram(kern, pts, 2), atol=1e-12)


def test_omega_deriv_gram_diagonal_moment(tmp_path):
    from opkernel.cli import kernel_from_json
    from opkernel.kernel import deriv_gram

    pts = np.array([[0.2], [0.9]])
    spec = Spec("deriv-gram", ["deriv-gram"], {"kernel": OMEGA3, "points": pts.tolist(), "q": 1}, {"rc": 0})
    mat = deriv_gram(kernel_from_json(OMEGA3), pts, 1).matrix.entries
    assert _check(tmp_path, spec, _gram_result(mat, pts, 1, q=1)) is None
    bad = mat.copy()
    bad[1, 1] *= 1.5  # d1 d2 K(x, x) of point 0
    bad[3, 3] *= 1.5
    assert "moment" in _check(tmp_path, spec, _gram_result(bad, pts, 1, q=1))


def test_classify_and_probe_verdicts(tmp_path):
    measure = {"dim": 1, "atoms": [{"omega": 1.0, "G": _cm([[2.0]])}]}
    desc = dict(kernel("gaussian", measure, 1), n=4, trials=10)
    spec = Spec("classify", ["classify"], desc, {"rc": 0, "verdict": "StrictlyPD_and_Universal"})
    good = {"verdict": "StrictlyPD_and_Universal", "consistent": True, "min_eigenvalue": 2.0}
    assert _check(tmp_path, spec, good) is None
    assert _check(tmp_path, spec, dict(good, consistent=False)) is not None
    assert _check(tmp_path, spec, dict(good, verdict="NotStrictlyPD")) is not None
    assert _check(tmp_path, spec, dict(good, min_eigenvalue=1.0)) is not None
    assert "exit code" in oracles.check(spec, 2, None, str(tmp_path / "missing.json"))
    assert "exception" in oracles.check(spec, None, "OverflowError: too large", "")

    pspec = Spec("probe", ["probe"], {"kernel": desc, "n": 4, "trials": 2},
                 {"rc": 0, "verdict": "NoViolationFound", "trials": 2})
    ok = {"verdict": "NoViolationFound", "min_eigenvalues": [0.5, 0.25], "global_min": 0.25}
    assert _check(tmp_path, pspec, ok) is None
    assert _check(tmp_path, pspec, dict(ok, verdict="ViolationFound")) is not None
    assert _check(tmp_path, pspec, dict(ok, global_min=0.5)) is not None


def test_interp_backward_error(tmp_path):
    pts = np.array([[0.0, 0.0], [0.5, -0.2], [-0.7, 0.9], [1.0, 1.0]])
    targets = np.arange(8, dtype=float).reshape(4, 2) + 0.5j
    spec = Spec("interp", ["interp"], {"kernel": GAUSS2, "points": pts.tolist(), "targets": _cm(targets)}, {"rc": 0})
    a = oracles.reference_gram(GAUSS2, pts)
    ridge = 1e-10
    c = np.linalg.solve(a + ridge * np.eye(8), targets.reshape(-1))

    def result(coef):
        return {
            "ridge": ridge,
            "coefficients": [
                {"alpha": [0, 0], "x": pts[i].tolist(), "v": _cm(coef[2 * i : 2 * i + 2])} for i in range(4)
            ],
        }

    assert _check(tmp_path, spec, result(c)) is None
    assert "backward error" in _check(tmp_path, spec, result(c * (1 + 1e-6)))


def test_interp_rejects_a_large_ridge_with_its_exact_solution(tmp_path):
    pts = np.array([[0.0, 0.0], [0.5, -0.2], [-0.7, 0.9], [1.0, 1.0]])
    targets = np.arange(8, dtype=float).reshape(4, 2) + 0.5j
    spec = Spec("interp", ["interp"], {"kernel": GAUSS2, "points": pts.tolist(), "targets": _cm(targets)}, {"rc": 0})
    a = oracles.reference_gram(GAUSS2, pts)
    default = 1e-10 * np.trace(a).real / 8

    def result(ridge):
        c = np.linalg.solve(a + ridge * np.eye(8), targets.reshape(-1))
        coefficients = [
            {"alpha": [0, 0], "x": pts[i].tolist(), "v": _cm(c[2 * i : 2 * i + 2])} for i in range(4)
        ]
        return {"ridge": ridge, "coefficients": coefficients}

    assert _check(tmp_path, spec, result(default)) is None
    assert "exceeds the default" in _check(tmp_path, spec, result(1e-3))
    # the targets check alone also rejects it
    big = result(1e-3)
    c = oracles._coefficients({"result": big})
    assert oracles._backward_error(a, c, targets.reshape(-1)) > oracles.INTERP_BACKWARD_TOL


def test_hermite_backward_error(tmp_path):
    kern = kernel("gaussian", {"dim": 1, "atoms": [{"omega": 1.0, "G": _cm([[1.0]])}]}, 1)
    data = [
        {"x": [0.0], "alpha": [0], "target": _cm([1.0])},
        {"x": [0.0], "alpha": [1], "target": _cm([0.0])},
        {"x": [0.8], "alpha": [0], "target": _cm([0.5])},
    ]
    spec = Spec("interp-hermite", ["interp"], {"kernel": kern, "data": data}, {"rc": 0})
    # d^a_1 d^b_2 exp(-(x-y)^2) at the data
    big = np.zeros((3, 3))
    for i, di in enumerate(data):
        for j, dj in enumerate(data):
            d = np.array([[di["x"][0] - dj["x"][0]]])
            g = (di["alpha"][0] + dj["alpha"][0],)
            big[i, j] = (-1) ** dj["alpha"][0] * oracles.partial_values(kern, d, g)[0, 0, 0].real
    t = np.array([1.0, 0.0, 0.5])
    c = np.linalg.solve(big, t)

    def result(coef):
        return {
            "ridge": 0.0,
            "coefficients": [{"alpha": d["alpha"], "x": d["x"], "v": _cm([coef[i]])} for i, d in enumerate(data)],
        }

    assert _check(tmp_path, spec, result(c)) is None
    assert _check(tmp_path, spec, result(c + np.array([0.0, 1e-3, 0.0]))) is not None
    ridge = 1e-2
    report = result(np.linalg.solve(big + ridge * np.eye(3), t))
    assert "exceeds the default" in _check(tmp_path, spec, dict(report, ridge=ridge))


def test_sin_cos_and_demos(tmp_path):
    spec = Spec("interp-sin-cos", ["interp"], {"experiment": "sin-cos"}, {"rc": 0})
    good = {"sup_errors": {"5": 1.7e-2, "20": 1.4e-6}, "residuals": {"5": 1e-14, "20": 1e-12}}
    assert _check(tmp_path, spec, good) is None
    assert _check(tmp_path, spec, dict(good, sup_errors={"5": 1.7e-2, "20": 1e-3})) is not None

    bump = Spec("demo-radial-bump", [], None, {"rc": 0, "grid_n": 512, "box": 4.0})
    ok = {"reproduced": True, "params": {"grid_n": 512, "box": 4.0}}
    assert _check(tmp_path, bump, ok) is None
    assert _check(tmp_path, bump, dict(ok, reproduced=False)) is not None

    shifted = Spec("demo-shifted-gaussian", [], None, {"rc": 0, "w": [1.0]})
    ok = {"reproduced": True, "mixed_form": 0.0, "params": {"w": [1.0]}}
    assert _check(tmp_path, shifted, ok) is None
    assert _check(tmp_path, shifted, dict(ok, mixed_form=1e-3)) is not None


def test_csv_gram_is_read_back(tmp_path):
    pts = np.array([[0.0, 0.0], [0.5, -0.2]])
    spec = Spec("gram", ["gram"], {"kernel": GAUSS2, "points": pts.tolist()}, {"rc": 0}, csv=True)
    ref = oracles.reference_gram(GAUSS2, pts)
    out = tmp_path / "g.csv"
    out.write_text("# header\n" + "\n".join(
        ",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row) for row in ref) + "\n")
    meta = _gram_result(ref, pts, 2)
    del meta["matrix"]
    (tmp_path / "g.csv.meta.json").write_text(json.dumps({"result": meta}))
    assert oracles.check(spec, 0, None, str(out)) is None
    out.write_text("# header\n" + "\n".join(
        ",".join(f"{-float(v.real)!r},{float(v.imag)!r}" for v in row) for row in ref) + "\n")
    assert oracles.check(spec, 0, None, str(out)) is not None
