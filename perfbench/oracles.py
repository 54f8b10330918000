"""Independent checks of command outputs, in numpy only.

Nothing here imports opkernel. Each check reads a report back from disk and
compares it with what the descriptor's construction implies, using its own
formulas: closed forms of Omega_m, Hermite-polynomial derivatives of the
gaussian, plane-wave phases and numpy's eigensolver. `check` returns None
for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from numpy.polynomial import hermite as _hermite

# Values computed two ways in float64 agree to about 1e-14 of their scale;
# these bounds leave five orders of magnitude for rounding and still reject
# any error a reader would call wrong.
VALUE_RTOL = 1e-9
# Grams must be PSD to this floor: eigvalsh >= -1e-10 * max(1, trace).
PSD_RTOL = 1e-10
# Normwise backward error ||(A + rI) c - t|| / (||A + rI|| ||c|| + ||t||) of an
# interpolation solve; a backward-stable Cholesky solve gives about n * 1e-16.
# The same bound holds for the residual against the targets, ||A c - t|| /
# (||A|| ||c|| + ||t||): a ridge r at most the default adds at most
# r / ||A||_F <= 1e-10 / sqrt(dim) to it.
INTERP_BACKWARD_TOL = 1e-10
# The ridge the package documents as its default, 1e-10 * trace(A) / dim(A),
# computed here from the reference system matrix. A reported ridge above it
# (with a little room for the trace's rounding) is rejected.
RIDGE_DEFAULT_REL = 1e-10
RIDGE_RTOL = 1e-6
# sin-cos experiment: stated accuracy of the 20-center interpolant on the
# grid, ten times the 1.4e-6 it reaches at the initial commit.
SIN_COS_SUP_ERROR = 1e-5
SIN_COS_RESIDUAL = 1e-8


# ----------------------------------------------------------------------
# reference kernels
# ----------------------------------------------------------------------


def omega_closed(m: int, t) -> np.ndarray:
    """Omega_m(t) for m in {1, 3, 5}: cos t, sin t / t and
    3 (sin t - t cos t) / t^3, with the power series below t = 1, where the
    closed forms lose digits to cancellation."""
    t = np.abs(np.asarray(t, dtype=float))
    if m == 1:
        return np.cos(t)
    if m not in (3, 5):
        raise ValueError(f"no closed form for Omega_{m}")
    out = np.empty_like(t)
    small = t < 1.0
    ts = t[small]
    term = np.ones_like(ts)
    acc = np.ones_like(ts)
    for k in range(20):
        term = term * (-ts * ts / 4.0) / ((k + 1) * (k + m / 2.0))
        acc = acc + term
    out[small] = acc
    tb = t[~small]
    if m == 3:
        out[~small] = np.sin(tb) / tb
    else:
        out[~small] = 3.0 * (np.sin(tb) - tb * np.cos(tb)) / tb**3
    return out


def _atoms(measure: dict):
    key = "xi" if measure["atoms"] and "xi" in measure["atoms"][0] else "omega"
    out = []
    for atom in measure["atoms"]:
        g = np.asarray(atom["G"]["re"], float) + 1j * np.asarray(
            atom["G"].get("im", np.zeros_like(atom["G"]["re"])), float
        )
        out.append((np.asarray(atom[key], float), (g + g.conj().T) / 2))
    return out


def radial_values(kernel: dict, t) -> np.ndarray:
    """F(t) for each radial distance in t: shape (len(t), ell, ell)."""
    fam = kernel["family"]
    t = np.asarray(t, dtype=float)
    out = np.zeros((t.size, kernel["measure"]["dim"], kernel["measure"]["dim"]), complex)
    for w, g in _atoms(kernel["measure"]):
        w = float(w)
        if fam["kind"] == "gaussian":
            vals = np.exp(-w * t * t)
        elif fam["kind"] == "askey":
            vals = np.clip(1.0 - w * t, 0.0, None) ** (fam["ell"] - 1)
        else:
            vals = omega_closed(fam["m"], w * t)
        out += vals[:, None, None] * g
    return out


def _gaussian_partial(w: float, d: np.ndarray, gamma) -> np.ndarray:
    """d^gamma exp(-w |d|^2) for rows d: the product over coordinates of
    (-sqrt w)^g H_g(sqrt w d_i) exp(-w d_i^2), H_g the physicists' Hermite
    polynomial."""
    r = math.sqrt(w)
    out = np.ones(d.shape[0])
    for i, g in enumerate(gamma):
        coef = np.zeros(g + 1)
        coef[g] = 1.0
        out = out * (-r) ** g * _hermite.hermval(r * d[:, i], coef) * np.exp(-w * d[:, i] ** 2)
    return out


def partial_values(kernel: dict, diffs: np.ndarray, gamma) -> np.ndarray:
    """(d^gamma F)(d) for each row of diffs, gaussian and plane-wave kernels."""
    kind = kernel["family"]["kind"]
    ell = kernel["measure"]["dim"]
    out = np.zeros((diffs.shape[0], ell, ell), complex)
    order = sum(gamma)
    for p, g in _atoms(kernel["measure"]):
        if kind == "gaussian":
            vals = _gaussian_partial(float(p), diffs, gamma)
        elif kind == "plane_wave":
            vals = (-1j) ** order * np.prod(p ** np.asarray(gamma)) * np.exp(-1j * diffs @ p)
        else:
            raise ValueError(f"no reference derivatives for {kind}")
        out += vals[:, None, None] * g
    return out


def diagonal_partial(kernel: dict, gamma) -> np.ndarray:
    """(d^gamma F)(0), for every family with jets, from closed-form moments:
    gaussian prod_i (-1)^(g/2) g!/(g/2)! w^(|g|/2); omega(m)
    (-w^2/4)^k / (m/2)_k prod_i (2k_i)!/k_i! for gamma = 2 kappa, k = |kappa|;
    plane wave (-i)^|g| xi^g."""
    kind = kernel["family"]["kind"]
    ell = kernel["measure"]["dim"]
    out = np.zeros((ell, ell), complex)
    if kind == "plane_wave":
        for xi, g in _atoms(kernel["measure"]):
            out += (-1j) ** sum(gamma) * np.prod(xi ** np.asarray(gamma)) * g
        return out
    if any(g % 2 for g in gamma):
        return out
    kappa = [g // 2 for g in gamma]
    k = sum(kappa)
    for w, g in _atoms(kernel["measure"]):
        w = float(w)
        if kind == "gaussian":
            c = w**k
            for gi in gamma:
                c *= (-1.0) ** (gi // 2) * math.factorial(gi) / math.factorial(gi // 2)
        else:
            poch = math.prod(kernel["family"]["m"] / 2.0 + i for i in range(k))
            c = (-w * w / 4.0) ** k / poch
            for ki in kappa:
                c *= math.factorial(2 * ki) / math.factorial(ki)
        out += c * g
    return out


def multi_indices(m: int, q: int) -> list[tuple]:
    """All multi-indices with |alpha| <= q, graded, then lexicographic."""
    out = []
    for total in range(q + 1):
        out.extend(sorted(a for a in itertools.product(range(total + 1), repeat=m) if sum(a) == total))
    return out


def reference_deriv_gram(kernel: dict, points: np.ndarray, q: int) -> np.ndarray:
    """Block ((mu, a), (nu, b)) = (-1)^|b| (d^(a+b) F)(x_mu - x_nu)."""
    n, m = points.shape
    idxs = multi_indices(m, q)
    na, ell = len(idxs), kernel["measure"]["dim"]
    diffs = (points[:, None, :] - points[None, :, :]).reshape(n * n, m)
    big = np.zeros((n, na, ell, n, na, ell), complex)
    cache = {}
    for a, alpha in enumerate(idxs):
        for b, beta in enumerate(idxs):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if gamma not in cache:
                cache[gamma] = partial_values(kernel, diffs, gamma).reshape(n, n, ell, ell)
            big[:, a, :, :, b, :] = ((-1.0) ** sum(beta) * cache[gamma]).transpose(0, 2, 1, 3)
    return big.reshape(n * na * ell, n * na * ell)


def reference_gram(kernel: dict, points: np.ndarray) -> np.ndarray:
    n, m = points.shape
    ell = kernel["measure"]["dim"]
    diffs = (points[:, None, :] - points[None, :, :]).reshape(n * n, m)
    if kernel["family"]["kind"] == "plane_wave":
        blocks = partial_values(kernel, diffs, (0,) * m)
    else:
        blocks = radial_values(kernel, np.sqrt(np.sum(diffs * diffs, axis=1)))
    return blocks.reshape(n, n, ell, ell).transpose(0, 2, 1, 3).reshape(n * ell, n * ell)


# ----------------------------------------------------------------------
# report readers
# ----------------------------------------------------------------------


def _cmatrix(obj) -> np.ndarray:
    return np.asarray(obj["re"], float) + 1j * np.asarray(obj["im"], float)


def read_csv_matrix(text: str) -> np.ndarray:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    vals = np.array([[float(c) for c in row.split(",")] for row in rows])
    return vals[:, 0::2] + 1j * vals[:, 1::2]


def _close(actual: np.ndarray, expected: np.ndarray, scale: float) -> float | None:
    """Largest entrywise error when it exceeds VALUE_RTOL * max(1, scale)."""
    if actual.shape != expected.shape:
        return math.inf
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    return None if err <= VALUE_RTOL * max(1.0, scale) else err


# ----------------------------------------------------------------------
# checks per command kind
# ----------------------------------------------------------------------


def _check_gram(spec, report, matrix: np.ndarray) -> str | None:
    desc = spec.descriptor
    kern = desc["kernel"]
    pts = np.asarray(desc["points"], float).reshape(len(desc["points"]), kern["ambient_dim"])
    q = desc.get("q", 0)
    res = report["result"]
    if res["n_points"] != pts.shape[0] or res["ell"] != kern["measure"]["dim"]:
        return "layout does not match the descriptor"
    if q and [tuple(a) for a in res["multi_indices"]] != multi_indices(pts.shape[1], q):
        return "multi-indices are not the graded-lex list up to q"
    herm_gap = float(np.max(np.abs(matrix - matrix.conj().T)))
    scale = float(np.max(np.abs(matrix))) if matrix.size else 1.0
    if herm_gap > VALUE_RTOL * max(1.0, scale):
        return f"matrix is not Hermitian (gap {herm_gap:.3e})"
    tr = float(np.trace(matrix).real)
    lo = float(np.linalg.eigvalsh(matrix)[0])
    if lo < -PSD_RTOL * max(1.0, tr):
        return f"Gram not PSD: min eigenvalue {lo:.3e} (trace {tr:.3e})"
    if abs(lo - res["min_eigenvalue"]) > VALUE_RTOL * max(1.0, tr):
        return f"reported min eigenvalue {res['min_eigenvalue']!r}, numpy gives {lo!r}"
    m = pts.shape[1]
    idxs = multi_indices(m, q)
    na, ell = len(idxs), kern["measure"]["dim"]
    total = sum(g for _, g in _atoms(kern["measure"])) if kern["measure"]["atoms"] else 0
    for mu in range(pts.shape[0]):
        r = mu * na * ell
        if _close(matrix[r : r + ell, r : r + ell], total + np.zeros((ell, ell)), scale) is not None:
            return f"diagonal block of point {mu} differs from the sum of the G_j"
    if q:
        for a, alpha in enumerate(idxs):
            for b, beta in enumerate(idxs):
                gamma = tuple(x + y for x, y in zip(alpha, beta))
                want = (-1.0) ** sum(beta) * diagonal_partial(kern, gamma)
                blk = matrix[a * ell : (a + 1) * ell, b * ell : (b + 1) * ell]
                if _close(blk, want, scale) is not None:
                    return f"diagonal derivative block {alpha},{beta} differs from its moment"
    if q == 0:
        ref = reference_gram(kern, pts)
    elif kern["family"]["kind"] in ("gaussian", "plane_wave"):
        ref = reference_deriv_gram(kern, pts, q)
    else:
        return None  # omega derivative Grams: PSD and diagonal moments only
    err = _close(matrix, ref, float(np.max(np.abs(ref))))
    if err is not None:
        return f"Gram differs from the reference by {err:.3e}"
    return None


def _check_eval(spec, report) -> str | None:
    kern = spec.descriptor["kernel"]
    want = radial_values(kern, [spec.descriptor["t"]])[0]
    got = _cmatrix(report["result"]["matrix"])
    scale = sum(float(np.linalg.norm(g)) for _, g in _atoms(kern["measure"]))
    err = _close(got, want, scale)
    if err is not None:
        return f"F(t) differs from the closed form by {err:.3e}"
    return None


def _check_classify(spec, report) -> str | None:
    res = report["result"]
    if res["verdict"] != spec.expect["verdict"]:
        return f"verdict {res['verdict']}, construction implies {spec.expect['verdict']}"
    if res["consistent"] is not True:
        return "classification and probe disagree (consistent: false)"
    pos = [g for w, g in _atoms(spec.descriptor["measure"]) if float(w) > 0.0]
    ell = spec.descriptor["measure"]["dim"]
    total = sum(pos) if pos else np.zeros((ell, ell))
    lo = float(np.linalg.eigvalsh(total)[0])
    if abs(lo - res["min_eigenvalue"]) > VALUE_RTOL * max(1.0, float(np.trace(total).real)):
        return f"restricted total min eigenvalue {res['min_eigenvalue']!r}, numpy gives {lo!r}"
    return None


def _check_probe(spec, report) -> str | None:
    res = report["result"]
    if res["verdict"] != spec.expect["verdict"]:
        return f"verdict {res['verdict']}, construction implies {spec.expect['verdict']}"
    mins = res["min_eigenvalues"]
    if len(mins) != spec.expect["trials"] or res["global_min"] != min(mins):
        return "trial eigenvalues do not match the trial count or the global minimum"
    return None


def _backward_error(a: np.ndarray, c: np.ndarray, t: np.ndarray) -> float:
    r = a @ c - t
    denom = np.linalg.norm(a) * np.linalg.norm(c) + np.linalg.norm(t)
    return float(np.linalg.norm(r) / denom) if denom > 0 else float(np.linalg.norm(r))


def _check_solution(what: str, a: np.ndarray, ridge: float, c: np.ndarray, t: np.ndarray) -> str | None:
    """Ridge no larger than the default, and both the ridged system and the
    targets met to INTERP_BACKWARD_TOL."""
    default = RIDGE_DEFAULT_REL * float(np.trace(a).real) / a.shape[0]
    if not ridge <= default * (1 + RIDGE_RTOL):
        return f"{what} ridge {ridge!r} exceeds the default {default:.3e}"
    eta = _backward_error(a + ridge * np.eye(a.shape[0]), c, t)
    if not eta <= INTERP_BACKWARD_TOL:
        return f"{what} backward error {eta:.3e} > {INTERP_BACKWARD_TOL:.0e}"
    eta = _backward_error(a, c, t)
    if not eta <= INTERP_BACKWARD_TOL:
        return f"{what} residual against the targets {eta:.3e} > {INTERP_BACKWARD_TOL:.0e}"
    return None


def _coefficients(report) -> np.ndarray:
    return np.concatenate([_cmatrix(c["v"]) for c in report["result"]["coefficients"]])


def _check_interp(spec, report) -> str | None:
    desc = spec.descriptor
    kern = desc["kernel"]
    pts = np.asarray(desc["points"], float).reshape(len(desc["points"]), kern["ambient_dim"])
    got_x = np.asarray([c["x"] for c in report["result"]["coefficients"]], float)
    if got_x.shape != pts.shape or np.any(got_x != pts):
        return "coefficient points differ from the input points"
    t = _cmatrix(desc["targets"]).reshape(-1)
    a = reference_gram(kern, pts)
    return _check_solution("interpolation", a, report["result"]["ridge"], _coefficients(report), t)


def _check_hermite(spec, report) -> str | None:
    desc = spec.descriptor
    kern = desc["kernel"]
    data = desc["data"]
    coeffs = report["result"]["coefficients"]
    if [(c["x"], c["alpha"]) for c in coeffs] != [(d["x"], d["alpha"]) for d in data]:
        return "coefficient atoms differ from the data order"
    ell = kern["measure"]["dim"]
    nrow = len(data)
    big = np.zeros((nrow * ell, nrow * ell), complex)
    for i, di in enumerate(data):
        for j, dj in enumerate(data):
            gamma = tuple(a + b for a, b in zip(di["alpha"], dj["alpha"]))
            d = np.asarray(di["x"], float) - np.asarray(dj["x"], float)
            blk = (-1.0) ** sum(dj["alpha"]) * partial_values(kern, d[None, :], gamma)[0]
            big[i * ell : (i + 1) * ell, j * ell : (j + 1) * ell] = blk
    t = np.concatenate([_cmatrix(d["target"]) for d in data])
    return _check_solution("Hermite interpolation", big, report["result"]["ridge"], _coefficients(report), t)


def _check_sin_cos(spec, report) -> str | None:
    res = report["result"]
    e5, e20 = res["sup_errors"]["5"], res["sup_errors"]["20"]
    if not (e20 <= SIN_COS_SUP_ERROR and e20 < e5):
        return f"sin-cos sup errors {e5!r} (n=5), {e20!r} (n=20)"
    if max(res["residuals"].values()) > SIN_COS_RESIDUAL:
        return f"sin-cos residuals {res['residuals']}"
    return None


def _check_demo(spec, report) -> str | None:
    res = report["result"]
    if res["reproduced"] is not True:
        return "demo not reproduced"
    if spec.kind == "demo-radial-bump":
        if res["params"]["grid_n"] != spec.expect["grid_n"] or res["params"]["box"] != spec.expect["box"]:
            return "demo parameters differ from the command line"
    elif res["mixed_form"] != 0.0 or res["params"]["w"] != spec.expect["w"]:
        return f"shifted-gaussian mixed form {res['mixed_form']!r} is not exactly 0"
    return None


_CHECKS = {
    "eval": _check_eval,
    "classify": _check_classify,
    "probe": _check_probe,
    "interp": _check_interp,
    "interp-hermite": _check_hermite,
    "interp-sin-cos": _check_sin_cos,
    "demo-radial-bump": _check_demo,
    "demo-shifted-gaussian": _check_demo,
}


def check(spec, rc, error: str | None, output_path: str) -> str | None:
    """None when the command behaved as its construction implies, else why not."""
    if error is not None:
        return f"exception escaped main: {error}"
    if rc != spec.expect["rc"]:
        return f"exit code {rc}, expected {spec.expect['rc']}"
    try:
        if spec.csv:
            with open(output_path) as fh:
                matrix = read_csv_matrix(fh.read())
            with open(output_path + ".meta.json") as fh:
                report = json.load(fh)
            return _check_gram(spec, report, matrix)
        with open(output_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}"
    if spec.kind in ("gram", "deriv-gram"):
        return _check_gram(spec, report, _cmatrix(report["result"]["matrix"]))
    return _CHECKS[spec.kind](spec, report)
