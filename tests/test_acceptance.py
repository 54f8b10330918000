"""Acceptance gate: one test per published criterion, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. Every test here finishes in well under
ten seconds on a laptop.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma, jv

from opkernel.certify import (
    classify_and_report,
    demo_counterexample_radial_bump,
    demo_counterexample_shifted_gaussian,
)
from opkernel.cli import main
from opkernel.hermitian import hermitian_part, is_psd, psd_margin
from opkernel.kernel import deriv_gram, gram, kernel_deriv_eval, radial_kernel
from opkernel.measures import (
    VERDICT_NOT_STRICT,
    VERDICT_STRICT,
    OperatorMeasure,
)
from opkernel.profiles import (
    RadialProfile,
    completely_monotone_check,
    ell_cm_check,
    multi_indices_up_to,
    omega_eval,
    williamson_construct,
)
from opkernel.rkhs import (
    VectorAtomMeasure,
    hermite_interpolate,
    quadratic_form_detail,
    rkhs_deriv_eval,
    rkhs_eval,
)

from kernel_oracles import deriv_diag_identity_check


def report(cid: str, ok: bool, detail: str):
    print(f"{cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def random_gaussian_kernel(rng, ell, m, max_atoms=4):
    atoms = []
    for _ in range(int(rng.integers(1, max_atoms + 1))):
        b = rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell))
        atoms.append((float(rng.uniform(0.1, 2.0)), b.conj().T @ b))
    return radial_kernel(RadialProfile.gaussian(), OperatorMeasure(ell, atoms), m)


# ----------------------------------------------------------------------


def test_c01_shifted_gaussian_counterexample():
    res = demo_counterexample_shifted_gaussian([1.0], seed=0)
    ok = abs(res.mixed_form) <= 1e-12 and res.projection_floor > 1e-8
    report(
        "C01 shifted-gaussian demo",
        ok,
        f"mixed={res.mixed_form!r}, projection floor={res.projection_floor:.3e}",
    )


def test_c02_radial_bump_counterexample():
    res = demo_counterexample_radial_bump(grid_n=512, box=4.0)
    # contract bound 1e-6; regression pin 1e-12 (first verified run: 2.3e-16)
    ok = (
        res.relative_form <= 1e-6
        and res.relative_form <= 1e-12
        and res.reference_form > 1e-4 * res.params["reference_scale"]
    )
    report(
        "C02 radial-bump demo",
        ok,
        f"relative={res.relative_form:.3e}, reference={res.reference_form:.3e}",
    )


def test_c03_psd_sweep():
    worst_gram = worst_deriv = np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ell = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        k = random_gaussian_kernel(rng, ell, m)
        n = int(rng.integers(2, 9))
        pts = rng.uniform(-2, 2, size=(n, m))
        g = gram(k, pts)
        lam, scale, _ = psd_margin(g.matrix.entries)
        worst_gram = min(worst_gram, lam / scale)
        for q in (1, 2):
            dg = deriv_gram(k, pts, q=q)
            dlam, dscale, _ = psd_margin(dg.matrix.entries)
            worst_deriv = min(worst_deriv, dlam / dscale)
    ok = worst_gram >= -1e-10 and worst_deriv >= -1e-9
    report(
        "C03 PSD sweep (100 kernels)",
        ok,
        f"worst gram min-eig/trace={worst_gram:.3e}, worst deriv={worst_deriv:.3e}",
    )


def test_c04_derivative_vs_richardson():
    rng = np.random.default_rng(0)
    profiles = [RadialProfile.gaussian(), RadialProfile.omega(3), RadialProfile.omega(5)]
    worst = 0.0
    checked = 0
    while checked < 50:
        prof = profiles[int(rng.integers(0, len(profiles)))]
        m = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 3))
        atoms = []
        for _ in range(int(rng.integers(1, 3))):
            b = rng.normal(size=(ell, ell))
            atoms.append((float(rng.uniform(0.3, 1.5)), b.T @ b))
        k = radial_kernel(prof, OperatorMeasure(ell, atoms), m)
        total = int(rng.integers(1, 4))  # 1 <= |alpha|+|beta| <= 3
        orders = [0] * (2 * m)
        for _ in range(total):
            orders[int(rng.integers(0, 2 * m))] += 1
        alpha, beta = tuple(orders[:m]), tuple(orders[m:])
        x = rng.uniform(-1, 1, size=m)
        y = rng.uniform(-1, 1, size=m)
        analytic = kernel_deriv_eval(k, alpha, beta, x, y)

        # peel one derivative off and difference it numerically
        if sum(alpha) > 0:
            i = next(j for j, a in enumerate(alpha) if a > 0)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]

            def f(eps, i=i, lower=lower):
                step = np.zeros(m)
                step[i] = eps
                return kernel_deriv_eval(k, lower, beta, x + step, y)
        else:
            i = next(j for j, b in enumerate(beta) if b > 0)
            lower = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]

            def f(eps, i=i, lower=lower):
                step = np.zeros(m)
                step[i] = eps
                return kernel_deriv_eval(k, alpha, lower, x, y + step)

        h = 1e-4
        fine = (f(h) - f(-h)) / (2 * h)
        coarse = (f(2 * h) - f(-2 * h)) / (4 * h)
        fd = (4 * fine - coarse) / 3
        err = float(np.max(np.abs(fd - analytic)))
        rel = err / max(1.0, float(np.max(np.abs(analytic))))
        worst = max(worst, rel)
        checked += 1
    ok = worst <= 1e-6
    report("C04 derivatives vs Richardson (50 configs)", ok, f"worst relative={worst:.3e}")


def test_c05_diagonal_moment_identity():
    mu = OperatorMeasure(
        2, [(0.5, np.eye(2)), (1.25, np.diag([2.0, 1.0])), (2.0, np.eye(2))]
    )
    k = radial_kernel(RadialProfile.gaussian(), mu, 2)
    idxs = multi_indices_up_to(2, 4)
    worst = 0.0
    for alpha in idxs:
        for beta in idxs:
            if sum(alpha) + sum(beta) > 4:
                continue
            worst = max(worst, deriv_diag_identity_check(k, alpha, beta))
    ok = worst <= 1e-12
    report("C05 diagonal moment identity (|a|+|b|<=4)", ok, f"worst residual={worst:.3e}")


def test_c06_omega_special_function():
    ts = np.linspace(0.0, 30.0, 301)
    err1 = max(abs(omega_eval(1, t) - math.cos(t)) for t in ts)
    err3 = max(
        abs(omega_eval(3, t) - (math.sin(t) / t if t > 0 else 1.0)) for t in ts
    )

    # dimension-walk recurrence, Chebyshev-Gauss on the even extension;
    # inner Omega_{m-1} values from the independent Bessel closed form
    n = 16384
    i = np.arange(1, n + 1)
    r = np.cos((2 * i - 1) * np.pi / (2 * n))
    rec_err = 0.0
    for m in (2, 3, 4):
        c = 2 * sp_gamma(m / 2.0) / (sp_gamma(0.5) * sp_gamma((m - 1) / 2.0))
        nu = (m - 3) / 2.0
        for t in np.linspace(0.5, 10.0, 6):
            s = np.abs(r) * t
            inner = np.ones_like(s)
            nz = s > 0
            inner[nz] = sp_gamma((m - 1) / 2.0) * (2.0 / s[nz]) ** nu * jv(nu, s[nz])
            rhs = c * (np.pi / n) * np.sum(inner * np.abs(r) ** (m - 2)) / 2.0
            rec_err = max(rec_err, abs(omega_eval(m, t) - rhs))
    ok = err1 <= 1e-10 and err3 <= 1e-10 and rec_err <= 1e-8
    report(
        "C06 Omega special function",
        ok,
        f"cos err={err1:.2e}, sinc err={err3:.2e}, recurrence err={rec_err:.2e}",
    )


def test_c07_two_route_quadratic_form():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q = seed % 3
        m = int(rng.integers(1, 3))
        ell = int(rng.integers(1, 3))
        k = random_gaussian_kernel(rng, ell, m, max_atoms=3)
        alphas, atoms = [], []
        for alpha in multi_indices_up_to(m, q):
            for _ in range(int(rng.integers(1, 4))):
                alphas.append(alpha)
                atoms.append((rng.normal(size=m), rng.normal(size=ell) + 1j * rng.normal(size=ell)))
        eta = VectorAtomMeasure(m, ell, atoms, alphas=alphas, q=q)
        detail = quadratic_form_detail(k, [eta])[0]
        worst = max(worst, detail.route_gap / (1e-12 * detail.scale))
    ok = worst <= 1.0
    report(
        "C07 two-route quadratic form (100 measures)",
        ok,
        f"worst gap / (1e-12 scale) = {worst:.3f}",
    )


def test_c08_exact_classification():
    strict_mu = OperatorMeasure(2, [(1.0, np.eye(2))])
    strict = classify_and_report(strict_mu, RadialProfile.gaussian(), m=2)
    degen_mu = OperatorMeasure(
        2, [(1.0, np.diag([1.0, 0.0])), (2.0, np.diag([1.0, 0.0]))]
    )
    degen = classify_and_report(degen_mu, RadialProfile.gaussian(), m=2)
    lo, scale = degen.witness_design
    ok = (
        strict.classification.verdict == VERDICT_STRICT
        and strict.probe.verdict == "NoViolationFound"
        and strict.consistent
        and degen.classification.verdict == VERDICT_NOT_STRICT
        and lo <= 1e-9 * scale
        and degen.probe.verdict == "ViolationFound"
        and degen.consistent
    )
    report(
        "C08 exact classification + corroboration",
        ok,
        f"strict min-eig={strict.classification.min_eigenvalue:.3f}, "
        f"witness design min-eig={lo:.3e}",
    )


def test_c09_radon_nikodym():
    """The Radon-Nikodym decomposition of a measure against its trace
    measure, read off the atoms: each kept atom over its trace is a
    trace-one PSD density, and the trace-weighted densities sum back to
    the total of all atoms."""
    worst_recon = worst_trace = 0.0
    all_psd = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        atoms = []
        for j in range(int(rng.integers(1, 5))):
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            atoms.append((float(j), b.conj().T @ b))
        mu = OperatorMeasure(dim, atoms)
        weights = np.trace(mu.gs, axis1=1, axis2=2).real
        densities = [hermitian_part(g / w) for g, w in zip(mu.gs, weights)]
        recon = sum(w * d for w, d in zip(weights, densities))
        total = mu.gs.sum(axis=0)
        err = np.max(np.abs(recon - total)) / max(1.0, np.max(np.abs(total)))
        worst_recon = max(worst_recon, err)
        for d in densities:
            worst_trace = max(worst_trace, abs(np.trace(d).real - 1.0))
            all_psd = all_psd and is_psd(d).ok
    eps = np.finfo(float).eps
    ok = worst_recon <= 4 * eps and worst_trace <= 1e-14 and all_psd
    report(
        "C09 Radon-Nikodym decomposition",
        ok,
        f"recon err={worst_recon:.2e} (4eps={4*eps:.2e}), trace err={worst_trace:.2e}",
    )


def test_c10_monotonicity_suite():
    grid = np.linspace(0.5, 5.0, 10)
    cm1 = completely_monotone_check(lambda t: math.exp(-t), grid, nmax=6)
    cm2 = completely_monotone_check(lambda t: 1.0 / (1.0 + t), grid, nmax=6)
    cm3 = completely_monotone_check(lambda t: 2.0 + math.sin(t), grid, nmax=6)
    will_ok = True
    for ell in (2, 3, 4):
        f = williamson_construct(((1.0, 1.0), (0.5, 0.5)), ell)
        will_ok = will_ok and ell_cm_check(f, ell, grid).ok
    ok = cm1.ok and cm2.ok and (not cm3.ok) and cm3.violation is not None and will_ok
    report(
        "C10 monotonicity suite",
        ok,
        f"exp-neg={cm1.ok}, inv-1p={cm2.ok}, 2+sin violation={cm3.violation}, "
        f"williamson ell in 2..4 pass={will_ok}",
    )


def test_c11_interpolation_convergence(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps({"experiment": "sin-cos"}))
    code = main(
        ["interp", "--input", str(inp), "--output", str(out), "--no-timestamp"]
    )
    rep = json.loads(out.read_text())
    ratio = rep["result"]["error_ratio_5_to_20"]

    kernel = radial_kernel(
        RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.array([[1.0]]))]), 1
    )
    res = hermite_interpolate(
        kernel,
        [
            (np.array([0.0]), (0,), np.array([1.0])),
            (np.array([0.0]), (1,), np.array([0.5])),
        ],
        ridge=0.0,
    )
    v_err = abs(rkhs_eval(res.element, np.array([0.0]))[0] - 1.0)
    d_err = abs(rkhs_deriv_eval(res.element, (1,), np.array([0.0]))[0] - 0.5)
    ok = code == 0 and ratio >= 5.0 and v_err <= 1e-8 and d_err <= 1e-8
    report(
        "C11 interpolation convergence",
        ok,
        f"sup-error ratio n=5/n=20 = {ratio:.1f}, hermite errs=({v_err:.2e}, {d_err:.2e})",
    )


def test_c12_deterministic_outputs(tmp_path):
    kernel_json = {
        "family": {"kind": "gaussian"},
        "measure": {
            "dim": 2,
            "atoms": [{"omega": 1.0, "G": {"re": [[1.0, 0.0], [0.0, 1.0]]}}],
        },
        "ambient_dim": 2,
    }
    inp = tmp_path / "probe.json"
    inp.write_text(json.dumps({"kernel": kernel_json, "trials": 10}))
    runs = {
        "probe": ["probe", "--input", str(inp), "--seed", "5"],
        "demo-shifted": ["demo", "shifted-gaussian", "--w", "1", "--seed", "5"],
        "demo-bump": ["demo", "radial-bump"],
    }
    identical = True
    for name, argv in runs.items():
        blobs = []
        for rep in (0, 1):
            out = tmp_path / f"{name}-{rep}.json"
            code = main(argv + ["--output", str(out), "--no-timestamp"])
            assert code == 0, f"{name} exited {code}"
            blobs.append(out.read_bytes())
        identical = identical and blobs[0] == blobs[1]
    report("C12 deterministic outputs", identical, "probe + both demos byte-identical")
