"""Reproducing-kernel machinery: embeddings, quadratic forms, interpolation.

A vector atomic measure eta = sum_i v_i delta_{x_i} (vectors v_i in C^ell)
embeds into the kernel space as

    K_eta(y) = sum_i K(x_i, y)^H v_i,

and more generally an atom with multi-index alpha_i contributes
(d^{alpha_i}_1 K)(x_i, y)^H v_i. The squared norm of the embedding is the
quadratic form

    Q(eta) = sum_{i,j} < d^{a_i}_1 d^{a_j}_2 K(x_i, x_j) v_j, v_i >,

nonnegative for PSD kernels; Q(eta) = 0 with eta != 0 is exactly a failure
of strict positive definiteness (and for q > 0, of the derivative kind).
A VectorAtomMeasure keeps its atoms as the arrays alphas (A, m), points
(A, m) and vectors (A, ell), merged in one pass, and an embedded element
keeps the same three arrays. rkhs_deriv_eval evaluates an element
at a batch of points with one kernel.deriv_blocks call over all
atom-minus-point differences.

quadratic_form_detail always computes Q twice and asserts the two routes
agree to 1e-12 * scale; the check is never skipped. Route 1 is w^H M w
against the derivative block Gram. Route 2 never reads the Gram. For a
plane-wave kernel K(x, y) = sum_a e^{-i (x - y) . xi_a} G_a it is the
frequency-side sum sum_a u_a^H G_a u_a, u_a = sum_c (i xi_a)^alpha_c
e^{i x_c . xi_a} v_c, read from the measure's atoms without a kernel block,
a block of frequencies at a time, so it also checks the kernel values.
For radial and other kernels it pairs rkhs_deriv_eval of the embedded
function against the measure, one batched evaluation per run of atoms with
one alpha, from the raw blocks of kernel.deriv_blocks in its own summation
order. The Gram never goes through deriv_blocks, so at every order that
checks the Gram's assembly (kernel._hermitian_gram), not the kernel values.
Measures with the same atom points (the radial-bump demo's mixed and
reference measures) share one Gram, and one frequency-side pass for plane
waves; each measure's two routes stay independent.

Interpolation has one body for plain and Hermite data: the system matrix M
is the block Gram of the rows (x_i, alpha_i), alpha = 0 for plain data,
built Hermitian as every block Gram is (kernel._check_points, then
kernel._hermitian_gram). It solves (M + ridge I) c = targets by PSD
Cholesky and returns the combination as an element of the kernel space, so
evaluation goes through the same reproducing formulas being tested.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    InvalidParameter,
    InvalidPoint,
    InvalidVector,
    NotPSD,
    NumericalFailure,
)
from .hermitian import Frozen, HermitianMatrix, _frobenius, cholesky_psd, solve_cholesky
from .kernel import (
    _BLOCK_ENTRIES,
    DUPLICATE_POINT_TOL,
    OperatorKernel,
    _check_points,
    _hermitian_gram,
    deriv_blocks,
    deriv_gram,
    gram,  # noqa: F401  kept importable as rkhs.gram, which perfbench/tests/test_run.py reads
)
from .measures import merge_rows, stack_atoms, unique_rows
from .profiles import (
    JET_ORDER_CAP,
    MultiIndex,
    multi_indices_up_to,
    validate_multi_index,
)

TWO_ROUTE_TOL = 1e-12


class VectorAtomMeasure(Frozen):
    """Finite vector-valued derivative measure sum_i v_i d^{alpha_i} delta_{x_i}
    of declared order q: its atom i pairs as (d^{alpha_i} f)(x_i) against v_i.

    Atoms are (x, v) pairs, or the arrays points (A, m) and vectors (A,
    ell); alphas gives one multi-index per atom, zeros by default, each
    checked as Python ints with |alpha| <= q <= JET_ORDER_CAP. Atoms at
    exactly equal (alpha, x) are merged by summing vectors; atoms whose
    merged vector is exactly zero are dropped (they contribute nothing to
    any pairing). The atoms are stored as the read-only arrays alphas,
    points and vectors, sorted stably by (|alpha|, alpha) from the order in
    which each (alpha, x) first occurs. The measure is nonzero iff any atom
    survives.
    """

    __slots__ = ("m", "ell", "q", "alphas", "points", "vectors")

    def __init__(self, m: int, ell: int, atoms=(), *, points=None, vectors=None, alphas=None, q: int = 0):
        m, ell, q = int(m), int(ell), int(q)
        if m < 1 or ell < 1:
            raise InvalidVector("need m >= 1 and ell >= 1")
        if q < 0 or q > JET_ORDER_CAP:
            raise InvalidParameter(f"need 0 <= q <= {JET_ORDER_CAP}")
        if points is None:
            points, vectors = tuple(zip(*atoms)) or ((), ())
        bad_point = InvalidVector(f"atom point must be a finite vector of length {m}")
        bad_vector = InvalidVector(f"atom vector must be a finite vector of length {ell}")
        pts = stack_atoms(points, (m,), float, lambda shape: bad_point)
        vecs = stack_atoms(vectors, (ell,), complex, lambda shape: bad_vector)
        if pts.shape[0] != vecs.shape[0]:
            raise InvalidVector(f"got {vecs.shape[0]} atom vectors for {pts.shape[0]} points")
        if alphas is None:
            alps = np.zeros(pts.shape, dtype=int)
        else:
            alps = np.array([validate_multi_index(a, m, q) for a in alphas], dtype=int).reshape(-1, m)
            if alps.shape[0] != pts.shape[0]:
                raise InvalidVector(f"got {alps.shape[0]} multi-indices for {pts.shape[0]} points")
        finite_point = np.isfinite(pts).all(axis=1)
        bad = np.flatnonzero(~(finite_point & np.isfinite(vecs).all(axis=1)))
        if bad.size:
            raise bad_vector if finite_point[bad[0]] else bad_point
        first, vecs = merge_rows(np.concatenate([alps, pts], axis=1), vecs, in_order=True)
        # np.linalg.norm(v) > 0 exactly when some square does not underflow;
        # a square that overflows is inf, so a large vector is kept
        with np.errstate(over="ignore"):
            keep = (vecs.real ** 2 + vecs.imag ** 2).sum(axis=1) > 0.0
        alps, pts, vecs = alps[first][keep], pts[first][keep], vecs[keep]
        order = np.lexsort([*alps.T[::-1], alps.sum(axis=1)])
        alps, pts, vecs = alps[order], pts[order], vecs[order]
        for a in (alps, pts, vecs):
            a.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alphas", alps)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "vectors", vecs)

    def __len__(self):
        return self.points.shape[0]

    @property
    def is_nonzero(self) -> bool:
        return len(self) > 0


@dataclass(frozen=True)
class RkhsElement:
    """A finite combination sum_i (d^{alpha_i}_1 K)(x_i, .)^H v_i, with atom
    i stored as row i of alphas (A, m), points (A, m) and vectors (A, ell)."""

    kernel: OperatorKernel
    alphas: np.ndarray
    points: np.ndarray
    vectors: np.ndarray


def rkhs_eval(element: RkhsElement, y) -> np.ndarray:
    """Value of the element at y: sum_i (d^{alpha_i}_1 K)(x_i, y)^H v_i."""
    return rkhs_deriv_eval(element, (0,) * element.kernel.m, y)


def rkhs_deriv_eval(element: RkhsElement, beta: MultiIndex, y) -> np.ndarray:
    """Derivative of the element: sum_i (d^{alpha_i}_1 d^beta_2 K)(x_i, y)^H v_i,
    at one point y (m,) -> (ell,) or at a batch (k, m) -> (k, ell).

    The blocks come from deriv_blocks over all atom-minus-point
    differences, so kernels without jets evaluate at order 0.
    """
    k = element.kernel
    beta = validate_multi_index(beta, k.m, JET_ORDER_CAP)
    ys = np.asarray(y, dtype=float)
    single = ys.ndim == 1
    if single:
        ys = ys[None, :]
    if ys.ndim != 2 or ys.shape[1] != k.m:
        raise InvalidPoint(f"expected a point in R^{k.m} or a (k, {k.m}) batch, got shape {np.shape(y)}")
    if not np.all(np.isfinite(ys)):
        raise InvalidPoint("point has non-finite entries")
    with np.errstate(over="ignore"):
        diffs = element.points[:, None, :] - ys[None, :, :]
    conj_blocks = deriv_blocks(k, diffs, element.alphas, np.tile(beta, (len(ys), 1))).conj()
    out = np.einsum("ijba,ib->ja", conj_blocks, element.vectors)  # out[j] = sum_i K_i(x_i, y_j)^H v_i
    return out[0] if single else out


@dataclass(frozen=True)
class QuadraticFormDetail:
    value: float
    scale: float
    route_gap: float


def quadratic_form_detail(kernel: OperatorKernel, etas) -> tuple[QuadraticFormDetail, ...]:
    """The (real) quadratic form of each derivative vector measure in etas
    against the kernel, with its scale and dual-route residual.

    Computed as w^H M w against the derivative block Gram AND independently
    by route 2 (see the module docstring); the two routes must agree to
    1e-12 * scale (scale = max(1, sum ||v_i||^2 * max(1, largest Gram
    diagonal))) or NumericalFailure is raised. For the PSD kernels
    constructed by this package the value is >= -1e-9 * scale.

    The measures must share q and their alphas and points rows (as bytes,
    so -0.0 is not 0.0), or InvalidParameter is raised. The Gram, and the
    plane-wave route 2's phases, are built once; each measure's vectors go
    through the operations a lone measure gets, so each detail is bitwise
    its one-measure detail."""
    etas = tuple(etas)

    def atoms(eta):
        return eta.q, eta.alphas.tobytes(), eta.points.tobytes()

    for eta in etas:
        if eta.m != kernel.m or eta.ell != kernel.ell:
            raise InvalidVector("measure dimensions do not match the kernel")
        if atoms(eta) != atoms(etas[0]):
            raise InvalidParameter("measures must share q, components and atom points")
    if not etas[0].is_nonzero:
        return tuple(QuadraticFormDetail(value=0.0, scale=1.0, route_gap=0.0) for _ in etas)

    q, alphas, allpts = etas[0].q, etas[0].alphas, etas[0].points
    # the distinct atom points in first-occurrence order, and the distinct
    # alphas, each a run of rows [lo, hi) since the rows are sorted by alpha
    first, atom_point = unique_rows(allpts, in_order=True)
    pts = allpts[first]
    n = pts.shape[0]
    starts, component = unique_rows(alphas, in_order=True)
    bounds = [*starts.tolist(), len(alphas)]
    runs = [(tuple(alphas[lo].tolist()), lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    mat = deriv_gram(kernel, pts, q).matrix.entries
    # listed once deriv_gram has refused a Gram past the row cap
    idxs = multi_indices_up_to(kernel.m, q)
    na = len(idxs)
    ell = kernel.ell
    rank = {alpha: a for a, alpha in enumerate(idxs)}
    diag_max = float(np.max(np.abs(np.diag(mat).real))) if mat.size else 1.0
    # every (point, multi-index) slot holds at most one atom vector
    slot = atom_point * na + np.array([rank[alpha] for alpha, _, _ in runs])[component]

    # route 1: w^H M w against the derivative block Gram, one matrix-vector
    # product per measure; the Gram is released before route 2
    q1s = []
    for eta in etas:
        w = np.zeros(n * na * ell, dtype=complex)
        w[slot[:, None] * ell + np.arange(ell)] += eta.vectors
        with np.errstate(over="ignore", invalid="ignore"):
            q1s.append(complex(np.vdot(w, mat @ w)))
    del mat

    # a form that overflows is refused below, by the stage it overflows in
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel.kind == "plane_wave":
            q2c = _frequency_route(kernel, etas, pts, atom_point)
        else:
            # route 2: embed, then pair the function against the measure, one
            # batched evaluation per run of atoms with one alpha. Uses raw
            # unsymmetrized kernel blocks and a different summation order, and
            # never reads the Gram, so agreement cross-checks its assembly.
            q2c = [0j] * len(etas)
            for e, eta in enumerate(etas):
                f = RkhsElement(kernel, alphas, allpts, eta.vectors)
                for alpha, lo, hi in runs:
                    values = rkhs_deriv_eval(f, alpha, allpts[lo:hi])
                    q2c[e] += complex(np.sum(np.conj(eta.vectors[lo:hi]) * values))

    details = []
    for eta, q1c, z2 in zip(etas, q1s, q2c):
        sum_v2 = 0.0  # per-atom vdot: a stacked |v|^2 rounds differently for ell > 1
        for v in eta.vectors:
            sum_v2 += float(np.vdot(v, v).real)
        q1, q2 = q1c.real, z2.real
        scale = max(1.0, sum_v2 * max(1.0, diag_max))
        stages = [name for name, x in (("gram route", q1c), ("pairing route", q2), ("scale", scale))
                  if not cmath.isfinite(x)]
        if stages:
            raise NumericalFailure(f"quadratic form overflows the float range in: {', '.join(stages)}")
        gap = abs(q1 - q2)
        if gap > TWO_ROUTE_TOL * scale or abs(q1c.imag) > TWO_ROUTE_TOL * scale:
            raise NumericalFailure(
                f"quadratic form routes disagree: gram route {q1!r}, pairing route "
                f"{q2!r}, gap {gap:.3e} > {TWO_ROUTE_TOL * scale:.3e}"
            )
        details.append(QuadraticFormDetail(value=q1, scale=scale, route_gap=gap))
    return tuple(details)


def _frequency_route(kernel: OperatorKernel, etas, pts: np.ndarray, atom_point: np.ndarray) -> list[complex]:
    """Route 2 of a plane-wave kernel K(x, y) = sum_a e^{-i (x - y) . xi_a} G_a
    for measures that share their atoms: Q = sum_a u_a^H G_a u_a with
    u_a = sum_c (i xi_a)^alpha_c e^{i x_c . xi_a} v_c, read from the measure's
    atoms; no kernel block is evaluated. Atom c sits at pts[atom_point[c]].
    The phases are taken at x_c - x_0 for the first point x_0: the common
    factor e^{-i x_0 . xi_a} cancels in Q, and far from the origin it would
    cost the phases their accuracy."""
    xis, gs = kernel.measure.xis, kernel.measure.gs
    with np.errstate(over="ignore"):
        offsets = pts - pts[0]
    alphas = etas[0].alphas
    values = [0j] * len(etas)
    # a block of frequencies at a time, so no (atoms x frequencies) table is built
    step = max(1, _BLOCK_ENTRIES // len(atom_point))
    for lo in range(0, xis.shape[0], step):
        freqs = xis[lo : lo + step]
        with np.errstate(over="ignore", invalid="ignore"):
            theta = offsets @ freqs.T
        if not np.all(np.isfinite(theta)):
            raise NumericalFailure("plane-wave phase (x - x0) . xi overflows the float range")
        # one row per atom: (i xi)^alpha e^{i (x - x0) . xi}
        lift = np.exp(1j * theta[atom_point])
        if alphas.any():
            lift *= np.prod((1j * freqs) ** alphas[:, None, :], axis=2)
        for e, eta in enumerate(etas):
            u = lift.T @ eta.vectors
            values[e] += complex(np.sum(np.conj(u) * np.einsum("aij,aj->ai", gs[lo : lo + step], u)))
    return values


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationResult:
    element: RkhsElement
    residual: float  # max block norm of (Gram + ridge I) c - targets
    ridge: float


def _ridge_solve(
    mat: HermitianMatrix, rhs: np.ndarray, ell: int, ridge: float | None, what: str
) -> tuple[np.ndarray, float, float]:
    """Solve (mat + ridge I) c = rhs by PSD Cholesky: (c, residual, ridge),
    the residual being the largest ell-block norm of (mat + ridge I) c - rhs,
    taken without overflow. ridge defaults to 1e-10 * trace/dim (1e-10 times
    the mean of the diagonal if the trace overflows). A failed factorization
    raises IllConditioned naming `what`; a solution or residual outside the
    float range raises NumericalFailure."""
    if ridge is None:
        with np.errstate(over="ignore"):
            tr = float(np.trace(mat.entries).real)
        if math.isfinite(tr):
            ridge = 1e-10 * tr / mat.dim
        else:
            ridge = 1e-10 * float(np.sum(mat.entries.diagonal().real / mat.dim))
    ridge = float(ridge)
    if not math.isfinite(ridge) or ridge < 0.0:
        raise InvalidParameter("ridge must be finite and >= 0")
    try:
        low = cholesky_psd(mat, jitter=ridge)
    except NotPSD as exc:
        raise IllConditioned(f"{what} factorization failed ({exc}); increase the ridge") from exc
    c = solve_cholesky(low, rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = mat.entries @ c + ridge * c - rhs
    # a non-finite solution leaves a non-finite residual
    if not np.all(np.isfinite(resid)):
        raise NumericalFailure(f"{what} solve overflows the float range")
    return c, float(np.max(_frobenius(resid.reshape(-1, ell, 1)))), ridge


def interpolate(
    kernel: OperatorKernel, points, targets, ridge: float | None = None, tol: float = DUPLICATE_POINT_TOL, alphas=None
) -> InterpolationResult:
    """Solve (M + ridge I) c = targets, M[i,j] = d^{alpha_i}_1 d^{alpha_j}_2 K(x_i, x_j),
    and return the element with atoms (alpha_i, x_i, c_i), so that
    rkhs_deriv_eval(element, alpha_i, x_i) ~ target_i.

    targets is an (n, ell) complex array. alphas gives one multi-index per
    point, zeros by default (then M is the plain Gram), each checked as
    Python ints with |alpha_i| <= JET_ORDER_CAP // 2: the diagonal pairs
    each datum with itself (gamma = 2 alpha_i). ridge defaults to
    1e-10 * trace(M)/dim; a Cholesky failure raises IllConditioned. Two
    points with the same alpha closer than tol raise DuplicatePoints.
    """
    m, ell = kernel.m, kernel.ell
    alps, size_what, solve_what = None, "block Gram", "Gram"
    if alphas is not None:
        alps = np.array([validate_multi_index(a, m, JET_ORDER_CAP // 2) for a in alphas], dtype=int).reshape(-1, m)
        if len(alps) != len(points):
            raise InvalidVector(f"got {len(alps)} multi-indices for {len(points)} points")
        size_what = solve_what = "derivative Gram"
    pts, diffs = _check_points(points, m, tol, ell, size_what, alps)
    n = pts.shape[0]
    alps = np.zeros((n, m), dtype=int) if alps is None else alps
    t = np.asarray(targets, dtype=complex)
    if t.shape != (n, ell):
        raise InvalidVector(f"targets must have shape ({n}, {ell}), got {t.shape}")
    mat = HermitianMatrix.built(_hermitian_gram(kernel, pts, diffs, alps[:, None, :]))
    del diffs  # not held through the solve
    c, residual, ridge = _ridge_solve(mat, t.reshape(n * ell), ell, ridge, solve_what)
    element = RkhsElement(kernel=kernel, alphas=alps, points=pts, vectors=c.reshape(n, ell))
    return InterpolationResult(element=element, residual=residual, ridge=ridge)


def hermite_interpolate(
    kernel: OperatorKernel, data, ridge: float | None = None, tol: float = DUPLICATE_POINT_TOL
) -> InterpolationResult:
    """Interpolate values of derivatives: data is a list of (x_i, alpha_i,
    target_i) with distinct (x_i, alpha_i) pairs and ell-vector targets;
    interpolate with alphas."""
    data = list(data)
    if not data:
        raise InvalidParameter("hermite_interpolate needs at least one datum")
    xs, alphas, targets = zip(*data)
    return interpolate(kernel, xs, targets, ridge, tol, alphas)
