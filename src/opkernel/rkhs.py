"""Reproducing-kernel machinery: embeddings, quadratic forms, interpolation.

A vector atomic measure eta = sum_i v_i delta_{x_i} (vectors v_i in C^ell)
embeds into the kernel space as

    K_eta(y) = sum_i K(x_i, y)^H v_i,

and more generally a derivative component at multi-index alpha contributes
(d^alpha_1 K)(x_i, y)^H v_i. The squared norm of the embedding is the
quadratic form

    Q(eta) = sum_{i,j} < d^{a_i}_1 d^{a_j}_2 K(x_i, x_j) v_j, v_i >,

nonnegative for PSD kernels; Q(eta) = 0 with eta != 0 is exactly a failure
of strict positive definiteness (and for q > 0, of the derivative kind).
A VectorAtomMeasure keeps its atoms as the arrays points (A, m) and vectors
(A, ell), merged in one pass, so both routes read them without a per-atom
loop.

quadratic_form always computes Q twice -- once as w^H M w against the
derivative block Gram, once by pairing the embedded function against the
measure -- and asserts the two routes agree to 1e-12 * scale; the check is
never skipped. Both routes evaluate blocks through the kernel's batched
primitives, but route 2 never reads the assembled or symmetrized Gram: it
pairs raw blocks in its own summation order, so agreement is a real check.

Interpolation solves (Gram + ridge I) c = targets by PSD Cholesky and
returns the combination as an element of the kernel space, so evaluation
goes through the same reproducing formulas being tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicatePoints,
    IllConditioned,
    InvalidParameter,
    InvalidVector,
    NotPSD,
    NumericalFailure,
)
from .hermitian import Frozen, HermitianMatrix, cholesky_psd, solve_cholesky, trace
from .kernel import (
    OperatorKernel,
    close_pair,
    deriv_blocks,
    deriv_gram,
    gram,
    kernel_deriv_eval,
    kernel_eval,
    pair_diffs,
)
from .measures import merge_rows, stack_atoms, unique_rows
from .profiles import (
    JET_ORDER_CAP,
    MultiIndex,
    multi_index_order,
    multi_indices_up_to,
    validate_multi_index,
)

TWO_ROUTE_TOL = 1e-12


class VectorAtomMeasure(Frozen):
    """Finite vector-valued atomic measure sum_i v_i delta_{x_i}.

    Atoms are (x, v) pairs, or the arrays points (A, m) and vectors (A,
    ell). Atoms at exactly equal points are merged by summing vectors;
    atoms whose merged vector is exactly zero are dropped (they contribute
    nothing to any pairing). The atoms are stored as the read-only arrays
    points and vectors, in the order in which each point first occurs. The
    measure is nonzero iff any atom survives.
    """

    __slots__ = ("m", "ell", "points", "vectors")

    def __init__(self, m: int, ell: int, atoms=(), *, points=None, vectors=None):
        m, ell = int(m), int(ell)
        if m < 1 or ell < 1:
            raise InvalidVector("need m >= 1 and ell >= 1")
        if points is None:
            points, vectors = tuple(zip(*atoms)) or ((), ())
        bad_point = InvalidVector(f"atom point must be a finite vector of length {m}")
        bad_vector = InvalidVector(f"atom vector must be a finite vector of length {ell}")
        pts = stack_atoms(points, (m,), float, lambda shape: bad_point)
        vecs = stack_atoms(vectors, (ell,), complex, lambda shape: bad_vector)
        if pts.shape[0] != vecs.shape[0]:
            raise InvalidVector(f"got {vecs.shape[0]} atom vectors for {pts.shape[0]} points")
        finite_point = np.isfinite(pts).all(axis=1)
        bad = np.flatnonzero(~(finite_point & np.isfinite(vecs).all(axis=1)))
        if bad.size:
            raise bad_vector if finite_point[bad[0]] else bad_point
        first, vecs = merge_rows(pts, vecs, in_order=True)
        # np.linalg.norm(v) > 0 exactly when some square does not underflow
        keep = (vecs.real ** 2 + vecs.imag ** 2).sum(axis=1) > 0.0
        pts, vecs = pts[first][keep], vecs[keep]
        for a in (pts, vecs):
            a.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "vectors", vecs)

    def __len__(self):
        return self.points.shape[0]

    @property
    def is_nonzero(self) -> bool:
        return len(self) > 0


class DerivVectorMeasure(Frozen):
    """A family of vector atomic measures indexed by multi-indices |alpha| <= q."""

    __slots__ = ("m", "ell", "q", "components")

    def __init__(self, m: int, ell: int, q: int, components):
        m, ell, q = int(m), int(ell), int(q)
        if q < 0 or q > JET_ORDER_CAP:
            raise InvalidParameter(f"need 0 <= q <= {JET_ORDER_CAP}")
        comps = []
        seen = set()
        for alpha, vam in components.items() if isinstance(components, dict) else components:
            alpha = validate_multi_index(alpha, m)
            if multi_index_order(alpha) > q:
                raise InvalidParameter(f"component {alpha} exceeds declared order q={q}")
            if alpha in seen:
                raise InvalidParameter(f"duplicate component {alpha}")
            seen.add(alpha)
            if not isinstance(vam, VectorAtomMeasure):
                vam = VectorAtomMeasure(m, ell, vam)
            if vam.m != m or vam.ell != ell:
                raise InvalidVector("component measure has mismatched dimensions")
            comps.append((alpha, vam))
        comps.sort(key=lambda av: (multi_index_order(av[0]), av[0]))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "components", tuple(comps))

    @staticmethod
    def plain(vam: VectorAtomMeasure) -> "DerivVectorMeasure":
        """Wrap an order-0 measure."""
        return DerivVectorMeasure(vam.m, vam.ell, 0, {(0,) * vam.m: vam})

    @property
    def is_nonzero(self) -> bool:
        return any(vam.is_nonzero for _, vam in self.components)


@dataclass(frozen=True)
class RkhsElement:
    """A finite combination sum_i (d^{alpha_i}_1 K)(x_i, .)^H v_i."""

    kernel: OperatorKernel
    atoms: tuple[tuple[MultiIndex, np.ndarray, np.ndarray], ...]  # (alpha, x, v)


def embed(kernel: OperatorKernel, eta: DerivVectorMeasure) -> RkhsElement:
    """Embed a derivative vector measure as an element of the kernel space."""
    if eta.m != kernel.m or eta.ell != kernel.ell:
        raise InvalidVector("measure dimensions do not match the kernel")
    atoms = tuple(
        (alpha, x, v) for alpha, vam in eta.components for x, v in zip(vam.points, vam.vectors)
    )
    return RkhsElement(kernel=kernel, atoms=atoms)


def rkhs_eval(element: RkhsElement, y) -> np.ndarray:
    """Value of the element at y: sum_i (d^{alpha_i}_1 K)(x_i, y)^H v_i."""
    return rkhs_deriv_eval(element, (0,) * element.kernel.m, y)


def rkhs_deriv_eval(element: RkhsElement, beta: MultiIndex, y) -> np.ndarray:
    """Derivative of the element: sum_i (d^{alpha_i}_1 d^beta_2 K)(x_i, y)^H v_i."""
    k = element.kernel
    beta = validate_multi_index(beta, k.m)
    out = np.zeros(k.ell, dtype=complex)
    for alpha, x, v in element.atoms:
        if multi_index_order(alpha) + multi_index_order(beta) == 0:
            block = kernel_eval(k, x, y)
        else:
            block = kernel_deriv_eval(k, alpha, beta, x, y)
        out += block.conj().T @ v
    return out


@dataclass(frozen=True)
class QuadraticFormDetail:
    value: float
    scale: float
    route_gap: float


def quadratic_form_detail(kernel: OperatorKernel, eta: DerivVectorMeasure) -> QuadraticFormDetail:
    """Quadratic form of eta against the kernel, with its scale and the
    dual-route residual. See quadratic_form."""
    if eta.m != kernel.m or eta.ell != kernel.ell:
        raise InvalidVector("measure dimensions do not match the kernel")
    if not eta.is_nonzero:
        return QuadraticFormDetail(value=0.0, scale=1.0, route_gap=0.0)

    # the distinct atom points of all components, in first-occurrence order
    allpts = np.concatenate([vam.points for _, vam in eta.components])
    first, atom_point = unique_rows(allpts, in_order=True)
    pts = allpts[first]
    n = pts.shape[0]
    idxs = multi_indices_up_to(kernel.m, eta.q)
    na = len(idxs)
    ell = kernel.ell
    rank = {alpha: a for a, alpha in enumerate(idxs)}

    dg = deriv_gram(kernel, pts, eta.q)
    mat = dg.matrix.entries

    # every (point, multi-index) slot holds at most one atom vector
    vs = np.concatenate([vam.vectors for _, vam in eta.components])
    slot = atom_point * na + np.concatenate([np.full(len(vam), rank[alpha]) for alpha, vam in eta.components])
    w = np.zeros(n * na * ell, dtype=complex)
    w[slot[:, None] * ell + np.arange(ell)] += vs
    sum_v2 = 0.0  # per-atom vdot: a stacked |v|^2 rounds differently for ell > 1
    for v in vs:
        sum_v2 += float(np.vdot(v, v).real)

    # route 1: stacked quadratic form against the derivative block Gram
    q1c = complex(np.vdot(w, mat @ w))
    q1 = q1c.real

    # route 2: embed, then pair the function against the measure. Uses raw
    # unsymmetrized kernel evaluations and a different summation order, and
    # never reads `mat`, so agreement genuinely cross-checks the Gram
    # assembly. For q = 0 the pairing is batched (all atom pairs at once);
    # for q > 0 it walks the atoms through kernel_deriv_eval.
    if eta.q == 0:
        vam0 = eta.components[0][1]
        xs, vs = vam0.points, vam0.vectors
        nat = xs.shape[0]
        blocks = kernel.eval_diffs(pair_diffs(xs)[0]).reshape(nat, nat, ell, ell)
        # T[i] = sum_j K(x_j, x_i)^H v_j ;  q2 = sum_i <T[i], v_i>
        paired = np.einsum("jiba,jb->ia", blocks.conj(), vs)
        q2c = complex(np.sum(np.conj(vs) * paired))
    else:
        element = embed(kernel, eta)
        q2c = 0.0 + 0.0j
        for alpha, vam in eta.components:
            for x, v in zip(vam.points, vam.vectors):
                val = rkhs_deriv_eval(element, alpha, x)
                q2c += np.vdot(v, val)
    q2 = q2c.real

    diag_max = float(np.max(np.abs(np.diag(mat).real))) if mat.size else 1.0
    scale = max(1.0, sum_v2 * max(1.0, diag_max))
    gap = abs(q1 - q2)
    if gap > TWO_ROUTE_TOL * scale or abs(q1c.imag) > TWO_ROUTE_TOL * scale:
        raise NumericalFailure(
            f"quadratic form routes disagree: gram route {q1!r}, pairing route "
            f"{q2!r}, gap {gap:.3e} > {TWO_ROUTE_TOL * scale:.3e}"
        )
    return QuadraticFormDetail(value=q1, scale=scale, route_gap=gap)


def quadratic_form(kernel: OperatorKernel, eta: DerivVectorMeasure) -> float:
    """The (real) quadratic form of a derivative vector measure.

    Computed as w^H M w against the derivative block Gram AND independently
    by embedding eta and pairing the resulting function against eta; the two
    routes must agree to 1e-12 * scale (scale = max(1, sum ||v_i||^2 *
    max(1, largest Gram diagonal))) or NumericalFailure is raised. For the
    PSD kernels constructed by this package the value is >= -1e-9 * scale.
    """
    return quadratic_form_detail(kernel, eta).value


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationResult:
    element: RkhsElement
    residual: float  # max block norm of (Gram + ridge I) c - targets
    ridge: float


def _default_ridge(mat: HermitianMatrix) -> float:
    return 1e-10 * trace(mat) / mat.dim


def interpolate(kernel: OperatorKernel, points, targets, ridge: float | None = None) -> InterpolationResult:
    """Solve (Gram + ridge I) c = targets; the element has atoms (0, x_i, c_i).

    targets is an (n, ell) complex array. ridge defaults to
    1e-10 * trace(Gram)/dim; a Cholesky failure raises IllConditioned.
    """
    g = gram(kernel, points)
    n, ell = g.points.shape[0], g.ell
    t = np.asarray(targets, dtype=complex)
    if t.shape != (n, ell):
        raise InvalidVector(f"targets must have shape ({n}, {ell}), got {t.shape}")
    if ridge is None:
        ridge = _default_ridge(g.matrix)
    ridge = float(ridge)
    if not math.isfinite(ridge) or ridge < 0.0:
        raise InvalidParameter("ridge must be finite and >= 0")
    try:
        low = cholesky_psd(g.matrix, jitter=ridge)
    except NotPSD as exc:
        raise IllConditioned(
            f"Gram factorization failed ({exc}); increase the ridge"
        ) from exc
    rhs = t.reshape(n * ell)
    c = solve_cholesky(low, rhs)
    resid_vec = (g.matrix.entries @ c + ridge * c - rhs).reshape(n, ell)
    residual = float(np.max(np.linalg.norm(resid_vec, axis=1)))
    zero = (0,) * kernel.m
    atoms = tuple((zero, g.points[i].copy(), c[i * ell : (i + 1) * ell].copy()) for i in range(n))
    return InterpolationResult(
        element=RkhsElement(kernel=kernel, atoms=atoms), residual=residual, ridge=ridge
    )


def hermite_interpolate(kernel: OperatorKernel, data, ridge: float | None = None) -> InterpolationResult:
    """Interpolate values of derivatives: data is a list of (x_i, alpha_i,
    target_i) with distinct (x_i, alpha_i) pairs and ell-vector targets.

    Builds the square system M[i,j] = d^{alpha_i}_1 d^{alpha_j}_2 K(x_i, x_j)
    (rows of the derivative block Gram restricted to the requested pairs),
    solves (M + ridge I) c = targets, and returns the element with atoms
    (alpha_i, x_i, c_i), so rkhs_deriv_eval(element, alpha_i, x_i) ~ target_i.
    """
    parsed = []
    for x, alpha, tgt in data:
        x = np.asarray(x, dtype=float)
        alpha = validate_multi_index(alpha, kernel.m)
        tgt = np.asarray(tgt, dtype=complex)
        if x.shape != (kernel.m,) or not np.all(np.isfinite(x)):
            raise InvalidVector(f"data point must be a finite vector of length {kernel.m}")
        if tgt.shape != (kernel.ell,):
            raise InvalidVector(f"target must be a vector of length {kernel.ell}")
        parsed.append((x, alpha, tgt))
    if not parsed:
        raise InvalidParameter("hermite_interpolate needs at least one datum")
    xs = np.stack([x for x, _, _ in parsed])
    alphas = np.array([alpha for _, alpha, _ in parsed])
    diffs, sq = pair_diffs(xs)
    pair = close_pair(sq, 1e-12, np.all(alphas[:, None] == alphas[None, :], axis=2))
    if pair is not None:
        raise DuplicatePoints(f"data {pair[0]} and {pair[1]} request the same (x, alpha)")

    nrow = len(parsed)
    ell = kernel.ell
    rows = [(i, alpha) for i, (_, alpha, _) in enumerate(parsed)]
    mat = HermitianMatrix(deriv_blocks(kernel, diffs, rows))
    if ridge is None:
        ridge = _default_ridge(mat)
    ridge = float(ridge)
    if not math.isfinite(ridge) or ridge < 0.0:
        raise InvalidParameter("ridge must be finite and >= 0")
    try:
        low = cholesky_psd(mat, jitter=ridge)
    except NotPSD as exc:
        raise IllConditioned(
            f"derivative Gram factorization failed ({exc}); increase the ridge"
        ) from exc
    rhs = np.concatenate([tgt for _, _, tgt in parsed])
    c = solve_cholesky(low, rhs)
    resid_vec = (mat.entries @ c + ridge * c - rhs).reshape(nrow, ell)
    residual = float(np.max(np.linalg.norm(resid_vec, axis=1)))
    atoms = tuple(
        (ai, xi.copy(), c[i * ell : (i + 1) * ell].copy())
        for i, (xi, ai, _) in enumerate(parsed)
    )
    return InterpolationResult(
        element=RkhsElement(kernel=kernel, atoms=atoms), residual=residual, ridge=ridge
    )

