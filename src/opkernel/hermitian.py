"""Dense Hermitian linear algebra for small complex matrices.

Every function here takes the array it is given as Hermitian: every block
Gram is built Hermitian (kernel._hermitian_gram) and measures.merge_psd_atoms
symmetrizes the atom matrices that come from outside, so no matrix is
symmetrized again on its way to an eigensolve or a factorization.
HermitianMatrix is the read-only holder of a block Gram. Matrices stay at desk
scale (block Grams of at most kernel.MAX_GRAM_ROWS = 2048 rows), so plain
dense algorithms are fine. The checked eigensolver also works over stacks
of matrices, so a measure's atoms are validated with one call.
factor_margin reads a Gram's eigenvalue margin from a factor F of it,
F F^H, through one checked SVD, without forming the Gram.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, NotPSD, NumericalFailure

# Relative PSD tolerance: cutoffs scale with max(1, trace).
PSD_TOL = 1e-10
# Eigendecomposition quality requirements, relative to max(1, ||A||_F); the
# reconstruction residual of an A whose norm overflows is taken on A divided
# by its largest entry.
EIG_RECON_TOL = 1e-12
EIG_UNITARY_TOL = 1e-12


class Frozen:
    """Base of the package's immutable classes: __init__ sets each attribute
    once through object.__setattr__, and nothing can set one later."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def hermitian_part(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """(A + B^H)/2 over the last two axes (B = A: the Hermitian part), as a
    new C-ordered array: B^H is written into it, then A is added and the sum
    halved in place, so no other array of its size is made. Where that sum is
    not finite (it overflows above about 9e307), the halves are added
    instead; elsewhere halving first would drop the last bit of a subnormal."""
    b = a if b is None else b
    # the layout is part of the result: the eigensolves and products
    # downstream round differently on a Fortran-ordered matrix
    h = np.conj(np.swapaxes(b, -1, -2), out=np.empty(a.shape, dtype=a.dtype))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite input stays so, for the caller to check
        h += a
        h /= 2
        big = ~np.isfinite(h)
        if big.any():
            h[big] = a[big] / 2 + np.conj(np.swapaxes(b, -1, -2))[big] / 2
    return h


class HermitianMatrix(Frozen):
    """A block Gram, Hermitian by construction, held read-only as it is: no
    copy, no symmetrizing."""

    __slots__ = ("entries",)

    def __init__(self, h: np.ndarray):
        h.flags.writeable = False
        object.__setattr__(self, "entries", h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class PsdCheck(NamedTuple):
    ok: bool
    min_eigenvalue: float
    witness: np.ndarray | None  # unit eigenvector when not ok


def _frobenius(x: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Frobenius norms over the last two axes, without a warning: the square
    root of the summed conj(x) * x, as np.linalg.norm takes it, with the
    products written in place into work (an array of x's shape and dtype)
    or into one new array. A matrix whose sum of squares overflows (entries
    above about 1e154) is divided by its largest entry first, so its norm is
    inf only when the norm itself leaves the float range (and not finite for
    entries that are not)."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.conj(x, out=work)
        sq *= x
        n = np.asarray(np.sqrt(np.add.reduce(sq.real, axis=(-2, -1))))
        big = np.isinf(n)
        if big.any():
            xs = x[big] if x.ndim > 2 else x[None]
            top = np.max(np.abs(xs), axis=(-2, -1))
            n[big] = top * np.linalg.norm(xs / top[:, None, None], axis=(-2, -1))
    return n


def _eigh_checked(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh over the last two axes of Hermitian h, with the
    reconstruction and unitarity residuals of every matrix enforced (a
    matrix whose Frobenius norm overflows is checked divided by its largest
    entry, with its eigenvalues). An eigenvalue outside the float range, or
    a residual that is not a number, raises NumericalFailure."""
    w, v = np.linalg.eigh(h)
    if not np.all(np.isfinite(w)):
        raise NumericalFailure("eigendecomposition: an eigenvalue overflows the float range")
    norm, hs, ws = _frobenius(h), h, w
    big = np.isinf(norm)
    if big.any():
        # a norm past the float range would make any residual pass: check
        # such a matrix and its eigenvalues divided by its largest entry
        top = np.where(big, np.max(np.maximum(np.abs(h.real), np.abs(h.imag)), axis=(-2, -1)), 1.0)
        hs, ws = h / top[..., None, None], w / top[..., None]
        norm = _frobenius(hs)
    recon, unitary = _eig_residuals(hs, ws, v)
    if not np.all(recon <= EIG_RECON_TOL * np.maximum(1.0, norm)):
        raise NumericalFailure("eigendecomposition reconstruction residual too large")
    if np.any(unitary > EIG_UNITARY_TOL):
        raise NumericalFailure("eigenvector matrix is not unitary to tolerance")
    return w, v


def _eig_residuals(h: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius norms of the reconstruction residual (V * w) V^H - h and
    of the unitarity residual V^H V - I over the last two axes. Besides
    V^H, two arrays of h's size hold every product, difference and square,
    in place, in the order of those expressions."""
    vh = np.conj(np.swapaxes(v, -1, -2))
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = v * w[..., None, :]
        res = scaled @ vh
        res -= h
    recon = _frobenius(res, work=scaled)
    np.matmul(vh, v, out=res)
    res -= np.eye(h.shape[-1])
    return recon, _frobenius(res, work=scaled)


def eigen_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition A = V diag(w) V^H of Hermitian a, as (w, V)
    with w ascending.

    The decomposition quality is enforced, not assumed: reconstruction and
    unitarity residuals beyond tolerance raise NumericalFailure.
    """
    return _eigh_checked(a)


def psd_margin(a: np.ndarray) -> tuple:
    """(lambda_min, max(1, trace), a unit eigenvector of lambda_min) of
    Hermitian a: every eigenvalue verdict compares lambda_min against
    tol * max(1, trace), so a trace that overflows raises NumericalFailure.

    One matrix gives two floats and a vector. A stack (..., n, n) takes one
    checked eigensolve and gives arrays over its leading axes."""
    w, v = _eigh_checked(a)
    with np.errstate(over="ignore"):
        tr = np.trace(a, axis1=-2, axis2=-1).real
    if not np.all(np.isfinite(tr)):
        raise NumericalFailure("PSD check: the trace overflows the float range")
    if a.ndim > 2:
        return w[..., 0], np.maximum(1.0, tr), v[..., 0]
    return float(w[0]), max(1.0, float(tr)), v[:, 0].copy()


def factor_margin(f: np.ndarray) -> tuple:
    """psd_margin of the Grams F F^H of a stack (..., N, r) of factors F,
    read from one SVD F = U S V^H, with U square, without forming a Gram:
    lambda_min is exactly 0.0 where N > r (F F^H has rank at most r) and
    sigma_min^2 otherwise, the scale is max(1, ||F||_F^2) (the Gram's
    trace), and the witness U[..., :, -1] is a unit vector with
    F F^H u = lambda_min u. V^H keeps min(N, r) rows, so no array holds
    more than N * max(N, r) entries.

    The guards keep psd_margin's form and bounds: a scale that overflows
    raises the trace's NumericalFailure; the reconstruction residual
    ||U S V^H - F||_F must stay within EIG_RECON_TOL * max(1, ||F||_F), the
    unitarity residuals U^H U - I and V^H (V^H)^H - I within
    EIG_UNITARY_TOL, and the witness's own form ||F^H u||^2 within
    EIG_RECON_TOL * scale of lambda_min."""
    norm = _frobenius(f)
    with np.errstate(over="ignore"):
        scale = np.maximum(1.0, norm * norm)
    if not np.all(np.isfinite(scale)):
        raise NumericalFailure("PSD check: the trace overflows the float range")
    try:
        u, s, vh = np.linalg.svd(f, full_matrices=f.shape[-2] > f.shape[-1])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("singular value decomposition did not converge") from exc
    k = s.shape[-1]
    recon = _frobenius((u[..., :k] * s[..., None, :]) @ vh[..., :k, :] - f)
    if not np.all(recon <= EIG_RECON_TOL * np.maximum(1.0, norm)):
        raise NumericalFailure("singular value decomposition reconstruction residual too large")
    for res in (np.conj(np.swapaxes(u, -1, -2)) @ u, vh @ np.conj(np.swapaxes(vh, -1, -2))):
        diag = np.arange(res.shape[-1])
        res[..., diag, diag] -= 1.0
        if np.any(_frobenius(res) > EIG_UNITARY_TOL):
            raise NumericalFailure("singular vector matrix is not unitary to tolerance")
    witness = u[..., -1]
    lam = np.zeros(norm.shape) if f.shape[-2] > k else s[..., -1] ** 2
    form = _frobenius(np.conj(np.swapaxes(f, -1, -2)) @ witness[..., None]) ** 2
    if not np.all(np.abs(form - lam) <= EIG_RECON_TOL * scale):
        raise NumericalFailure("witness form ||F^H u||^2 differs from lambda_min beyond tolerance")
    return lam, scale, witness


def is_psd(a: np.ndarray, tol: float = PSD_TOL) -> PsdCheck:
    """PSD test: min eigenvalue >= -tol * max(1, trace).

    On failure the witness is a unit eigenvector of the offending eigenvalue.
    """
    lam, scale, vec = psd_margin(a)
    ok = lam >= -tol * scale
    return PsdCheck(ok, lam, None if ok else vec)


def cholesky_psd(a: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of A + jitter*I, A Hermitian, tolerant of PSD rank deficiency.

    LAPACK factors every positive definite input. Only when it refuses does
    a pivot loop run, which clamps pivots within 1e-10*scale of zero and
    zeroes their column (exact for genuinely PSD inputs) and raises NotPSD
    carrying the index of a pivot below -1e-10*scale. Either way the
    residual ||L L^H - (A + jitter I)||_F <= 1e-10 * scale is enforced, with
    scale = max(1, ||A + jitter I||_F); a scale that overflows raises
    NumericalFailure.
    """
    if not np.isfinite(jitter) or jitter < 0.0:
        raise InvalidMatrix("jitter must be a finite nonnegative real")
    with np.errstate(over="ignore"):
        m = a + jitter * np.eye(a.shape[0])
    norm = float(_frobenius(m))
    if not math.isfinite(norm):
        raise NumericalFailure("Cholesky factorization: the matrix norm overflows the float range")
    scale = max(1.0, norm)
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        low = _clamped_cholesky(m, 1e-10 * scale)
    resid = float(_frobenius(low @ low.conj().T - m))
    if resid > 1e-10 * scale:
        raise NotPSD(
            f"Cholesky residual {resid:.3e} exceeds tolerance; "
            "matrix is indefinite in a rank-deficient direction",
            pivot_index=None,
        )
    return low


def _clamped_cholesky(m: np.ndarray, piv_tol: float) -> np.ndarray:
    """Column-by-column Cholesky of m that zeroes the column of a pivot in
    [-piv_tol, piv_tol] and raises NotPSD at a pivot below -piv_tol."""
    n = m.shape[0]
    low = np.zeros((n, n), dtype=complex)
    for k in range(n):
        d = float(m[k, k].real - np.sum(np.abs(low[k, :k]) ** 2))
        if d < -piv_tol:
            raise NotPSD(
                f"Cholesky pivot {k} is negative beyond tolerance ({d:.3e})",
                pivot_index=k,
            )
        if d <= piv_tol:
            # Rank-deficient direction: for PSD input the entire Schur
            # complement column vanishes with the pivot, so zero it.
            low[k, k] = np.sqrt(max(d, 0.0))
            continue
        low[k, k] = np.sqrt(d)
        if k + 1 < n:
            col = m[k + 1 :, k] - low[k + 1 :, :k] @ low[k, :k].conj()
            low[k + 1 :, k] = col / low[k, k]
    return low


def solve_cholesky(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^H x = rhs given the lower factor from cholesky_psd.

    Zero pivots (rank-deficient PSD directions) get a zero component, and
    the rest solve L_P L_P^H x_P = rhs_P on the block P of nonzero pivots,
    i.e. the minimum-norm-flavored solution on the range of L.
    """
    x = np.zeros(low.shape[0], dtype=complex)
    keep = np.diagonal(low) != 0
    lp = low[np.ix_(keep, keep)]
    x[keep] = np.linalg.solve(lp.conj().T, np.linalg.solve(lp, rhs[keep]))
    return x
