"""Dense Hermitian linear algebra for small complex matrices.

The toolkit funnels every matrix through HermitianMatrix, which symmetrizes
on construction, so downstream code never has to re-check adjoint symmetry.
Matrices stay small (block Grams of a few hundred rows at most), so plain
dense algorithms are fine. The checked eigensolver also works over stacks
of matrices, so a measure's atoms are validated with one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^H)/2 over the last two axes, as a new C-ordered array: A^H is
    written into it, then A is added and the sum halved in place, so no other
    array of its size is made. Where that sum is not finite (it overflows
    above about 9e307), the halves are added instead; elsewhere halving first
    would drop the last bit of a subnormal entry."""
    # the layout is part of the result: the eigensolves and products
    # downstream round differently on a Fortran-ordered matrix
    h = np.conj(np.swapaxes(a, -1, -2), out=np.empty(a.shape, dtype=a.dtype))
    with np.errstate(over="ignore", invalid="ignore"):
        h += a
        h /= 2
    big = ~np.isfinite(h)
    if big.any():
        h[big] = a[big] / 2 + np.conj(np.swapaxes(a, -1, -2))[big] / 2
    return h


class HermitianMatrix(Frozen):
    """Immutable square complex matrix, exactly self-adjoint.

    Construction symmetrizes via hermitian_part, which also zeroes the
    imaginary part of the diagonal exactly (x + conj(x) has imag 0 in
    IEEE arithmetic). Non-finite or non-square input raises InvalidMatrix.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidMatrix("matrix has non-finite entries")
        h = hermitian_part(a)
        h.flags.writeable = False
        object.__setattr__(self, "entries", h)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending; columns of eigenvectors are the eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class PsdCheck(NamedTuple):
    ok: bool
    min_eigenvalue: float
    witness: np.ndarray | None  # unit eigenvector when not ok


def _as_hermitian(a) -> HermitianMatrix:
    return a if isinstance(a, HermitianMatrix) else HermitianMatrix(a)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes, without a warning. A matrix
    whose sum of squares overflows (entries above about 1e154) is divided by
    its largest entry first, so its norm is inf only when the norm itself
    leaves the float range (and not finite for entries that are not)."""
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.asarray(np.linalg.norm(x, axis=(-2, -1)))
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
    vh = np.conj(np.swapaxes(v, -1, -2))
    norm, hs, ws = _frobenius(h), h, w
    big = np.isinf(norm)
    if big.any():
        # a norm past the float range would make any residual pass: check
        # such a matrix and its eigenvalues divided by its largest entry
        top = np.where(big, np.max(np.maximum(np.abs(h.real), np.abs(h.imag)), axis=(-2, -1)), 1.0)
        hs, ws = h / top[..., None, None], w / top[..., None]
        norm = _frobenius(hs)
    with np.errstate(over="ignore", invalid="ignore"):
        recon = (v * ws[..., None, :]) @ vh - hs
    if not np.all(_frobenius(recon) <= EIG_RECON_TOL * np.maximum(1.0, norm)):
        raise NumericalFailure("eigendecomposition reconstruction residual too large")
    if np.any(np.linalg.norm(vh @ v - np.eye(h.shape[-1]), axis=(-2, -1)) > EIG_UNITARY_TOL):
        raise NumericalFailure("eigenvector matrix is not unitary to tolerance")
    return w, v


def eigen_hermitian(a: HermitianMatrix | np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition A = V diag(w) V^H with w ascending.

    The decomposition quality is enforced, not assumed: reconstruction and
    unitarity residuals beyond tolerance raise NumericalFailure.
    """
    w, v = _eigh_checked(_as_hermitian(a).entries)
    w.flags.writeable = False
    v.flags.writeable = False
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def psd_margin(a: HermitianMatrix | np.ndarray) -> tuple:
    """(lambda_min, max(1, trace), a unit eigenvector of lambda_min): every
    eigenvalue verdict compares lambda_min against tol * max(1, trace), so a
    trace that overflows raises NumericalFailure.

    One matrix gives two floats and a vector. A stack (..., n, n) of
    Hermitian matrices, such as hermitian_part returns, is taken as given,
    with one checked eigensolve, and gives arrays over its leading axes."""
    stacked = isinstance(a, np.ndarray) and a.ndim > 2
    h = a if stacked else _as_hermitian(a).entries
    w, v = _eigh_checked(h)
    with np.errstate(over="ignore"):
        tr = np.trace(h, axis1=-2, axis2=-1).real
    if not np.all(np.isfinite(tr)):
        raise NumericalFailure("PSD check: the trace overflows the float range")
    if stacked:
        return w[..., 0], np.maximum(1.0, tr), v[..., 0]
    return float(w[0]), max(1.0, float(tr)), v[:, 0].copy()


def is_psd(a: HermitianMatrix | np.ndarray, tol: float = PSD_TOL) -> PsdCheck:
    """PSD test: min eigenvalue >= -tol * max(1, trace).

    On failure the witness is a unit eigenvector of the offending eigenvalue.
    """
    lam, scale, vec = psd_margin(a)
    ok = lam >= -tol * scale
    return PsdCheck(ok, lam, None if ok else vec)


def cholesky_psd(a: HermitianMatrix | np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of A + jitter*I, tolerant of PSD rank deficiency.

    LAPACK factors every positive definite input. Only when it refuses does
    a pivot loop run, which clamps pivots within 1e-10*scale of zero and
    zeroes their column (exact for genuinely PSD inputs) and raises NotPSD
    carrying the index of a pivot below -1e-10*scale. Either way the
    residual ||L L^H - (A + jitter I)||_F <= 1e-10 * scale is enforced, with
    scale = max(1, ||A + jitter I||_F); a scale that overflows raises
    NumericalFailure.
    """
    a = _as_hermitian(a)
    if not np.isfinite(jitter) or jitter < 0.0:
        raise InvalidMatrix("jitter must be a finite nonnegative real")
    with np.errstate(over="ignore"):
        m = a.entries + jitter * np.eye(a.dim)
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
