"""Dense Hermitian linear algebra for small complex matrices.

The toolkit funnels every matrix through HermitianMatrix, which symmetrizes
on construction, so downstream code never has to re-check adjoint symmetry.
Matrices stay small (block Grams of a few hundred rows at most), so plain
dense algorithms are fine. The checked eigensolver also works over stacks
of matrices, so a measure's atoms are validated with one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrix, NotPSD, NumericalFailure

# Relative PSD tolerance: cutoffs scale with max(1, trace).
PSD_TOL = 1e-10
# Eigendecomposition quality requirements, relative to max(1, ||A||_F).
EIG_RECON_TOL = 1e-12
EIG_UNITARY_TOL = 1e-12


class Frozen:
    """Base of the package's immutable classes: __init__ sets each attribute
    once through object.__setattr__, and nothing can set one later."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class HermitianMatrix(Frozen):
    """Immutable square complex matrix, exactly self-adjoint.

    Construction symmetrizes via (A + A^H)/2, which also zeroes the
    imaginary part of the diagonal exactly (x + conj(x) has imag 0 in
    IEEE arithmetic). Non-finite or non-square input raises InvalidMatrix.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise InvalidMatrix("matrix has non-finite entries")
        h = (a + a.conj().T) / 2
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


def _eigh_checked(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh over the last two axes of Hermitian h, with the
    reconstruction and unitarity residuals of every matrix enforced."""
    w, v = np.linalg.eigh(h)
    vh = np.conj(np.swapaxes(v, -1, -2))
    scale = np.maximum(1.0, np.linalg.norm(h, axis=(-2, -1)))
    if np.any(np.linalg.norm((v * w[..., None, :]) @ vh - h, axis=(-2, -1)) > EIG_RECON_TOL * scale):
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


def min_eigenvalue(a: HermitianMatrix | np.ndarray) -> float:
    """Smallest eigenvalue (eigenvalues of a Hermitian matrix are real)."""
    return float(eigen_hermitian(a).eigenvalues[0])


def trace(a: HermitianMatrix | np.ndarray) -> float:
    """Real trace (the diagonal of a Hermitian matrix is real)."""
    a = _as_hermitian(a)
    return float(np.trace(a.entries).real)


def is_psd(a: HermitianMatrix | np.ndarray, tol: float = PSD_TOL) -> PsdCheck:
    """PSD test: min eigenvalue >= -tol * max(1, trace).

    On failure the witness is a unit eigenvector of the offending eigenvalue.
    """
    a = _as_hermitian(a)
    dec = eigen_hermitian(a)
    lam = float(dec.eigenvalues[0])
    cutoff = -tol * max(1.0, trace(a))
    if lam >= cutoff:
        return PsdCheck(True, lam, None)
    return PsdCheck(False, lam, dec.eigenvectors[:, 0].copy())


def cholesky_psd(a: HermitianMatrix | np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor of A + jitter*I, tolerant of PSD rank deficiency.

    Pivots within tolerance of zero are clamped to zero and their column is
    zeroed, which is exact for genuinely PSD inputs. A pivot below
    -1e-10*scale raises NotPSD carrying the pivot index. The final residual
    ||L L^H - (A + jitter I)||_F <= 1e-10 * scale is enforced.
    """
    a = _as_hermitian(a)
    if not np.isfinite(jitter) or jitter < 0.0:
        raise InvalidMatrix("jitter must be a finite nonnegative real")
    n = a.dim
    m = a.entries + jitter * np.eye(n)
    scale = max(1.0, float(np.linalg.norm(m)))
    piv_tol = 1e-10 * scale
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
    resid = float(np.linalg.norm(low @ low.conj().T - m))
    if resid > 1e-10 * scale:
        raise NotPSD(
            f"Cholesky residual {resid:.3e} exceeds tolerance; "
            "matrix is indefinite in a rank-deficient direction",
            pivot_index=None,
        )
    return low


def solve_cholesky(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^H x = rhs given the lower factor from cholesky_psd.

    Zero pivots (rank-deficient PSD directions) get a zero component, i.e.
    the minimum-norm-flavored solution on the range of L.
    """
    n = low.shape[0]
    y = np.zeros(n, dtype=complex)
    for i in range(n):
        s = rhs[i] - low[i, :i] @ y[:i]
        y[i] = s / low[i, i] if low[i, i] != 0 else 0.0
    x = np.zeros(n, dtype=complex)
    upper = low.conj().T
    for i in range(n - 1, -1, -1):
        s = y[i] - upper[i, i + 1 :] @ x[i + 1 :]
        x[i] = s / upper[i, i] if upper[i, i] != 0 else 0.0
    return x
