"""Closed-form oracles for kernel derivatives, shared by the test modules."""

import math

import numpy as np

from opkernel.errors import UnsupportedJet
from opkernel.hermitian import hermitian_part
from opkernel.kernel import OperatorKernel, deriv_blocks, kernel_deriv_eval
from opkernel.measures import unique_rows
from opkernel.profiles import JET_ORDER_CAP, MultiIndex, validate_multi_index


def block_matrix(blocks: np.ndarray) -> np.ndarray:
    """The matrix of a (rows, cols, ell, ell) block table: entry (r * ell +
    i, c * ell + j) is blocks[r, c, i, j]."""
    rows, cols, ell, _ = blocks.shape
    return np.swapaxes(blocks, 1, 2).reshape(rows * ell, cols * ell)


def _full_table(kernel, points: np.ndarray, alphas: np.ndarray | None) -> np.ndarray:
    """The matrix of every raw block of the n^2 pair table from deriv_blocks,
    laid out by block_matrix: point i has one row per multi-index of
    alphas[i] (alphas (n, r, m)), or the one row of the zero index (alphas
    None)."""
    n, m = points.shape
    alphas = np.zeros((n, 1, m), dtype=int) if alphas is None else alphas
    rows = np.repeat(points, alphas.shape[1], axis=0)  # the point of each row
    with np.errstate(over="ignore"):
        diffs = rows[:, None, :] - rows[None, :, :]
    return block_matrix(deriv_blocks(kernel, diffs, alphas.reshape(-1, m), alphas.reshape(-1, m)))


def upper_triangle_gram(raw: np.ndarray, n: int, radial0: bool = False) -> np.ndarray:
    """The block Gram of n points that a raw block matrix (every block of the
    n^2 pair table, laid out) gives by the upper-triangle rule, each block
    taken on its own: block (i, j), i < j, raw; a point's own block (i, i)
    through hermitian_part; block (j, i) the adjoint of block (i, j), its
    zeros +0.0. With radial0 (radial blocks at order 0) every block is its
    own hermitian_part."""
    size = raw.shape[0] // n
    blocks = np.swapaxes(raw.reshape(n, size, n, size), 1, 2)  # blocks[i, j] is block (i, j)
    out = hermitian_part(blocks)
    if not radial0:
        i, j = np.triu_indices(n, 1)
        out[i, j] = blocks[i, j]
        out[j, i] = np.conj(np.swapaxes(blocks[i, j], -1, -2)) + 0.0
    return np.swapaxes(out, 1, 2).reshape(raw.shape)


def full_table_gram(kernel, points: np.ndarray, alphas: np.ndarray | None = None) -> np.ndarray:
    """The block Gram of kernel at (n, m) points by the upper-triangle rule
    (upper_triangle_gram), each block taken from the full n^2 pair table
    (_full_table): the bits the assembler must give."""
    radial0 = getattr(kernel, "kind", None) == "radial" and (alphas is None or not alphas.any())
    return upper_triangle_gram(_full_table(kernel, points, alphas), len(points), radial0)


def symmetrized_full_table_gram(kernel, points: np.ndarray, alphas: np.ndarray | None = None) -> np.ndarray:
    """The block Gram as it was assembled before the lower blocks became the
    adjoints of the upper ones: the full n^2 pair table (_full_table),
    symmetrized as a whole by hermitian_part."""
    return hermitian_part(_full_table(kernel, points, alphas))


def conj_blocks(k, alphas: np.ndarray, points: np.ndarray, beta: MultiIndex, ys: np.ndarray) -> np.ndarray:
    """Conjugated blocks conj((d^{alpha_i}_1 d^beta_2 K)(x_i, y_j)), shape
    (A, k, ell, ell), for atoms (alphas, points) and validated points ys,
    assembled apart from deriv_blocks: its own gamma gather, sign rule and
    order-0 rule."""
    na, npt = points.shape[0], ys.shape[0]
    # row (i, j) is x_i - y_j, the row-major layout of pair_diffs
    with np.errstate(over="ignore"):
        diffs = (points[:, None, :] - ys[None, :, :]).reshape(na * npt, k.m)
    gammas = alphas + np.array(beta)
    if not gammas.any():
        blocks = k.eval_diffs(diffs).reshape(na, npt, k.ell, k.ell)
    else:
        first, rank = unique_rows(gammas)
        vals = k.deriv_diffs([tuple(g) for g in gammas[first].tolist()], diffs)
        vals = vals.reshape(first.size, na, npt, k.ell, k.ell)
        blocks = (-1.0) ** sum(beta) * vals[rank, np.arange(na)]
    return blocks.conj()


def deriv_diag_identity_check(kernel: OperatorKernel, alpha: MultiIndex, beta: MultiIndex) -> float:
    """Max entrywise |difference| between the derivative kernel on the
    diagonal and the closed-form moment expression.

    For gaussian atoms, p_w(x,y) = f(sqrt(w)(x-y)) with f(d) = exp(-||d||^2),
    so d^alpha_1 d^beta_2 K(x,x) = (-1)^|beta| (d^gamma f)(0) sum_j w_j^(|gamma|/2) G_j,
    with (d^gamma f)(0) = prod_i [gamma_i even: (-1)^(g/2) g!/(g/2)!, else 0].

    For omega(msrc) atoms, p_w(x,y) = f(w(x-y)) with f(d) = Omega_msrc(||d||),
    and (d^gamma f)(0) is read off the even power series of Omega: nonzero
    only for gamma = 2*kappa, where it equals
    (-1/4)^|kappa| / (kappa! (msrc/2)_|kappa|) * prod_i (2 kappa_i)!.

    Both closed forms are independent of the jet engine.
    """
    if not kernel.is_radial or kernel.profile.kind not in ("gaussian", "omega"):
        raise UnsupportedJet("diagonal identity check needs a gaussian or omega kernel")
    alpha = validate_multi_index(alpha, kernel.m)
    beta = validate_multi_index(beta, kernel.m)
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    n = sum(gamma)
    if n > JET_ORDER_CAP:
        raise UnsupportedJet(f"derivative order {n} exceeds cap {JET_ORDER_CAP}")

    if any(g % 2 for g in gamma):
        f0 = 0.0
    elif kernel.profile.kind == "gaussian":
        f0 = 1.0
        for g in gamma:
            half = g // 2
            f0 *= (-1.0) ** half * math.factorial(g) / math.factorial(half)
    else:
        kappa = [g // 2 for g in gamma]
        k = sum(kappa)
        f0 = (-0.25) ** k / math.prod(kernel.profile.m_source / 2 + i for i in range(k))
        for ki in kappa:
            f0 *= math.factorial(2 * ki) / math.factorial(ki)

    power = n // 2 if kernel.profile.kind == "gaussian" else n
    moment = np.zeros((kernel.ell, kernel.ell), dtype=complex)
    if f0 != 0.0:
        for omega, g in zip(kernel.measure.omegas.tolist(), kernel.measure.gs):
            moment += omega ** power * g
    expected = (-1.0) ** sum(beta) * f0 * moment

    x0 = np.zeros(kernel.m)
    actual = kernel_deriv_eval(kernel, alpha, beta, x0, x0)
    return float(np.max(np.abs(actual - expected)))
