"""Operator-valued kernels: mixtures of scalar profiles with matrix weights.

A kernel is K(x, y) = sum_j p_j(x, y) G_j where the p_j are one scalar
family (gaussian / askey / omega at scales omega_j, or plane waves at
frequencies xi_j) and the G_j are the PSD matrix weights of the mixing
measure. K maps points of R^m to ell x ell complex matrices and is
Hermitian in the kernel sense, K(y, x) = K(x, y)^H.

Measures keep their atoms as arrays, so OperatorKernel.eval_diffs makes one
family evaluation and one einsum over all atoms: profiles.profile_value, the
one batched evaluator of the radial families, or the plane-wave phases. The
radial function F(t) is eval_diffs at t e_1. Plane waves satisfy F(-d) =
F(d)^H bit for bit, so a large batch evaluates one row of each pair d, -d.

Derivative kernels: for translation-invariant K(x, y) = F(x - y),

    d^alpha_x d^beta_y K(x, y) = (-1)^|beta| (d^(alpha+beta) F)(x - y),

and OperatorKernel.deriv_diffs batches (d^gamma F) over multi-indices and
differences: jet monomials times vectorized profile jets for radial
families, (-i xi)^gamma times the phases for plane waves. The askey family
is not smooth at its kinks, so it has no derivative kernels.

Block Grams: for points x_1..x_n, the block Gram at jet order q carries one
block row/column per (point, multi-index) pair with |alpha| <= q in
graded-lexicographic order, block ((mu,alpha),(nu,beta)) being
d^alpha_1 d^beta_2 K(x_mu, x_nu). The plain Gram of blocks K(x_mu, x_nu)
is q = 0, whose one multi-index is (0,...,0). Every block Gram is built
the same way: _check_points validates the points, refuses a Gram past the
size caps and duplicate points, and takes the pairwise differences once;
deriv_blocks assembles the blocks of the (point, multi-index) rows and
columns, from eval_diffs alone at order 0; block_matrix lays them out.
Grams are symmetrized on assembly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicatePoints,
    InvalidMeasure,
    InvalidParameter,
    InvalidPoint,
    NotRadial,
    NumericalFailure,
    UnsupportedJet,
)
from .hermitian import Frozen, HermitianMatrix
from .measures import OperatorMeasure, merge_psd_atoms, stack_atoms, unique_rows
from .profiles import (
    JET_ORDER_CAP,
    MultiIndex,
    RadialProfile,
    jet_eval,
    jet_for_multi_index,
    multi_indices_up_to,
    profile_value,
    sjet_derivatives,
    validate_multi_index,
)
from .schema import float_reprs

# Two points closer than this are treated as duplicates in Gram assembly.
DUPLICATE_POINT_TOL = 1e-12
# Block Gram rows: n * ell for a plain Gram, n * C(m + q, q) * ell at jet
# order q, one ell per datum for Hermite data. The Gram and its kernel blocks
# hold rows^2 complex entries (64 MiB each at the cap), and the number of
# multi-indices is not bounded by the input; the benchmark's largest is 732.
MAX_GRAM_ROWS = 2048
# Floats n^2 * m of the pairwise differences of n points in R^m (128 MiB at
# the cap, where the probe's n = 1024 and m = 16 sit); the benchmark's largest
# is about 134k.
MAX_PAIR_DIFF_ENTRIES = 2**24
# Entries len(gammas) * pairs * atoms of the jet tables of deriv_diffs: the
# profile jets, the per-gamma values and the plane-wave phases each hold that
# many floats or complex numbers (128 or 256 MiB at the cap), and neither the
# Gram cap nor the input bounds the atom count; the benchmark's largest is
# about 27k.
MAX_JET_TABLE_ENTRIES = 2**24
# Ambient dimension m of a plane-wave measure and of a radial evaluation at
# t. A point, difference or frequency holds m floats, and the input bounds
# every such buffer but these two: the difference t e_1 (8 KiB at the cap),
# and the row sort of the measure's frequencies, which takes memory per
# coordinate even with no atoms. The benchmark's largest m is 3.
MAX_AMBIENT_DIM = 1024
# Plane-wave phases formed at a time, by a block of rows of a kernel batch
# (rows x atoms) and by a block of frequencies of route 2 in rkhs (atoms x
# frequencies): no phase table grows with the whole batch, whose table at
# the benchmark's grid-2048 bump demo would hold 722 x 2048 phases (23 MiB).
_PHASE_BLOCK_ENTRIES = 2**16


class PlaneWaveMeasure(Frozen):
    """Finite atomic nonnegative operator measure on frequency space R^m.

    Atoms are (xi, G) pairs, or the arrays xis (A, m) and gs (A, dim, dim),
    with xi a frequency vector and G PSD. Duplicate frequencies merge by
    summing matrices; zero matrices are pruned. The atoms are stored as the
    read-only arrays xis and gs, sorted by frequency (lexicographically).
    """

    __slots__ = ("dim", "m", "xis", "gs")

    def __init__(self, dim: int, m: int, atoms=(), *, xis=None, gs=None):
        dim, m = int(dim), int(m)
        if dim < 1 or m < 1:
            raise InvalidMeasure("need dim >= 1 and m >= 1")
        if m > MAX_AMBIENT_DIM:
            raise InvalidParameter(f"need ambient dimension <= {MAX_AMBIENT_DIM}")
        if xis is None:
            xis, gs = tuple(zip(*atoms)) or ((), ())
        bad = InvalidMeasure(f"frequency must be a finite vector of length {m}")
        xis = stack_atoms(xis, (m,), float, lambda shape: bad)
        if not np.all(np.isfinite(xis)):
            raise bad
        keys, kept = merge_psd_atoms(dim, xis, gs, lambda key: f"xi={key.tolist()}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "xis", keys)
        object.__setattr__(self, "gs", kept)

    def __len__(self):
        return self.xis.shape[0]


class OperatorKernel(Frozen):
    """A radial or plane-wave operator kernel on R^m with values in C^(ell x ell).

    Use radial_kernel() / plane_wave_kernel() to construct. Exposes m, ell
    and the vectorized eval_diffs(diffs) that every evaluation uses.
    """

    __slots__ = ("kind", "profile", "measure", "m", "ell")

    def __init__(self, kind, profile, measure, m):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "ell", measure.dim)

    @property
    def is_radial(self) -> bool:
        return self.kind == "radial"

    def eval_diffs(self, diffs: np.ndarray) -> np.ndarray:
        """Kernel blocks F(d) for a batch of difference vectors, shape
        (npairs, m) -> (npairs, ell, ell) complex."""
        diffs = np.asarray(diffs, dtype=float)
        with np.errstate(over="ignore"):
            sq = (diffs * diffs).sum(axis=1)
        # Grids repeat differences heavily (a uniform n-point line has only
        # 2n-1 distinct differences among n^2 pairs), so each distinct key is
        # evaluated once and scattered back. The key is exact: a radial block
        # is computed from the squared norm alone, so rows with equal squared
        # norms (d and -d among them) get bitwise equal blocks; a plane-wave
        # block is computed from its own row, which is then the key.
        if diffs.shape[0] > 64:
            first, inverse = unique_rows(sq[:, None] if self.kind == "radial" else diffs)
            if first.size <= diffs.shape[0] // 2:
                if self.kind == "plane_wave":
                    return self._plane_wave_pairs(diffs[first])[inverse]
                return self._blocks(diffs[first], sq[first])[inverse]
        return self._blocks(diffs, sq)

    def _plane_wave_pairs(self, diffs: np.ndarray) -> np.ndarray:
        """Plane-wave blocks at distinct rows, one row of each pair d, -d
        evaluated (its first nonzero entry positive): the phases of -d are the
        exact conjugates of those of d and every G is exactly Hermitian, so
        F(-d) = F(d)^H."""
        n = diffs.shape[0]
        lead = np.take_along_axis(diffs, np.argmax(diffs != 0.0, axis=1)[:, None], axis=1)[:, 0]
        first, inverse = unique_rows(np.where(lead[:, None] < 0.0, -diffs, diffs))
        # a single GEMV row rounds d @ xi differently from GEMM rows when m > 1
        if first.size == n or first.size < 2:
            return self._blocks(diffs)
        out = self._blocks(diffs[first])[inverse]
        flip = first[inverse] != np.arange(n)
        out[flip] = np.conj(np.swapaxes(out[flip], 1, 2))
        # the mirror is bitwise except for the sign of an exact zero, so a
        # flipped block with a zero part is evaluated itself, next to its
        # partner to keep the batch at two rows or more
        redo = np.flatnonzero(flip & np.any((out.real == 0.0) | (out.imag == 0.0), axis=(1, 2)))
        if redo.size:
            out[redo] = self._blocks(np.concatenate([diffs[redo], diffs[first[inverse[redo]]]]))[: redo.size]
        return out

    def _blocks(self, diffs: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
        """F(d) for every row, evaluated directly; sq holds the squared norms
        a radial kernel needs. An empty measure gives zero blocks."""
        gs = self.measure.gs
        if self.kind == "plane_wave":
            out = np.empty((diffs.shape[0], self.ell, self.ell), dtype=complex)
            for rows in _row_blocks(diffs.shape[0], gs.shape[0]):
                vals = _phases(diffs[rows], self.measure.xis)
                with np.errstate(over="ignore", invalid="ignore"):
                    out[rows] = np.einsum("pa,aij->pij", vals, gs)
        else:
            vals = profile_value(self.profile, self.measure.omegas, np.sqrt(sq)).astype(complex)
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.einsum("pa,aij->pij", vals, gs)
        if not np.isfinite(out).all():
            raise NumericalFailure("kernel blocks (family values times atom matrices) overflow the float range")
        return out

    def deriv_diffs(self, gammas, diffs: np.ndarray) -> np.ndarray:
        """(d^gamma F)(d) for each gamma and each difference vector, (npairs, m)
        -> (len(gammas), npairs, ell, ell); profile jets are evaluated once."""
        diffs = np.asarray(diffs, dtype=float)
        shape = (len(gammas), diffs.shape[0], self.ell, self.ell)
        if self.kind == "radial" and self.profile.kind == "askey":
            raise UnsupportedJet("askey kernels have no analytic jets")
        if max(map(sum, gammas), default=0) > JET_ORDER_CAP:
            raise UnsupportedJet(f"derivative order exceeds cap {JET_ORDER_CAP}")
        entries = len(gammas) * diffs.shape[0] * len(self.measure)
        if entries > MAX_JET_TABLE_ENTRIES:
            raise InvalidParameter(
                f"jet tables would hold {entries} entries (gammas x pairs x atoms); need <= {MAX_JET_TABLE_ENTRIES}"
            )
        if not len(self.measure):
            return np.zeros(shape, dtype=complex)
        gs = self.measure.gs
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "plane_wave":
                xis = self.measure.xis
                coeffs = np.stack([np.prod((-1j * xis) ** np.array(g), axis=1) for g in gammas])
                vals = coeffs[:, None, :] * _phases(diffs, xis)
            else:
                jets = [jet_for_multi_index(self.m, g) for g in gammas]
                omegas = self.measure.omegas
                s = np.where(omegas > 0.0, np.sum(diffs * diffs, axis=1)[:, None], 0.0)
                gvals = sjet_derivatives(self.profile, omegas, s, max(jet.max_k for jet in jets))
                vals = np.stack([jet_eval(jet, diffs, gvals) for jet in jets])
                # where every g^(k), k >= 1, is zero (a scale-0 atom, or a far
                # pair) every derivative vanishes, also where a jet monomial
                # overflowed to inf (inf * 0 is nan)
                nan = np.isnan(vals)
                if nan.any():
                    vals[nan & np.all(gvals[1:] == 0.0, axis=0)] = 0.0
            out = vals.reshape(-1, gs.shape[0]) @ gs.reshape(gs.shape[0], -1)
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("derivative kernel blocks (jets times atom matrices) overflow the float range")
        return out.reshape(shape)


def _row_blocks(nrows: int, natoms: int) -> list[slice]:
    """Consecutive slices covering nrows rows, each of about
    _PHASE_BLOCK_ENTRIES / natoms rows and never of one row (unless nrows is
    1): a one-row product d @ xi is a GEMV, which rounds differently from
    the GEMM rows of a larger block when m > 1."""
    step = max(2, _PHASE_BLOCK_ENTRIES // max(1, natoms))
    starts = list(range(0, nrows, step))
    if len(starts) > 1 and nrows - starts[-1] < 2:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [nrows])]


def _phases(diffs: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """exp(-i d . xi) for every difference row d and frequency xi, (npairs,
    natoms). A phase d . xi that overflows has no value: NumericalFailure."""
    with np.errstate(over="ignore", invalid="ignore"):
        arg = -1j * diffs @ xis.T
    if not np.all(np.isfinite(arg.imag)):
        raise NumericalFailure("plane-wave phase d . xi overflows the float range")
    return np.exp(arg)


def radial_kernel(profile: RadialProfile, measure: OperatorMeasure, m: int) -> OperatorKernel:
    if not isinstance(profile, RadialProfile):
        raise NotRadial("radial_kernel needs a RadialProfile family")
    if not isinstance(measure, OperatorMeasure):
        raise InvalidMeasure("radial_kernel needs an OperatorMeasure")
    if int(m) < 1:
        raise InvalidPoint("ambient dimension must be >= 1")
    return OperatorKernel("radial", profile, measure, m)


def plane_wave_kernel(measure: PlaneWaveMeasure) -> OperatorKernel:
    if not isinstance(measure, PlaneWaveMeasure):
        raise InvalidMeasure("plane_wave_kernel needs a PlaneWaveMeasure")
    return OperatorKernel("plane_wave", None, measure, measure.m)


def _check_point(x, m: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise InvalidPoint(f"expected a point in R^{m}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidPoint("point has non-finite entries")
    return x


def _difference(x, y, m: int) -> np.ndarray:
    """x - y of two checked points; a difference that overflows is inf, so
    it counts as far, as in pair_diffs."""
    x, y = _check_point(x, m), _check_point(y, m)
    with np.errstate(over="ignore"):
        return x - y


def kernel_eval(kernel: OperatorKernel, x, y) -> np.ndarray:
    """K(x, y) as an ell x ell complex matrix (Hermitian only when x = y)."""
    return kernel.eval_diffs(_difference(x, y, kernel.m)[None, :])[0]


def radial_function_eval(kernel: OperatorKernel, t: float) -> np.ndarray:
    """The radial matrix function F with K(x, y) = F(||x - y||), at t >= 0:
    the kernel at the difference t e_1, so it is bitwise K(t e_1, 0).

    Plane-wave kernels are not radial -> NotRadial. F(0) equals the sum of
    all atom matrices.
    """
    if not kernel.is_radial:
        raise NotRadial("plane-wave kernels have no radial function")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise InvalidPoint("radial argument must be finite and >= 0")
    if kernel.m > MAX_AMBIENT_DIM:
        raise InvalidParameter(f"need ambient dimension <= {MAX_AMBIENT_DIM}")
    return kernel.eval_diffs(np.eye(1, kernel.m) * t)[0]


def kernel_deriv_eval(kernel: OperatorKernel, alpha: MultiIndex, beta: MultiIndex, x, y) -> np.ndarray:
    """Mixed partial d^alpha_x d^beta_y K(x, y), total order capped at 8.

    Radial gaussian/omega and plane-wave kernels evaluate analytically; the
    askey family has no jets and raises UnsupportedJet.
    """
    alpha = validate_multi_index(alpha, kernel.m)
    beta = validate_multi_index(beta, kernel.m)
    gamma = validate_multi_index(map(sum, zip(alpha, beta)), kernel.m, JET_ORDER_CAP)
    d = _difference(x, y, kernel.m)
    return (-1.0) ** sum(beta) * kernel.deriv_diffs([gamma], d[None, :])[0, 0]


# ----------------------------------------------------------------------
# block Grams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BlockGram:
    """Block Gram at jet order q: one block row per (point, multi-index)
    pair, multi-indices graded-lexicographic with |alpha| <= q; row index =
    (point_index * n_indices + index_rank) * ell + component; block
    ((mu,alpha),(nu,beta)) = d^alpha_1 d^beta_2 K(x_mu, x_nu). The plain
    Gram is q = 0, with the one multi-index (0,...,0)."""

    points: np.ndarray
    ell: int
    q: int
    multi_indices: tuple[MultiIndex, ...]
    matrix: HermitianMatrix


def pair_diffs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All n^2 differences x_i - x_j of an (n, m) array in row-major order,
    and their squared norms. A difference or a square that overflows is inf,
    so it counts as far; the overflow is not reported."""
    n = points.shape[0]
    with np.errstate(over="ignore"):
        diffs = (points[:, None, :] - points[None, :, :]).reshape(n * n, points.shape[1])
        return diffs, (diffs * diffs).sum(axis=1)


def _check_points(
    points, m: int, tol: float = DUPLICATE_POINT_TOL, point_rows: int = 1, what: str = "block Gram", same=None
) -> tuple[np.ndarray, np.ndarray]:
    """Validated (n, m) points and their pair_diffs differences, for a block
    Gram (`what`) of point_rows rows per point. A Gram of more than
    MAX_GRAM_ROWS rows, or differences of more than MAX_PAIR_DIFF_ENTRIES
    floats, raise InvalidParameter before either is allocated. Two points
    closer than tol raise DuplicatePoints naming the first such pair, i < j
    in row-major order; given `same`, an (n, k) table of row keys, only
    points with equal keys count."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != m:
        raise InvalidPoint(f"expected an (n, {m}) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidPoint("points have non-finite entries")
    n = pts.shape[0]
    if n * point_rows > MAX_GRAM_ROWS:
        raise InvalidParameter(f"{what} would have {n * point_rows} rows; need <= {MAX_GRAM_ROWS}")
    if n * n * m > MAX_PAIR_DIFF_ENTRIES:
        raise InvalidParameter(
            f"pairwise differences would hold {n * n * m} floats (n^2 x m); need <= {MAX_PAIR_DIFF_ENTRIES}"
        )
    diffs, sq = pair_diffs(pts)
    i, j = np.divmod((np.sqrt(sq) < tol).nonzero()[0], n)
    hit = i < j if same is None else (i < j) & np.all(same[i] == same[j], axis=1)
    if np.count_nonzero(hit):
        raise DuplicatePoints(f"points {i[hit][0]} and {j[hit][0]} coincide to within {tol}")
    return pts, diffs


def gram(kernel: OperatorKernel, points, tol: float = DUPLICATE_POINT_TOL) -> BlockGram:
    """The block Gram (q = 0) at pairwise-distinct points: deriv_gram at q = 0."""
    return deriv_gram(kernel, points, 0, tol)


def deriv_gram(kernel: OperatorKernel, points, q: int, tol: float = DUPLICATE_POINT_TOL) -> BlockGram:
    """Assemble and symmetrize the block Gram at jet order q (2q <= cap) at
    pairwise-distinct points, one row and column per (point, multi-index)
    pair. At q = 0 only eval_diffs is needed, so any kernel-shaped object
    works."""
    q = int(q)
    if q < 0 or 2 * q > JET_ORDER_CAP:
        raise UnsupportedJet(f"need 0 <= 2q <= {JET_ORDER_CAP}, got q={q}")
    what = "derivative Gram" if q else "block Gram"
    pts, diffs = _check_points(points, kernel.m, tol, math.comb(kernel.m + q, q) * kernel.ell, what)
    n, idxs = pts.shape[0], multi_indices_up_to(kernel.m, q)
    point, rank = np.divmod(np.arange(n * len(idxs)), len(idxs))
    rows = (point, np.array(idxs)[rank])
    # one chain, so the blocks are freed once the Gram is laid out
    big = block_matrix(deriv_blocks(kernel, diffs.reshape(n, n, kernel.m), rows, rows))
    return BlockGram(points=pts, ell=kernel.ell, q=q, multi_indices=idxs, matrix=HermitianMatrix(big))


def deriv_blocks(kernel, diffs: np.ndarray, rows, cols) -> np.ndarray:
    """Blocks d^alpha_1 d^beta_2 K(x_i, y_j) = (-1)^|beta| (d^(alpha+beta) F)(x_i - y_j),
    shape (len(rows), len(cols), ell, ell), from the (nx, ny, m) differences
    x_i - y_j; rows (i, alpha) and cols (j, beta) are each a pair (point
    indices (k,), multi-indices (k, m)). Multi-indices are nonnegative, so
    every alpha + beta is zero exactly when both tables are: then the
    blocks come from eval_diffs, so kernels without jets work at order 0.
    Otherwise one deriv_diffs call covers the sums of the distinct alphas
    and betas, and a kernel without jets raises UnsupportedJet. Not
    symmetrized."""
    (pr, alphas), (pc, betas) = rows, cols
    nx, ny, m = diffs.shape
    diffs, ell = diffs.reshape(nx * ny, m), kernel.ell
    if not (np.count_nonzero(alphas) or np.count_nonzero(betas)):
        blocks = kernel.eval_diffs(diffs).reshape(nx, ny, ell, ell)
        if _in_order(pr, nx) and _in_order(pc, ny):
            return blocks
        return blocks[pr[:, None], pc[None, :]]
    if not isinstance(kernel, OperatorKernel):
        raise UnsupportedJet("derivative kernel blocks need a kernel with analytic jets")
    (ra, which_r), (cb, which_c) = unique_rows(alphas), unique_rows(betas)
    a, b = alphas[ra], betas[cb]
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, m)
    first, rank = unique_rows(sums)
    vals = kernel.deriv_diffs([tuple(g) for g in sums[first].tolist()], diffs).reshape(first.size, nx, ny, ell, ell)
    signs = np.where(b.sum(axis=1) % 2, -1.0, 1.0)[which_c]
    gamma = rank.reshape(len(a), len(b))[which_r[:, None], which_c[None, :]]
    return vals[gamma, pr[:, None], pc[None, :]] * signs[None, :, None, None]


def _in_order(idx: np.ndarray, n: int) -> bool:
    """Whether the point indices idx are 0, 1, ..., n - 1 (no gather needed)."""
    return idx.size == n and not np.count_nonzero(idx - np.arange(n))


def block_matrix(blocks: np.ndarray) -> np.ndarray:
    """The matrix of a (rows, cols, ell, ell) block table: entry
    (r * ell + i, c * ell + j) is blocks[r, c, i, j]."""
    return blocks.transpose(0, 2, 1, 3).reshape(blocks.shape[0] * blocks.shape[2], -1)


# ----------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------


def gram_to_csv(g: BlockGram, q: int | None = None) -> str:
    """Row-major CSV of the (complex) Gram, each entry flattened to a
    're,im' pair of cells, preceded by '#' header lines naming the layout:
    the plain Gram's layout when q is None (the gram command), the jet-order
    layout otherwise (deriv-gram)."""
    buf = io.StringIO()
    n = g.points.shape[0]
    if q is None:
        buf.write(f"# block gram: {n} points, ell={g.ell}, dim={g.matrix.dim}\n")
        buf.write("# row = point_index * ell + component\n")
    else:
        buf.write(
            f"# deriv block gram: {n} points, jet order q={g.q}, "
            f"{len(g.multi_indices)} multi-indices, ell={g.ell}, "
            f"dim={g.matrix.dim}\n"
        )
        buf.write("# row = (point_index * n_indices + index_rank) * ell + component\n")
        buf.write(
            "# multi-indices (graded lex): "
            + ";".join(str(list(a)).replace(" ", "") for a in g.multi_indices)
            + "\n"
        )
    buf.write("# points: " + ";".join(",".join(repr(float(v)) for v in p) for p in g.points) + "\n")
    buf.write("# each complex entry is a re,im cell pair\n")
    mat = g.matrix.entries
    cells = np.empty((mat.shape[0], 2 * mat.shape[1]))
    cells[:, 0::2] = mat.real
    cells[:, 1::2] = mat.imag
    for row in float_reprs(cells).tolist():
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
