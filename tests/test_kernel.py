"""Operator kernels: pointwise values, derivative kernels, block Grams."""

import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from opkernel import kernel as kernel_module, schema
from opkernel.certify import ShiftedPairKernel, _seeded_design
from opkernel.errors import (
    DuplicatePoints,
    InvalidMeasure,
    NotRadial,
    OpKernelError,
    UnsupportedJet,
)
from opkernel.hermitian import HermitianMatrix, eigen_hermitian, hermitian_part, psd_margin
from opkernel.kernel import (
    BlockGram,
    OperatorKernel,
    PlaneWaveMeasure,
    _check_points,
    deriv_blocks,
    deriv_gram,
    gram,
    gram_to_csv,
    kernel_deriv_eval,
    kernel_eval,
    pair_diffs,
    plane_wave_kernel,
    radial_function_eval,
    radial_kernel,
)
from opkernel.measures import OperatorMeasure
from opkernel.profiles import RadialProfile, multi_indices_up_to, profile_value

from kernel_oracles import (
    block_matrix,
    deriv_diag_identity_check,
    full_table_gram,
    symmetrized_full_table_gram,
    upper_triangle_gram,
)

GAUSS_12 = radial_kernel(
    RadialProfile.gaussian(), OperatorMeasure(2, [(1.0, np.diag([1.0, 2.0]))]), 1
)


def random_gaussian_kernel(rng, ell, m, natoms):
    atoms = []
    for _ in range(natoms):
        b = rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell))
        atoms.append((float(rng.uniform(0.1, 3.0)), b.conj().T @ b))
    return radial_kernel(RadialProfile.gaussian(), OperatorMeasure(ell, atoms), m)


def richardson(f, h):
    """Fourth-order extrapolated central first difference of a scalar map."""
    fine = (f(h) - f(-h)) / (2 * h)
    coarse = (f(2 * h) - f(-2 * h)) / (4 * h)
    return (4 * fine - coarse) / 3


# ---------------------------------------------------------------- eval


def test_eval_single_gaussian_atom():
    k = kernel_eval(GAUSS_12, np.array([1.0]), np.array([0.0]))
    assert np.allclose(k, math.exp(-1.0) * np.diag([1.0, 2.0]), atol=1e-15)


def test_eval_translation_invariance():
    # dyadic points so both differences are the same float exactly
    a = kernel_eval(GAUSS_12, np.array([1.25]), np.array([0.375]))
    b = kernel_eval(GAUSS_12, np.array([2.25]), np.array([1.375]))
    assert np.array_equal(a, b)


def test_radial_function_at_zero_is_total():
    mu = OperatorMeasure(2, [(0.0, np.eye(2)), (1.0, np.diag([1.0, 0.0]))])
    k = radial_kernel(RadialProfile.gaussian(), mu, 2)
    f0 = radial_function_eval(k, 0.0)
    assert np.allclose(f0, np.diag([2.0, 1.0]), atol=1e-15)


def test_radial_function_rejects_plane_wave():
    pw = plane_wave_kernel(PlaneWaveMeasure(1, 1, [(np.array([1.0]), np.eye(1))]))
    with pytest.raises(NotRadial):
        radial_function_eval(pw, 1.0)


def test_plane_wave_eval():
    xi = np.array([2.0, 0.5])
    pw = plane_wave_kernel(PlaneWaveMeasure(1, 2, [(xi, np.eye(1))]))
    x = np.array([0.3, -0.1])
    y = np.array([1.0, 0.2])
    val = kernel_eval(pw, x, y)[0, 0]
    assert val == pytest.approx(np.exp(-1j * float((x - y) @ xi)), abs=1e-15)


def test_plane_wave_measure_rejects_indefinite():
    with pytest.raises(InvalidMeasure):
        PlaneWaveMeasure(2, 1, [(np.array([1.0]), np.diag([1.0, -1.0]))])


# ---------------------------------------------------------------- eval_diffs dedup


def _table_blocks(kernel, diffs):
    """The blocks of a table of difference rows as deriv_blocks takes them at
    order 0: each distinct row evaluated once (kernel._distinct) and
    scattered back."""
    return deriv_blocks(kernel, diffs[:, None, :], np.zeros(diffs.shape, dtype=int), np.zeros((1, kernel.m), dtype=int))[:, 0]


def test_eval_diffs_dedup_is_bitwise_exact():
    rng = np.random.default_rng(11)
    distinct = rng.normal(size=(10, 1))
    tiled = np.tile(distinct, (20, 1))  # 200 rows, 10 unique -> dedup path
    k = random_gaussian_kernel(rng, 2, 1, 3)
    batched = _table_blocks(k, tiled)
    for i in range(200):
        single = k.eval_diffs(tiled[i : i + 1])[0]  # 1 row: plain path
        assert np.array_equal(batched[i], single)


def _random_psd(rng, ell):
    b = rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell))
    return b.conj().T @ b


def _dedup_kernel(family, m):
    rng = np.random.default_rng(m)
    atoms = [(w, _random_psd(rng, 2)) for w in (0.0, 0.6, 1.7)]
    if family == "plane_wave":
        return plane_wave_kernel(PlaneWaveMeasure(2, m, [(rng.normal(size=m), g) for _, g in atoms]))
    profile = {
        "gaussian": RadialProfile.gaussian(),
        "askey": RadialProfile.askey(m + 2),
        "omega": RadialProfile.omega(3),
    }[family]
    return radial_kernel(profile, OperatorMeasure(2, atoms), m)


@pytest.mark.parametrize("family", ["gaussian", "askey", "omega", "plane_wave"])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("design", ["grid", "random"])
def test_eval_diffs_dedup_matches_row_by_row(family, m, design):
    """De-duplication on squared norms (radial) or rows (plane wave) changes
    no bit of any block, on grids (heavy repeats) and on random points."""
    if design == "grid":
        axis = np.linspace(-2.0, 2.0, 16 if m == 1 else 3)
        pts = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)
    else:
        pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(14, m))
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, m)
    k = _dedup_kernel(family, m)
    batched = _table_blocks(k, diffs)
    # each row is evaluated next to the farthest difference, as two rows
    # (too few to de-duplicate): a one-row plane-wave product takes another
    # BLAS path
    far = diffs[np.argmax(np.sum(diffs * diffs, axis=1))]
    for i, d in enumerate(diffs):
        assert np.array_equal(batched[i], k.eval_diffs(np.stack([d, far]))[0])


def _batch_kernel(family, m, rng):
    """A kernel of the family on R^m with three atoms of ell = 2 (one at
    scale 0 for the radial families), or the shifted pair."""
    if family == "shifted_pair":
        return ShiftedPairKernel(rng.uniform(-1.0, 1.0, size=m))
    atoms = [(w, _random_psd(rng, 2)) for w in (0.0, float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 1.7)))]
    if family == "plane_wave":
        return plane_wave_kernel(PlaneWaveMeasure(2, m, [(rng.normal(size=m) * 2.0, g) for _, g in atoms]))
    profile = {
        "gaussian": RadialProfile.gaussian(),
        "askey": RadialProfile.askey(m + 2),
        "omega": RadialProfile.omega(int(rng.integers(1, 8))),
    }[family]
    return radial_kernel(profile, OperatorMeasure(2, atoms), m)


@given(
    family=st.sampled_from(["gaussian", "askey", "omega", "plane_wave", "shifted_pair"]),
    m=st.integers(1, 3),
    sizes=st.lists(st.integers(2, 10), min_size=2, max_size=4),
    box=st.sampled_from([0.3, 4.0, 1500.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_eval_diffs_of_a_concatenation_is_each_batch_bit_for_bit(family, m, sizes, box, seed):
    """The pairwise differences of a few designs, evaluated in one batch,
    give each design's own blocks bit for bit: every kernel value depends on
    its own difference alone, whatever else its batch holds (omega
    arguments up to about 9000, past and under the 64-row de-duplication)."""
    rng = np.random.default_rng(seed)
    kernel = _batch_kernel(family, m, rng)
    batches = [pair_diffs(rng.uniform(-box, box, size=(n, m)))[0] for n in sizes]
    whole = kernel.eval_diffs(np.concatenate(batches))
    parts = np.concatenate([kernel.eval_diffs(b) for b in batches])
    assert whole.shape == parts.shape and whole.tobytes() == parts.tobytes()


# ---------------------------------------------------------------- duplicate guard


def _check_points_loop(pts, tol=1e-12):
    """The pairwise loop the duplicate guard ran before it was vectorized."""
    n = pts.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.linalg.norm(pts[i] - pts[j])) < tol:
                raise DuplicatePoints(f"points {i} and {j} coincide to within {tol}")


@given(
    m=st.integers(1, 3),
    n=st.integers(2, 40),
    box=st.sampled_from([1e-11, 1e-3, 1.0, 1e6]),
    planted=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39), st.floats(0.0, 2.0)), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_check_points_matches_pairwise_loop(m, n, box, planted, seed):
    pts = np.random.default_rng(seed).uniform(-box, box, size=(n, m))
    for i, j, u in planted:  # near-duplicates on both sides of the tolerance
        if i < n and j < n and i != j:
            pts[j] = pts[i] + u * 1e-12 / math.sqrt(m)
    try:
        _check_points_loop(pts)
    except DuplicatePoints as exc:
        with pytest.raises(DuplicatePoints) as info:
            _check_points(pts, m)
        assert str(info.value) == str(exc)
    else:
        checked, diffs = _check_points(pts, m)
        i, j = np.triu_indices(n)  # the pairs i <= j in row-major order
        assert np.array_equal(checked, pts) and np.array_equal(diffs, pts[i] - pts[j])


def test_check_points_names_first_pair_in_row_major_order():
    pts = np.array([[0.0], [5.0], [1.0], [5.0], [0.0], [1.0]])
    with pytest.raises(DuplicatePoints, match="points 0 and 4 "):
        _check_points(pts, 1)


# ---------------------------------------------------------------- derivatives


def test_deriv_eval_mixed_first_order_diag():
    # d_x d_y of exp(-(x-y)^2) at x = y is 2, per atom weight
    z = np.array([0.7])
    val = kernel_deriv_eval(GAUSS_12, (1,), (1,), z, z)
    assert np.allclose(val, np.diag([2.0, 4.0]), atol=1e-14)


def test_deriv_eval_order_zero_matches_eval():
    x, y = np.array([0.9]), np.array([-0.2])
    a = kernel_deriv_eval(GAUSS_12, (0,), (0,), x, y)
    b = kernel_eval(GAUSS_12, x, y)
    assert np.array_equal(a, b)


def test_deriv_eval_gaussian_against_richardson():
    mu = OperatorMeasure(1, [(0.7, np.array([[2.0]])), (1.3, np.array([[1.0]]))])
    k = radial_kernel(RadialProfile.gaussian(), mu, 2)
    x = np.array([0.4, -0.3])
    y = np.array([0.1, 0.5])
    ours = kernel_deriv_eval(k, (1, 1), (0, 0), x, y)[0, 0].real

    def f(eps):
        # d^2/(dx1 dx2): inner derivative analytic, outer numeric
        return kernel_deriv_eval(k, (0, 1), (0, 0), x + np.array([eps, 0.0]), y)[0, 0].real

    assert ours == pytest.approx(richardson(f, 1e-4), rel=1e-6)


def test_deriv_eval_omega_against_richardson():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]]))])
    k = radial_kernel(RadialProfile.omega(3), mu, 2)
    x = np.array([0.4, -0.3])
    y = np.array([0.1, 0.5])
    ours = kernel_deriv_eval(k, (2, 0), (0, 0), x, y)[0, 0].real

    def f(eps):
        return kernel_deriv_eval(k, (1, 0), (0, 0), x + np.array([eps, 0.0]), y)[0, 0].real

    assert ours == pytest.approx(richardson(f, 1e-4), rel=1e-6)


def test_deriv_eval_plane_wave_closed_form():
    xi = np.array([2.0])
    pw = plane_wave_kernel(PlaneWaveMeasure(1, 1, [(xi, np.eye(1))]))
    z = np.array([0.25])
    # d_x d_y exp(-i(x-y)xi) at x=y is xi^2
    assert kernel_deriv_eval(pw, (1,), (1,), z, z)[0, 0] == pytest.approx(4.0, abs=1e-13)


def test_deriv_order_cap():
    z = np.array([0.0])
    with pytest.raises(UnsupportedJet):
        kernel_deriv_eval(GAUSS_12, (5,), (4,), z, z)


# ---------------------------------------------------------------- askey


ASKEY_K = radial_kernel(
    RadialProfile.askey(5), OperatorMeasure(1, [(0.5, np.array([[1.0]]))]), 1
)


def test_askey_requires_fd_flag():
    with pytest.raises(UnsupportedJet):
        kernel_deriv_eval(ASKEY_K, (1,), (0,), np.array([0.9]), np.array([0.0]))


# ---------------------------------------------------------------- diagonal identity


def test_diag_identity_gaussian():
    mu = OperatorMeasure(2, [(0.5, np.eye(2)), (1.5, np.diag([2.0, 1.0])), (2.5, np.eye(2))])
    k = radial_kernel(RadialProfile.gaussian(), mu, 2)
    for alpha, beta in [((1, 0), (1, 0)), ((2, 0), (0, 0)), ((1, 1), (1, 1)), ((2, 1), (1, 0))]:
        assert deriv_diag_identity_check(k, alpha, beta) <= 1e-12


def test_diag_identity_omega():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]])), (2.0, np.array([[0.5]]))])
    k = radial_kernel(RadialProfile.omega(4), mu, 2)
    for alpha, beta in [((1, 0), (1, 0)), ((2, 0), (2, 0)), ((1, 1), (0, 0))]:
        assert deriv_diag_identity_check(k, alpha, beta) <= 1e-12


def test_diag_identity_rejects_askey():
    with pytest.raises(UnsupportedJet):
        deriv_diag_identity_check(ASKEY_K, (1,), (0,))


# ---------------------------------------------------------------- Grams


def test_gram_single_point_scalar():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]]))])
    k = radial_kernel(RadialProfile.gaussian(), mu, 1)
    g = gram(k, np.array([[0.0]]))
    assert g.matrix.entries.shape == (1, 1)
    assert g.matrix.entries[0, 0] == 1.0


def test_gram_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        gram(GAUSS_12, np.array([[0.0], [1e-13]]))


def test_deriv_gram_single_point_q1():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]]))])
    k = radial_kernel(RadialProfile.gaussian(), mu, 1)
    dg = deriv_gram(k, np.array([[0.0]]), q=1)
    assert dg.multi_indices == ((0,), (1,))
    assert np.allclose(dg.matrix.entries, np.diag([1.0, 2.0]), atol=1e-15)
    assert eigen_hermitian(dg.matrix).eigenvalues[0] == pytest.approx(1.0, abs=1e-14)


def test_gram_is_the_jet_order_zero_record():
    k = random_gaussian_kernel(np.random.default_rng(3), 2, 3, 2)
    g = gram(k, np.array([[0.0, 0.0, 0.0], [0.5, -0.2, 1.0]]))
    assert isinstance(g, BlockGram)
    assert g.q == 0 and g.multi_indices == ((0, 0, 0),) and g.matrix.dim == 4


def test_deriv_gram_q0_matches_gram():
    """deriv_gram at q = 0 returns gram's record as it is."""
    pts = np.array([[0.0], [0.7], [1.9]])
    g = gram(GAUSS_12, pts)
    dg = deriv_gram(GAUSS_12, pts, q=0)
    assert (dg.q, dg.multi_indices, dg.ell) == (g.q, g.multi_indices, g.ell) == (0, ((0,),), 2)
    assert np.array_equal(dg.points, g.points)
    assert dg.matrix.entries.tobytes() == g.matrix.entries.tobytes()


def test_deriv_gram_duck_typed_q0():
    class Const:
        m = 1
        ell = 1

        def eval_diffs(self, diffs):
            return np.ones((diffs.shape[0], 1, 1), dtype=complex)

    dg = deriv_gram(Const(), np.array([[0.0], [1.0]]), q=0)
    assert isinstance(dg, BlockGram) and dg.q == 0
    assert np.allclose(dg.matrix.entries, np.ones((2, 2)))
    with pytest.raises(UnsupportedJet):
        deriv_gram(Const(), np.array([[0.0], [1.0]]), q=1)


def test_deriv_gram_scale_zero_atom_at_overflowing_distance():
    """A scale-0 atom is constant: its value is G and its derivatives vanish,
    even where the squared distance and the jet monomials overflow."""
    k = radial_kernel(RadialProfile.omega(3), OperatorMeasure(1, [(0.0, np.eye(1))]), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dg = deriv_gram(k, np.array([[-1e300], [1e300]]), q=2)
    expected = np.zeros((6, 6))
    expected[np.ix_([0, 3], [0, 3])] = 1.0
    assert np.array_equal(dg.matrix.entries, expected)


def test_deriv_gram_rejects_askey():
    with pytest.raises(UnsupportedJet):
        deriv_gram(ASKEY_K, np.array([[0.0], [0.4]]), q=1)


def test_plane_wave_gram_psd():
    rng = np.random.default_rng(5)
    atoms = []
    for _ in range(3):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        atoms.append((rng.normal(size=2), b.conj().T @ b))
    pw = plane_wave_kernel(PlaneWaveMeasure(2, 2, atoms))
    pts = rng.normal(size=(5, 2))
    g = gram(pw, pts)
    assert np.array_equal(g.matrix.entries, g.matrix.entries.conj().T)
    lam, scale, _ = psd_margin(g.matrix)
    assert lam >= -1e-10 * scale


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gram_psd_random_gaussian_mixtures(seed):
    rng = np.random.default_rng(seed)
    ell = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    k = random_gaussian_kernel(rng, ell, m, int(rng.integers(1, 5)))
    pts = rng.normal(size=(int(rng.integers(2, 9)), m))
    g = gram(k, pts)
    lam, scale, _ = psd_margin(g.matrix)
    assert lam >= -1e-10 * scale


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_deriv_gram_psd_random_gaussian_mixtures(seed):
    rng = np.random.default_rng(seed)
    k = random_gaussian_kernel(rng, 2, 2, 2)
    pts = rng.normal(size=(3, 2))
    for q in (1, 2):
        dg = deriv_gram(k, pts, q=q)
        lam, scale, _ = psd_margin(dg.matrix)
        assert lam >= -1e-9 * scale


@pytest.mark.parametrize("family", ["gaussian", "omega", "plane_wave"])
def test_deriv_gram_blocks_match_pointwise_derivatives(family):
    """The batched assembly puts d^a_1 d^b_2 K(x_mu, x_nu) at block ((mu,a),(nu,b))."""
    rng = np.random.default_rng(4)
    mats = []
    for _ in range(2):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mats.append(b.conj().T @ b)
    if family == "plane_wave":
        k = plane_wave_kernel(PlaneWaveMeasure(2, 2, [(rng.normal(size=2), g) for g in mats]))
    else:
        prof = RadialProfile.gaussian() if family == "gaussian" else RadialProfile.omega(3)
        k = radial_kernel(prof, OperatorMeasure(2, [(0.7, mats[0]), (1.6, mats[1])]), 2)
    pts = rng.uniform(-2.0, 2.0, size=(3, 2))
    dg = deriv_gram(k, pts, q=2)
    na = len(dg.multi_indices)
    big = dg.matrix.entries.reshape(3, na, 2, 3, na, 2)
    for mu in range(3):
        for a, alpha in enumerate(dg.multi_indices):
            for nu in range(3):
                for b, beta in enumerate(dg.multi_indices):
                    block = kernel_deriv_eval(k, alpha, beta, pts[mu], pts[nu])
                    scale = max(1.0, float(np.max(np.abs(block))))
                    assert np.max(np.abs(big[mu, a, :, nu, b, :] - block)) <= 1e-13 * scale


def test_deriv_gram_hermitian_block_symmetry():
    """Block ((mu,a),(nu,b)) must equal the adjoint of ((nu,b),(mu,a))."""
    rng = np.random.default_rng(2)
    k = random_gaussian_kernel(rng, 2, 1, 2)
    dg = deriv_gram(k, np.array([[0.0], [0.8]]), q=1)
    mat = dg.matrix.entries
    assert np.allclose(mat, mat.conj().T, atol=1e-15)


def _deriv_blocks_oracle(kernel, diffs, rows, cols=None):
    """deriv_blocks as it was with per-entry tuple sums and rank lookups;
    cols defaults to rows."""
    cols = rows if cols is None else cols
    n, ell = math.isqrt(diffs.shape[0]), kernel.ell
    sums = [[tuple(a + b for a, b in zip(alpha, beta)) for _, beta in cols] for _, alpha in rows]
    gammas = sorted({gamma for row in sums for gamma in row})
    rank = {gamma: r for r, gamma in enumerate(gammas)}
    vals = kernel.deriv_diffs(gammas, diffs).reshape(len(gammas), n, n, ell, ell)
    p, pc = np.array([i for i, _ in rows]), np.array([j for j, _ in cols])
    signs = np.array([(-1.0) ** sum(beta) for _, beta in cols])
    blocks = vals[np.array([[rank[g] for g in row] for row in sums]), p[:, None], pc[None, :]]
    blocks = blocks * signs[None, :, None, None]
    return blocks.transpose(0, 2, 1, 3).reshape(len(rows) * ell, len(cols) * ell)


def _deriv_blocks_of_rows(kernel, diffs, rows, cols=None):
    """deriv_blocks on lists of (point index, multi-index) rows and columns
    (cols defaults to rows), each row and column its own entry of the
    difference table, laid out by block_matrix."""
    n = math.isqrt(diffs.shape[0])
    cols = rows if cols is None else cols
    table = diffs.reshape(n, n, kernel.m)[np.array([i for i, _ in rows])][:, np.array([j for j, _ in cols])]
    alphas, betas = (np.array([alpha for _, alpha in entries]).reshape(-1, kernel.m) for entries in (rows, cols))
    return block_matrix(deriv_blocks(kernel, table, alphas, betas))


@pytest.mark.parametrize("m, q", [(1, 4), (2, 2), (3, 1)])
def test_deriv_blocks_match_the_tuple_sums(m, q):
    """Sums over the distinct multi-indices gather the same blocks, bit for
    bit, for full derivative Grams and for Hermite-style rows: a shuffled
    subset, rows drawn with repeats in any order, and one multi-index on
    every row; and for rows and columns that differ."""
    rng = np.random.default_rng(40 + m)
    pts = rng.uniform(-1.0, 1.0, size=(4, m))
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, m)
    idxs = multi_indices_up_to(m, q)
    full = [(mu, alpha) for mu in range(4) for alpha in idxs]
    shuffled = [full[i] for i in rng.permutation(len(full))[: len(full) // 2]]
    repeated = [full[i] for i in rng.integers(0, len(full), size=len(full))]
    single = [(mu, idxs[-1]) for mu in (2, 0, 3)]
    for k in (random_gaussian_kernel(rng, 2, m, 3), plane_wave_kernel(_plane_wave_measures(rng, m)[1])):
        for rows in (full, shuffled, repeated, single):
            got = _deriv_blocks_of_rows(k, diffs, rows)
            assert got.tobytes() == _deriv_blocks_oracle(k, diffs, rows).tobytes()
        for rows, cols in ((shuffled, repeated), (single, full), (repeated, single)):
            got = _deriv_blocks_of_rows(k, diffs, rows, cols)
            assert got.tobytes() == _deriv_blocks_oracle(k, diffs, rows, cols).tobytes()


def test_deriv_gram_matches_the_oracle_rows():
    rng = np.random.default_rng(7)
    k = random_gaussian_kernel(rng, 2, 2, 2)
    pts = rng.uniform(-1.0, 1.0, size=(3, 2))
    dg = deriv_gram(k, pts, q=2)
    rows = [(mu, alpha) for mu in range(3) for alpha in dg.multi_indices]
    expected = upper_triangle_gram(_deriv_blocks_oracle(k, (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2), rows), 3)
    assert dg.matrix.entries.tobytes() == expected.tobytes()


def test_deriv_blocks_memory_before_kernel_values(monkeypatch):
    """At the row cap (1024 points, m = 1, q = 1: 2048 rows and columns)
    the gamma sums are formed over the two distinct multi-indices, not over
    all 2048^2 row pairs, which peaked near 200 MiB before any kernel value."""

    class Reached(Exception):
        pass

    def stop(self, gammas, diffs):
        raise Reached(gammas)

    monkeypatch.setattr(OperatorKernel, "deriv_diffs", stop)
    k = random_gaussian_kernel(np.random.default_rng(1), 1, 1, 1)
    pts = np.repeat(np.arange(1024.0), 2)[:, None]
    diffs = pts[:, None, :] - pts[None, :, :]
    alphas = np.tile([[0], [1]], (1024, 1))
    tracemalloc.start()
    try:
        with pytest.raises(Reached) as info:
            deriv_blocks(k, diffs, alphas, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.args[0] == [(0,), (1,), (2,)]
    assert peak < 64 * 2**20


# ---------------------------------------------------------------- projections


def test_projection_commutes_with_mixing():
    """Projecting the kernel = mixing the projected scalar measure."""
    rng = np.random.default_rng(9)
    mu = OperatorMeasure(
        2, [(0.5, np.eye(2)), (2.0, np.array([[1.0, 0.5], [0.5, 1.0]]))]
    )
    k = radial_kernel(RadialProfile.gaussian(), mu, 2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    weights = np.einsum("i,aij,j->a", np.conj(v), mu.gs, v).real  # <G_j v, v>
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal(size=2)
        kv = np.vdot(v, kernel_eval(k, x, y) @ v)
        t = float(np.linalg.norm(x - y))
        mixed = sum(w * profile_value(RadialProfile.gaussian(), omega, t) for omega, w in zip(mu.omegas, weights))
        assert complex(kv) == pytest.approx(complex(mixed), abs=1e-13)


# ---------------------------------------------------------------- CSV


def _csv(g, q=None):
    buf = io.StringIO()
    gram_to_csv(g, buf, q)
    return buf.getvalue()


def test_gram_csv_layout():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]]))])
    k = radial_kernel(RadialProfile.gaussian(), mu, 1)
    text = _csv(gram(k, np.array([[0.0]])))
    lines = text.strip().split("\n")
    assert lines[0].startswith("# block gram: 1 points, ell=1")
    assert lines[-1] == "1.0,0.0"


def test_gram_csv_header_follows_the_commands_q():
    """One q = 0 record: the gram command's header without q, the
    deriv-gram header with q = 0; the cells are the same."""
    g = gram(GAUSS_12, np.array([[0.0], [0.5]]))
    plain, jet = _csv(g), _csv(g, 0)
    assert plain.splitlines()[:2] == ["# block gram: 2 points, ell=2, dim=4", "# row = point_index * ell + component"]
    assert jet.splitlines()[:3] == [
        "# deriv block gram: 2 points, jet order q=0, 1 multi-indices, ell=2, dim=4",
        "# row = (point_index * n_indices + index_rank) * ell + component",
        "# multi-indices (graded lex): [0]",
    ]
    assert _csv_body(plain) == _csv_body(jet)


def _csv_body_oracle(mat):
    """The per-entry repr loop that wrote gram_to_csv's cells before the
    shared float_reprs formatter."""
    out = []
    for row in mat:
        cells = []
        for v in row:
            cells.append(repr(float(v.real)))
            cells.append(repr(float(v.imag)))
        out.append(",".join(cells) + "\n")
    return "".join(out)


def _csv_body(text):
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))


def test_csv_body_matches_repr_loop_plane_wave_deriv_gram():
    rng = np.random.default_rng(11)
    atoms = []
    for _ in range(3):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        atoms.append((rng.normal(size=2), b.conj().T @ b))
    pw = plane_wave_kernel(PlaneWaveMeasure(2, 2, atoms))
    dg = deriv_gram(pw, rng.uniform(-1.0, 1.0, size=(4, 2)), q=1)
    assert np.any(dg.matrix.entries.imag != 0.0)
    assert _csv_body(_csv(dg, 1)) == _csv_body_oracle(dg.matrix.entries)


def test_csv_body_matches_repr_loop_signed_zeros():
    a = np.array([[1.0, complex(-0.0, -0.0), 0.5j], [complex(-0.0, 0.0), 2.0, -0.0], [-0.5j, -0.0, 3.0]])
    g = BlockGram(points=np.array([[0.0], [1.0], [2.0]]), ell=1, q=0, multi_indices=((0,),), matrix=HermitianMatrix(a))
    assert np.signbit(g.matrix.entries.real).any() and np.signbit(g.matrix.entries.imag).any()
    assert _csv_body(_csv(g)) == _csv_body_oracle(g.matrix.entries)


@pytest.mark.parametrize("dim", [44, 45, 46, 91])
def test_streamed_csv_body_matches_repr_loop_across_row_blocks(dim):
    """A dim-row Gram has 2 * dim cells a row, so a row block holds
    k = budget // (2 * dim) rows: 46, 45 and 44 rows at dims 44, 45 and 46
    (one block, one full block, a full block and two rows), and 22 at dim 91
    (four blocks and three rows). Each body write holds one row block."""
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a[rng.random((dim, dim)) < 0.1] = complex(-0.0, -0.0)
    g = BlockGram(
        points=rng.normal(size=(dim, 1)), ell=1, q=0, multi_indices=((0,),), matrix=HermitianMatrix(a + a.conj().T)
    )
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    fh = Sink()
    gram_to_csv(g, fh)
    assert _csv_body(fh.getvalue()) == _csv_body_oracle(g.matrix.entries)
    k = schema._ROW_BLOCK_ENTRIES // (2 * dim)
    body = [w.count("\n") for w in writes if not w.startswith("#")]
    assert body == [k] * (dim // k) + ([dim % k] if dim % k else [])


def test_deriv_gram_csv_headers_and_roundtrip():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]]))])
    k = radial_kernel(RadialProfile.gaussian(), mu, 1)
    dg = deriv_gram(k, np.array([[0.0], [0.5]]), q=1)
    text = _csv(dg, 1)
    lines = text.strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("jet order q=1" in ln for ln in header)
    assert any("[0];[1]" in ln.replace(" ", "") for ln in header)
    parsed = np.array(
        [[float(c) for c in row.split(",")] for row in data]
    )
    recon = parsed[:, 0::2] + 1j * parsed[:, 1::2]
    assert np.array_equal(recon, dg.matrix.entries)


# ---------------------------------------------------------------- plane-wave pairs


def _direct_plane_wave(measure, diffs):
    """Every row evaluated on its own bits, with no de-duplication and no
    mirroring of -d onto d: the formula the pairing must reproduce bit for
    bit. The batch is evaluated as one GEMM; a single row would go through
    GEMV, whose last bits differ for m > 1."""
    return np.einsum("pa,aij->pij", np.exp(-1j * diffs @ measure.xis.T), measure.gs)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _pair_rows(rng, m, nbase, nrows):
    """nrows rows drawn from nbase base differences, each row a base row or
    its negation: zero rows, -0.0 components, and rows whose first nonzero
    component is negative or comes after zeros all occur."""
    base = rng.normal(size=(nbase, m))
    base[rng.random(size=(nbase, m)) < 0.3] = 0.0
    base[0] = 0.0
    base[1] = -0.0
    if m > 1:
        base[2, 0] = -0.0
    pick = rng.integers(0, nbase, size=nrows)
    sign = np.where(rng.random(nrows) < 0.5, -1.0, 1.0)
    return base[pick] * sign[:, None]


def _plane_wave_measures(rng, m):
    """A generic complex measure, a real one with a frequency at 0 (blocks
    with exactly zero imaginary parts), and a constant kernel."""
    generic = []
    for ell in (1, 2, 3):
        atoms = []
        for _ in range(5):
            b = rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell))
            atoms.append((rng.normal(size=m) * 3.0, b.conj().T @ b))
        generic.append(PlaneWaveMeasure(ell, m, atoms))
    u = rng.normal(size=(4, 2))
    real = PlaneWaveMeasure(
        2, m, [(np.zeros(m), np.outer(u[0], u[0]))] + [(rng.normal(size=m), np.outer(v, v)) for v in u[1:]]
    )
    constant = PlaneWaveMeasure(2, m, [(np.zeros(m), np.array([[2.0, 1.0], [1.0, 3.0]]))])
    return generic + [real, constant]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_plane_wave_eval_diffs_mirrors_pairs_bitwise(m):
    """A table of +-d rows, de-duplicated above 64 rows, gives every block
    the bits of its own direct evaluation. Assembled as the pair table of a
    plain Gram of n points (kernel._hermitian_gram), it gives each block
    (i, j), i < j, the bits of the direct evaluation at its row d, each
    block (i, i) their hermitian_part, and each block (j, i) the adjoint of
    block (i, j) with its zeros +0.0: the direct evaluation at 0.0 - d, but
    for the sign of a zero."""
    rng = np.random.default_rng(100 + m)
    for measure in _plane_wave_measures(rng, m):
        k, ell = plane_wave_kernel(measure), measure.dim
        for n in (1, 8, 11, 24):  # 1, 36, 66 and 300 rows
            diffs = _pair_rows(rng, m, 12, n * (n + 1) // 2)
            direct = _direct_plane_wave(measure, diffs)
            assert _same_bits(_table_blocks(k, diffs), direct)
            gram = kernel_module._hermitian_gram(k, np.zeros((n, m)), diffs)
            blocks = gram.reshape(n, ell, n, ell).swapaxes(1, 2)
            i, j = np.triu_indices(n)  # the pair table's row-major order
            own = i == j
            assert _same_bits(blocks[i, j], np.where(own[:, None, None], hermitian_part(direct), direct))
            i, j, upper = i[~own], j[~own], direct[~own]
            assert _same_bits(blocks[j, i], np.conj(upper.swapaxes(1, 2)) + 0.0)
            assert np.array_equal(blocks[j, i], _direct_plane_wave(measure, 0.0 - diffs[~own]))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_plane_wave_eval_diffs_in_row_blocks_bitwise(monkeypatch, m):
    """With a small phase block the rows are evaluated a few at a time (3
    rows a block against 5 atoms), on the de-duplicated table and in the
    assembled Gram, whose pairs are also written a row of pairs at a time:
    still bit for bit the one-shot product and its adjoints."""
    monkeypatch.setattr(kernel_module, "_BLOCK_ENTRIES", 15)
    test_plane_wave_eval_diffs_mirrors_pairs_bitwise(m)


def test_phase_row_blocks_never_hold_one_row(monkeypatch):
    """A one-row block would round d @ xi as a GEMV; a one-row remainder
    joins the block before it, and only a one-row batch is one row."""
    monkeypatch.setattr(kernel_module, "_BLOCK_ENTRIES", 6)
    sizes = {n: [b.stop - b.start for b in kernel_module._row_blocks(n, 3)] for n in (1, 2, 3, 6, 7)}
    assert sizes == {1: [1], 2: [2], 3: [3], 6: [2, 2, 2], 7: [2, 2, 3]}
    assert [b.stop - b.start for b in kernel_module._row_blocks(5, 0)] == [5]


def test_plane_wave_eval_diffs_single_pair_batch():
    """A large table holding only d and -d has two distinct rows; they are
    evaluated as a batch of two rows, which round d @ xi like every other
    batch."""
    rng = np.random.default_rng(7)
    measure = _plane_wave_measures(rng, 3)[1]
    for d in rng.normal(size=(20, 3)):
        diffs = np.tile([d, -d], (50, 1))
        assert _same_bits(_table_blocks(plane_wave_kernel(measure), diffs), _direct_plane_wave(measure, diffs))


def test_plane_wave_eval_diffs_row_by_row_m1():
    """On the line a single row rounds like a batch row, so a large batch
    equals its rows evaluated one at a time."""
    rng = np.random.default_rng(8)
    for measure in _plane_wave_measures(rng, 1):
        k = plane_wave_kernel(measure)
        diffs = _pair_rows(rng, 1, 12, 300)
        rows = np.stack([k.eval_diffs(d[None, :])[0] for d in diffs])
        assert _same_bits(k.eval_diffs(diffs), rows)


# ---------------------------------------------------------------- plain Grams from the upper triangle


class _SignedPhaseKernel:
    """A kernel-shaped plane wave e^{-i d_1} on R^m whose phase is the first
    coordinate itself, not a product summed from +0.0 (as BLAS and np.sum
    start), so the sign of an exact zero in a difference reaches its block."""

    def __init__(self, m):
        self.m, self.ell = m, 1

    def eval_diffs(self, diffs):
        return np.exp(-1j * np.asarray(diffs)[:, 0])[:, None, None]


class _SignedJetKernel(OperatorKernel):
    """An OperatorKernel on R^m, so both assemblies take its jets, whose
    table (d^gamma F)(d) = -(1 + |gamma|) e^{-i d_1} I is an assembly probe,
    not a derivative: like _SignedPhaseKernel it keeps the sign of an exact
    zero of d_1, which the jets of the real families lose. The real part is
    negative, so the sign of a zero imaginary part survives the complex
    products by (-1)^|beta| (x * 0 is -0.0 for x < 0)."""

    def __init__(self, m, ell):
        super().__init__("signed", None, PlaneWaveMeasure(ell, m), m)

    def deriv_diffs(self, gammas, diffs):
        phase = np.exp(-1j * np.asarray(diffs)[:, 0])[None, :, None, None]
        scale = np.array([-1.0 - sum(g) for g in gammas])[:, None, None, None] * np.ones((self.ell, self.ell))
        out = np.empty(np.broadcast_shapes(phase.shape, scale.shape), dtype=complex)
        out.real, out.imag = scale * phase.real, scale * phase.imag  # real products keep the sign of a zero
        return out

    def eval_diffs(self, diffs):
        return self.deriv_diffs([(0,) * self.m], diffs)[0]


def _triangle_kernel(family, m, ell, complex_g, big, rng):
    """A kernel for the full-table oracles: radial atoms at scales 0, 0.7 and
    1.6 with real or complex G; plane waves at frequencies in {-1, 0, 1}^m
    with diagonal G when real, so blocks hold exact zeros; the shifted pair;
    or the signed-zero phase (_SignedPhaseKernel), also with jets
    (_SignedJetKernel). With big, one atom whose G has an entry 9e307
    (and a finite trace), so the Gram's halved sums take the overflow branch."""
    if family == "shifted_pair":
        return ShiftedPairKernel(rng.integers(-2, 3, size=m) / 2.0 + 0.25)
    if family == "signed_jets":
        return _SignedJetKernel(m, ell)
    if family == "signed_phase":
        return _SignedPhaseKernel(m)

    def weight():
        if big:
            g = np.diag([9e307] + [1.0] * (ell - 1)).astype(complex)
            g[0, 1:] = 1e150 * (0.6 + 0.8j if complex_g else 1.0)
            return g + np.triu(g, 1).conj().T
        b = rng.normal(size=(ell, ell)) + (1j * rng.normal(size=(ell, ell)) if complex_g else 0.0)
        return np.diag(rng.uniform(0.5, 2.0, size=ell)) if family == "plane_wave" and not complex_g else b.conj().T @ b

    if family == "plane_wave":
        atoms = [(rng.integers(-1, 2, size=m).astype(float), weight()) for _ in range(1 if big else 3)]
        return plane_wave_kernel(PlaneWaveMeasure(ell, m, atoms))
    profile = {"gaussian": RadialProfile.gaussian(), "askey": RadialProfile.askey(m + 2), "omega": RadialProfile.omega(3)}
    return radial_kernel(profile[family], OperatorMeasure(ell, [(w, weight()) for w in ([0.7] if big else [0.0, 0.7, 1.6])]), m)


def _triangle_points(design, n, m, rng):
    """n points in R^m: a grid in lexicographic order (its points share
    coordinates and its differences repeat), the grid shuffled, random
    points, or a grid around the origin whose zero coordinates are -0.0 or
    0.0 at random (so +0.0 meets -0.0 in differences)."""
    if design == "random":
        return rng.uniform(-2.0, 2.0, size=(n, m))
    side = math.ceil(n ** (1.0 / m))
    axis = (np.arange(side) - side // 2) * 0.75 if design == "signed_zero" else np.arange(side) * 0.75
    grid = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)[:n]
    if design == "signed_zero":
        grid[(grid == 0.0) & (rng.random(grid.shape) < 0.5)] = -0.0
    return grid[rng.permutation(n)] if design == "shuffled" else grid


def _outcome(build):
    """A built Gram, or the class and message of the error building it raised."""
    try:
        return build()
    except OpKernelError as exc:
        return type(exc), str(exc)


def _int64_outcome(build):
    """_outcome with a Gram as its int64 view, which tells -0.0 from 0.0."""
    got = _outcome(build)
    return got if isinstance(got, tuple) else got.view(np.int64).tobytes()


def _triangle_cases(family, m, ell, complex_g, big, design, n, q, seed):
    """The kernel of one drawn case and its Grams, as (points, alphas,
    build): deriv_gram at jet order q; at q >= 1 a Hermite system (one
    multi-index per datum, the first point repeated at another one); and
    the Grams of a stack of probe designs, or of the shifted-gaussian demo's
    design, each drawn by certify._seeded_design and built from its
    differences. A kernel that keeps the
    sign of a zero takes a sorted grid for signed_zero: de-duplication keys
    rows as floats (-0.0 == 0.0), and the oracle's n^2 table and the
    assembler's pair table pass its 64-row threshold at different n."""
    rng = np.random.default_rng(seed)
    kernel = _triangle_kernel(family, m, ell, complex_g, big, rng)
    pts = _triangle_points("sorted" if design == "signed_zero" and family.startswith("signed_") else design, n, m, rng)
    idxs = np.array(multi_indices_up_to(m, q))
    cases = [(pts, np.broadcast_to(idxs, (n, len(idxs), m)), lambda: deriv_gram(kernel, pts, q).matrix.entries)]
    if q:
        xs, alphas = np.concatenate([pts, pts[:1]]), idxs[rng.integers(0, len(idxs), size=n + 1)]
        alphas[-1] = 1 - np.minimum(alphas[0], 1)  # another multi-index at the first point

        def hermite():
            checked, diffs = _check_points(xs, m, same=alphas)
            return kernel_module._hermitian_gram(kernel, checked, diffs, alphas[:, None, :])

        cases.append((xs, alphas[:, None, :], hermite))
    size = 6 if family == "shifted_pair" else 2 + n % 5  # the shifted-gaussian demo draws 6 points
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, t])) for t in range(1 + n % 3)]
    points, diffs = _seeded_design(kernel, size, rngs, 2.0)
    grams = kernel_module._hermitian_gram(kernel, points, diffs)
    return kernel, cases + [(p, None, lambda g=g: g) for p, g in zip(points, grams)]


_TRIANGLE_CASES = dict(
    family=st.sampled_from(["gaussian", "askey", "omega", "plane_wave", "shifted_pair", "signed_phase", "signed_jets"]),
    m=st.integers(1, 3),
    ell=st.integers(1, 3),
    complex_g=st.booleans(),
    big=st.booleans(),
    design=st.sampled_from(["sorted", "shuffled", "random", "signed_zero"]),
    n=st.integers(1, 20),
    q=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)


@given(**_TRIANGLE_CASES)
@settings(max_examples=250, deadline=None)
# grids past 64 pairs, whose distinct rows are evaluated once each
@example(family="signed_phase", m=3, ell=1, complex_g=False, big=False, design="shuffled", n=11, q=0, seed=0)
@example(family="plane_wave", m=2, ell=2, complex_g=False, big=False, design="random", n=16, q=0, seed=1)
@example(family="plane_wave", m=3, ell=3, complex_g=True, big=True, design="shuffled", n=20, q=0, seed=2)
# jets at +0.0 meeting -0.0, and entries near 9e307 whose halved sums take the overflow branch
@example(family="gaussian", m=2, ell=2, complex_g=True, big=False, design="signed_zero", n=9, q=2, seed=3)
@example(family="plane_wave", m=2, ell=2, complex_g=False, big=False, design="signed_zero", n=16, q=1, seed=4)
@example(family="omega", m=1, ell=2, complex_g=True, big=True, design="sorted", n=5, q=1, seed=5)
@example(family="signed_jets", m=2, ell=2, complex_g=False, big=False, design="sorted", n=6, q=1, seed=6)
def test_plain_grams_are_the_full_table_assembly_bit_for_bit(family, m, ell, complex_g, big, design, n, q, seed):
    """deriv_gram at q = 0-2, Hermite systems, a stack of probe designs and
    the shifted-gaussian demo's design (_triangle_cases) give, as int64
    views, the Grams that the full n^2 block table gives by the
    upper-triangle rule (kernel_oracles.full_table_gram), or the same error:
    radial families at ell 1-3 with real or complex G and a scale-0 atom,
    plane waves whose blocks hold exact zeros, the shifted pair, a phase
    that keeps the sign of a zero, also in jets; grids sorted and shuffled
    (de-duplicated above 64 pairs), random points and grids whose zeros are
    -0.0 or 0.0; entries near 9e307."""
    kernel, cases = _triangle_cases(family, m, ell, complex_g, big, design, n, q, seed)
    for points, alphas, build in cases:
        assert _int64_outcome(build) == _int64_outcome(lambda: full_table_gram(kernel, points, alphas))


@given(**_TRIANGLE_CASES)
@settings(max_examples=250, deadline=None)
@example(family="plane_wave", m=3, ell=3, complex_g=True, big=True, design="shuffled", n=20, q=0, seed=2)
@example(family="omega", m=1, ell=2, complex_g=True, big=True, design="sorted", n=5, q=1, seed=5)
def test_grams_stay_near_the_symmetrized_full_table(family, m, ell, complex_g, big, design, n, q, seed):
    """Every entry of the Grams of _triangle_cases is within 1e-14 max(1,
    trace) of hermitian_part of the full n^2 block table
    (kernel_oracles.symmetrized_full_table_gram), the Gram before its lower
    blocks became the adjoints of its upper ones, or both raise the same
    error. The jets of _SignedJetKernel are no derivatives, so its Grams at
    q >= 1 are not Hermitian and the two rules part there: not checked."""
    assume(family != "signed_jets" or q == 0)
    kernel, cases = _triangle_cases(family, m, ell, complex_g, big, design, n, q, seed)
    for points, alphas, build in cases:
        got, want = _outcome(build), _outcome(lambda: symmetrized_full_table_gram(kernel, points, alphas))
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert got == want
        else:
            with np.errstate(over="ignore"):  # a trace past the float range is inf: any finite gap passes
                scale = max(1.0, np.trace(want).real)
            assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_deriv_gram_at_the_row_cap_holds_little_beyond_its_matrix():
    """deriv_gram at q = 2 on 341 random points in R^2 (2046 rows, the
    row-cap deriv-gram shape, a 64 MiB matrix) peaks at no more than 1.35
    times its matrix (1.25 measured): besides the matrix it holds the jets
    of the pairs i <= j alone, and one block of pairs at a time. With the
    jets of their mirrors too it peaked at 1.47 times; with the n^2 block
    table, its layout copy and its symmetrized copy at 2.95 times."""
    kernel = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.eye(1))]), 2)
    pts = np.random.default_rng(0).uniform(-3.0, 3.0, size=(341, 2))
    tracemalloc.start()
    try:
        g = deriv_gram(kernel, pts, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.matrix.entries.shape == (2046, 2046)
    assert peak <= 1.35 * g.matrix.entries.nbytes, peak / 2**20


def test_hermite_system_holds_the_jets_of_the_pairs_i_le_j_alone():
    """A Hermite system of 512 random points in R^1, each at alpha 0 and 1
    (1024 rows, a 16 MiB matrix), peaks at no more than 7 times its matrix
    (5.1 measured): the jet tables of the pairs i <= j of its 1024 data and
    one block of pairs at a time. With the jets of the mirrored pairs i < j
    too it peaked at 10.5 times."""
    kernel = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.eye(1))]), 1)
    xs = np.repeat(np.random.default_rng(1).uniform(-3.0, 3.0, size=512), 2)[:, None]
    alphas = np.tile([[0], [1]], (512, 1))
    tracemalloc.start()
    try:
        points, diffs = _check_points(xs, 1, same=alphas)
        h = kernel_module._hermitian_gram(kernel, points, diffs, alphas[:, None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.nbytes == 16 * 2**20
    assert peak <= 7 * h.nbytes, peak / 2**20


def test_plain_gram_at_the_bump_atom_cap_holds_little_beyond_its_matrix():
    """deriv_gram at q = 0 on the radial-bump design at its atom cap (the
    1024 points |x| < 1 of a 2048-point grid over [-1.998, 1.998], a
    2048-row plane-wave Gram of 64 MiB) peaks at no more than 1.25 times its
    matrix: no n^2-block table, layout copy or symmetrized copy is made."""
    x = np.linspace(-1.998, 1.998, 2048)
    xis = np.linspace(-32.0, 32.0, 2048)[:, None]
    u = np.random.default_rng(0).normal(size=(2048, 2))
    kernel = plane_wave_kernel(PlaneWaveMeasure(2, 1, xis=xis, gs=u[:, :, None] * u[:, None, :]))
    pts = x[np.abs(x) < 1.0][:, None]
    tracemalloc.start()
    try:
        g = deriv_gram(kernel, pts, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.matrix.entries.nbytes == 64 * 2**20
    assert peak <= 1.25 * g.matrix.entries.nbytes, peak / 2**20
