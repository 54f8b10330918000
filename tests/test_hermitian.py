"""Hermitian linear algebra: closed-form cases and random-draw invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opkernel import hermitian
from opkernel.errors import InvalidMatrix, NotPSD, NumericalFailure
from opkernel.hermitian import (
    HermitianMatrix,
    _eigh_checked,
    _frobenius,
    cholesky_psd,
    eigen_hermitian,
    factor_margin,
    hermitian_part,
    is_psd,
    psd_margin,
    solve_cholesky,
)
from opkernel.kernel import gram, radial_kernel
from opkernel.measures import OperatorMeasure
from opkernel.profiles import RadialProfile


def H(rows):
    return HermitianMatrix(np.array(rows, dtype=complex))


def random_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianMatrix(a + a.conj().T)


def random_psd(seed, dim):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianMatrix(b.conj().T @ b)


# ---------------------------------------------------------------- eigen


def test_eigen_identity():
    dec = eigen_hermitian(H(np.eye(3)))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_eigen_2x2_closed_form():
    dec = eigen_hermitian(H([[2, 1], [1, 2]]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_eigen_pauli_y():
    dec = eigen_hermitian(H([[0, 1j], [-1j, 0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eigen_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        H([[np.nan, 0], [0, 1]])


def test_eigen_sorted_ascending():
    dec = eigen_hermitian(random_hermitian(7, 6))
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_hermitian_part_keeps_entries_near_float_max():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = H([[1e308, 0], [0, 1]])
        assert h.entries[0, 0] == 1e308
        assert is_psd(h).ok
        assert cholesky_psd(h)[0, 0] == 1e154
        off = hermitian_part(np.array([[[1.0, 1.5e308], [1.7e308, 2.0]]], dtype=complex))
    assert off[0, 0, 1] == off[0, 1, 0] == 1.6e308


def test_hermitian_part_bitwise_equals_halved_sum():
    """Wherever (A + A^H)/2 is finite it is the result, bit for bit, also
    for subnormal entries whose last bit halving first would drop."""
    rng = np.random.default_rng(11)
    for scale in (1.0, 1e-300, 5e-324, 1e150):
        a = (rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))) * scale
        a[0, 0, 1] = complex(-0.0, 5e-324)
        expected = (a + np.conj(np.swapaxes(a, 1, 2))) / 2
        assert hermitian_part(a).tobytes() == expected.tobytes()
        # C-ordered whatever the input's layout: the layout changes the bits
        # of the eigensolves and products downstream
        for b in (a[1], np.asfortranarray(a[1])):
            entries = H(b).entries
            assert entries.flags.c_contiguous
            assert entries.tobytes() == expected[1].tobytes()


# ---------------------------------------------------------------- min eig / trace


def test_min_eigenvalue_diag():
    assert eigen_hermitian(H([[4, 0], [0, 9]])).eigenvalues[0] == pytest.approx(4.0, abs=1e-12)


def test_min_eigenvalue_rank1():
    assert eigen_hermitian(H([[1, 1], [1, 1]])).eigenvalues[0] == pytest.approx(0.0, abs=1e-12)


def test_min_eigenvalue_closed_form():
    assert eigen_hermitian(H([[2, 1], [1, 2]])).eigenvalues[0] == pytest.approx(1.0, abs=1e-12)


def test_trace_cases():
    assert np.trace(H(np.eye(4)).entries).real == 4.0
    assert np.trace(H([[4, 0], [0, 9]]).entries).real == 13.0
    assert np.trace(H(np.zeros((2, 2))).entries).real == 0.0


# ---------------------------------------------------------------- is_psd


def test_is_psd_identity():
    assert is_psd(H(np.eye(2))).ok


def test_is_psd_indefinite_witness():
    chk = is_psd(H([[1, 0], [0, -1]]))
    assert not chk.ok
    # witness should be (up to phase) e2
    w = np.abs(chk.witness)
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)


def test_is_psd_boundary():
    assert is_psd(H([[1, 1], [1, 1]])).ok


def test_psd_margin_reads_min_eigenvalue_scale_and_vector():
    lam, scale, vec = psd_margin(H([[3, 1j], [-1j, 3]]))
    assert lam == pytest.approx(2.0, abs=1e-12) and scale == 6.0
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(H([[3, 1j], [-1j, 3]]).entries @ vec, lam * vec, atol=1e-12)
    # the scale is max(1, trace), so small matrices are judged absolutely
    assert psd_margin(H([[1e-3, 0], [0, 0]]))[1] == 1.0


def test_psd_margin_of_a_stack_matches_each_matrix():
    """A stack (..., n, n) gives arrays over its leading axes, bit for bit
    the margins of its matrices taken one at a time."""
    mats = [random_psd(seed, 3).entries for seed in range(3)] + [random_hermitian(9, 3).entries, H(np.eye(3) * 1e-3).entries]
    lam, scale, vec = psd_margin(np.stack(mats))
    assert lam.shape == scale.shape == (5,) and vec.shape == (5, 3)
    for i, a in enumerate(mats):
        one_lam, one_scale, one_vec = psd_margin(HermitianMatrix(a))
        assert lam[i].tobytes() == np.float64(one_lam).tobytes()
        assert scale[i].tobytes() == np.float64(one_scale).tobytes()
        assert vec[i].tobytes() == one_vec.tobytes()
    assert scale[4] == 1.0 and lam[3] < 0.0
    lam2, scale2, vec2 = psd_margin(np.stack(mats[:4]).reshape(2, 2, 3, 3))
    assert lam2.shape == scale2.shape == (2, 2) and vec2.shape == (2, 2, 3)
    assert lam2.tobytes() == lam[:4].tobytes() and vec2.tobytes() == vec[:4].tobytes()
    empty = psd_margin(np.zeros((0, 2, 2), dtype=complex))
    assert [x.shape for x in empty] == [(0,), (0,), (0, 2)]


def test_measure_atoms_are_judged_by_psd_margin(monkeypatch):
    """merge_psd_atoms reads the one eigenvalue margin, over its whole stack."""
    from opkernel import measures

    seen = []

    def spy(a):
        seen.append(np.shape(a))
        return psd_margin(a)

    monkeypatch.setattr(measures, "psd_margin", spy)
    OperatorMeasure(2, [(1.0, np.eye(2)), (2.0, np.eye(2)), (1.0, np.eye(2))])
    assert seen == [(3, 2, 2)]


# ---------------------------------------------------------------- factor margin


def _factors(seed, k, rows, cols):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(k, rows, cols)) + 1j * rng.normal(size=(k, rows, cols))


@pytest.mark.parametrize("rows, cols", [(6, 2), (6, 5), (4, 4), (3, 5), (4, 0)])
def test_factor_margin_is_the_margin_of_the_gram(rows, cols):
    """A factor with more rows than columns gives lambda_min exactly 0.0,
    any other sigma_min^2. Against psd_margin of the Gram F F^H: lambda_min
    within 1e-12 max(1, trace), the scale its trace, and the witness a unit
    vector whose Gram form is lambda_min."""
    f = _factors(10 * rows + cols, 3, rows, cols)
    lam, scale, vec = factor_margin(f)
    grams = hermitian_part(f @ np.conj(np.swapaxes(f, -1, -2)))
    g_lam, g_scale, _ = psd_margin(grams)
    assert lam.shape == scale.shape == (3,) and vec.shape == (3, rows)
    if rows > cols:
        assert lam.tolist() == [0.0] * 3
    assert np.all(np.abs(lam - g_lam) <= 1e-12 * g_scale)
    assert scale == pytest.approx(g_scale, rel=1e-14)
    for g, v, lo, sc in zip(grams, vec, lam, scale):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(v, g @ v).real - lo) <= 1e-12 * sc


def test_a_factor_scale_past_the_float_range_is_the_trace_failure():
    """||F||_F = 1.7e154 is finite, but the scale ||F||_F^2, the Gram's
    trace 3e308, is not."""
    f = np.full((1, 3, 1), 1e154, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(_frobenius(f)).all()
        with pytest.raises(NumericalFailure, match="^PSD check: the trace overflows the float range$"):
            factor_margin(f)


def _breach(what):
    """An SVD whose singular values, or the last column of U or row of V^H,
    are off by 1e-3; or one that fails."""
    svd = np.linalg.svd

    def breached(a, **kwargs):
        if what == "converge":
            raise np.linalg.LinAlgError("SVD did not converge")
        u, s, vh = (x.copy() for x in svd(a, **kwargs))
        {"s": s, "U": u[..., -1], "V": vh[..., -1, :]}[what][...] *= 1.001
        return u, s, vh

    return breached


# U's last column spans the null space of a taller factor, and V^H's last row
# goes with the singular value 0 of a wide factor with a zero row: the
# reconstruction reads neither, so only the unitarity residual sees them
_WIDE_SINGULAR = np.array([[[1.0, 2.0, 0.0, 1.0j], [0.0, 0.0, 0.0, 0.0]]])


@pytest.mark.parametrize("what, f, message", [
    ("s", _factors(5, 2, 4, 2), "^singular value decomposition reconstruction residual too large$"),
    ("U", _factors(5, 2, 4, 2), "^singular vector matrix is not unitary to tolerance$"),
    ("V", _WIDE_SINGULAR, "^singular vector matrix is not unitary to tolerance$"),
    ("converge", _factors(5, 2, 4, 2), "^singular value decomposition did not converge$"),
], ids=["s", "U", "V", "converge"])
def test_factor_margin_guards_its_svd(monkeypatch, what, f, message):
    factor_margin(f)
    monkeypatch.setattr(np.linalg, "svd", _breach(what))
    with pytest.raises(NumericalFailure, match=message):
        factor_margin(f)


def test_factor_margin_checks_the_witness_form(monkeypatch):
    """F = I_2: sigma_min raised by 1.3e-12 keeps the reconstruction
    residual (1.3e-12) within 1e-12 ||F||_F = 1.41e-12, but puts lambda_min
    2.6e-12 from the witness's form ||F^H u||^2 = 1, past 1e-12 times the
    scale 2."""
    f = np.eye(2, dtype=complex)[None]
    assert factor_margin(f)[0] == pytest.approx([1.0], abs=1e-15)
    svd = np.linalg.svd

    def raised(a, **kwargs):
        u, s, vh = svd(a, **kwargs)
        return u, s + [0.0, 1.3e-12], vh

    monkeypatch.setattr(np.linalg, "svd", raised)
    with pytest.raises(NumericalFailure, match=r"^witness form \|\|F\^H u\|\|\^2 differs from lambda_min beyond tolerance$"):
        factor_margin(f)


# ---------------------------------------------------------------- overflow

# every entry finite, but lambda_max = 2e308 and ||.||_F = 2e308 are not
ALL_1E308 = [[1e308, 1e308], [1e308, 1e308]]


def test_frobenius_overflows_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _frobenius(np.array(ALL_1E308, dtype=complex)) == np.inf
        assert _frobenius(np.array([[1e308, 0.0], [0.0, 1e308]])) == 1e308 * np.sqrt(2.0)


def test_an_eigenvalue_past_the_float_range_is_a_numerical_failure():
    """eigh returns lambda_max = inf here; its reconstruction residual was
    NaN, which compared false against the tolerance and passed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="^eigendecomposition: an eigenvalue overflows the float range$"):
            eigen_hermitian(H(ALL_1E308))
        with pytest.raises(NumericalFailure, match="^eigendecomposition: an eigenvalue"):
            psd_margin(np.stack([np.eye(2, dtype=complex), np.array(ALL_1E308, dtype=complex)]))


def test_a_nan_reconstruction_residual_is_a_numerical_failure(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0], np.full(h.shape, np.nan, dtype=complex)))
    with pytest.raises(NumericalFailure, match="^eigendecomposition reconstruction residual too large$"):
        eigen_hermitian(H(np.eye(2)))


def test_a_wrong_eigenpair_is_caught_where_the_norm_overflows(monkeypatch):
    """||h||_F is inf here while both eigenvalues (1.4e308, 1.6e308) are
    finite, so a residual bound of tol * ||h||_F passed any eigenpair; the
    residual is now taken on h over its largest entry."""
    h = np.array([[1.5e308, 1e307], [1e307, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(_frobenius(H(h).entries))
        assert eigen_hermitian(H(h)).eigenvalues.tolist() == pytest.approx([1.4e308, 1.6e308], rel=1e-15)
        # in a stack, only the matrix whose norm overflows is rescaled
        w, _ = _eigh_checked(np.stack([np.eye(2, dtype=complex), H(h).entries]))
        assert w[:, 0].tolist() == pytest.approx([1.0, 1.4e308], rel=1e-15)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] * [1.0, 0.95], eigh(a)[1]))
        with pytest.raises(NumericalFailure, match="^eigendecomposition reconstruction residual too large$"):
            eigen_hermitian(H(h))
        with pytest.raises(NumericalFailure, match="^eigendecomposition reconstruction residual too large$"):
            _eigh_checked(H(h).entries[None])


def _residuals_by_expression(h, w, v):
    """The reconstruction and unitarity residual norms as plain expressions:
    each product and difference a new array, each norm np.linalg.norm's,
    with _frobenius's fallback where a sum of squares overflows."""
    vh = np.conj(np.swapaxes(v, -1, -2))
    with np.errstate(over="ignore", invalid="ignore"):
        recon = (v * w[..., None, :]) @ vh - h
        norm = np.asarray(np.linalg.norm(recon, axis=(-2, -1)))
        big = np.isinf(norm)
        if big.any():
            xs = recon[big] if recon.ndim > 2 else recon[None]
            top = np.max(np.abs(xs), axis=(-2, -1))
            norm[big] = top * np.linalg.norm(xs / top[:, None, None], axis=(-2, -1))
    return norm, np.linalg.norm(vh @ v - np.eye(h.shape[-1]), axis=(-2, -1))


@given(
    k=st.integers(1, 6),
    dim=st.integers(1, 20),
    scale=st.sampled_from([1.0, 1e-200, 1e150, 1e300, "overflow"]),
    seed=st.integers(0, 2**32 - 1),
    stacked=st.booleans(),
)
@example(k=3, dim=4, scale="overflow", seed=0, stacked=True)
@example(k=1, dim=2, scale="overflow", seed=1, stacked=False)
@settings(max_examples=60, deadline=None)
def test_eigen_residuals_are_the_plain_expressions_bit_for_bit(k, dim, scale, seed, stacked):
    """The residuals, computed in place in two buffers, are the plain
    expressions' bit for bit: on stacks and on single matrices, and on the
    branch that checks a matrix whose norm overflows divided by its largest
    entry (eigenvalues 1.3e308 to 1.5e308, whose norm passes the float range
    from two rows on)."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim)))[0]
    if scale == "overflow":
        lam = rng.uniform(1.3, 1.5, size=(k, 1, dim))
        h = hermitian_part((q * lam) @ np.conj(np.swapaxes(q, -1, -2))) * 1e308
    else:
        h = hermitian_part(rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))) * scale
    h = h if stacked else h[0]
    seen, residuals = [], hermitian._eig_residuals

    def spy(*args):
        seen.append((args, residuals(*args)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(hermitian, "_eig_residuals", spy)
        try:
            _eigh_checked(h)
        except NumericalFailure:
            pass  # the residuals were still taken
    ((hs, ws, v), (recon, unitary)), = seen
    if scale == "overflow" and dim > 1:
        assert hs is not h and np.isinf(_frobenius(h)).all()
    want_recon, want_unitary = _residuals_by_expression(hs, ws, v)
    assert recon.tobytes() == want_recon.tobytes() and recon.shape == want_recon.shape
    assert unitary.tobytes() == want_unitary.tobytes() and unitary.shape == want_unitary.shape


@pytest.mark.parametrize("layout", ["c", "transposed", "column", "real"])
def test_frobenius_is_np_linalg_norm_bit_for_bit(layout):
    """Through a work array or its own, _frobenius gives np.linalg.norm's
    bits, on C-ordered stacks, transposed views, column reshapes and real
    arrays."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 9, 9)) + 1j * rng.normal(size=(5, 9, 9))
    x = {"c": x, "transposed": np.swapaxes(x, -1, -2), "column": x.reshape(-1, 3, 1), "real": x.real}[layout]
    want = np.linalg.norm(x, axis=(-2, -1))
    assert _frobenius(x).tobytes() == want.tobytes()
    if x.flags.c_contiguous:
        assert _frobenius(x, work=np.empty_like(x)).tobytes() == want.tobytes()


def test_a_trace_past_the_float_range_is_a_numerical_failure():
    """diag(1e308, 1e308) has finite eigenvalues but trace 2e308: the scale
    max(1, trace) was inf, so lambda_min <= tol * scale held for any lambda."""
    big = H(np.diag([1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eigen_hermitian(big).eigenvalues.tolist() == [1e308, 1e308]
        for a in (big, big.entries[None]):
            with pytest.raises(NumericalFailure, match="^PSD check: the trace overflows the float range$"):
                psd_margin(a)
        with pytest.raises(NumericalFailure, match="^PSD check: the trace"):
            is_psd(big)


def test_a_cholesky_scale_past_the_float_range_is_a_numerical_failure():
    """||M||_F = 2e308 made the residual bound inf, so it could never trip."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            NumericalFailure, match="^Cholesky factorization: the matrix norm overflows the float range$"
        ):
            cholesky_psd(H(ALL_1E308))
        # a jitter that takes a diagonal entry past the float range
        with pytest.raises(NumericalFailure, match="^Cholesky factorization: the matrix norm"):
            cholesky_psd(H([[1.7e308]]), jitter=1.7e308)
        assert cholesky_psd(H(np.diag([1e308, 1e308])))[1, 1] == 1e154


# ---------------------------------------------------------------- cholesky


def test_cholesky_identity():
    low = cholesky_psd(H(np.eye(2)), jitter=0.0)
    assert np.allclose(low, np.eye(2), atol=1e-14)


def test_cholesky_diag():
    low = cholesky_psd(H([[4, 0], [0, 9]]), jitter=0.0)
    assert np.allclose(low, [[2, 0], [0, 3]], atol=1e-14)


def test_cholesky_rank_deficient():
    # ones 2x2: second pivot is exactly 0; succeeds both with and without jitter
    a = H([[1, 1], [1, 1]])
    for jitter in (1e-8, 0.0):
        low = cholesky_psd(a, jitter=jitter)
        resid = np.linalg.norm(low @ low.conj().T - (a.entries + jitter * np.eye(2)))
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(a.entries))


def test_cholesky_indefinite_pivot_index():
    with pytest.raises(NotPSD) as exc_info:
        cholesky_psd(H([[1, 0], [0, -1]]), jitter=0.0)
    assert exc_info.value.pivot_index == 1


def test_solve_cholesky_roundtrip():
    a = random_psd(3, 5)
    shifted = HermitianMatrix(a.entries + 1e-6 * np.eye(5))
    low = cholesky_psd(shifted, jitter=0.0)
    rng = np.random.default_rng(4)
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    b = shifted.entries @ x
    assert np.allclose(solve_cholesky(low, b), x, atol=1e-7)


def _substitution_solve(low, rhs):
    """The forward and back substitution loops solve_cholesky ran before it
    called LAPACK; a zero pivot gives a zero component."""
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


def test_solve_cholesky_matches_substitution_loops():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    rank3 = HermitianMatrix(b @ b.conj().T)  # LAPACK refuses; the loop clamps pivots
    for a in (rank3, H([[1, 1], [1, 1]]), random_psd(5, 6)):
        low = cholesky_psd(a, jitter=0.0)
        rhs = rng.normal(size=a.dim) + 1j * rng.normal(size=a.dim)
        expected = _substitution_solve(low, rhs)
        got = solve_cholesky(low, rhs)
        assert np.array_equal(got == 0, expected == 0)
        assert np.max(np.abs(got - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))
    assert np.count_nonzero(np.diagonal(cholesky_psd(rank3)) == 0) >= 2


def test_cholesky_default_ridge_at_cond_1e11():
    """A gaussian Gram at 40 points with the interpolation default ridge,
    1e-10 * trace/dim, has condition number about 1.5e11. It is strictly
    positive definite, and LAPACK factors it; clamping pivots below
    1e-10 * ||M||_F to zero used to break the residual guard here."""
    kernel = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.5, np.eye(1))]), 1)
    pts = np.sort(np.random.default_rng(0).uniform(-2.0, 2.0, 40))[:, None]
    g = gram(kernel, pts).matrix
    m = g.entries + 1e-10 * np.trace(g.entries).real / g.dim * np.eye(g.dim)
    assert 1e11 <= np.linalg.cond(m) <= 1e12
    low = cholesky_psd(HermitianMatrix(m))
    assert np.all(np.diagonal(low).real > 0.0)
    assert np.linalg.norm(low @ low.conj().T - m) <= 1e-15 * np.linalg.norm(m)


# ---------------------------------------------------------------- properties


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_eigen_reconstruction_and_unitarity(seed, dim):
    a = random_hermitian(seed, dim)
    dec = eigen_hermitian(a)
    v = dec.eigenvectors
    recon = v @ np.diag(dec.eigenvalues) @ v.conj().T
    scale = max(1.0, np.linalg.norm(a.entries))
    assert np.linalg.norm(recon - a.entries) <= 1e-12 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-12


@given(st.integers(0, 10_000), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_min_eigenvalue_unitary_invariance(seed, dim):
    """Conjugating by a unitary must not move the smallest eigenvalue."""
    a = random_hermitian(seed, dim)
    u = eigen_hermitian(random_hermitian(seed + 1, dim)).eigenvectors
    conj = HermitianMatrix(u @ a.entries @ u.conj().T)
    assert psd_margin(conj)[0] == pytest.approx(psd_margin(a)[0], abs=1e-10)


@given(st.integers(0, 10_000), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_cholesky_factors_random_psd(seed, dim):
    a = random_psd(seed, dim)
    low = cholesky_psd(a, jitter=0.0)
    scale = max(1.0, np.linalg.norm(a.entries))
    assert np.linalg.norm(low @ low.conj().T - a.entries) <= 1e-10 * scale
    assert np.allclose(np.triu(low, 1), 0.0)
