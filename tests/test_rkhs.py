"""RKHS elements: embeddings, dual-route quadratic forms, interpolation."""

import io
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opkernel import kernel as kernel_module
from opkernel import rkhs as rkhs_module
from opkernel.certify import ShiftedPairKernel
from opkernel.errors import (
    DuplicatePoints,
    InvalidParameter,
    InvalidPoint,
    InvalidVector,
    NumericalFailure,
    SchemaError,
    UnsupportedJet,
)
from opkernel.kernel import OperatorKernel, PlaneWaveMeasure, kernel_deriv_eval, plane_wave_kernel, radial_kernel
from opkernel.measures import OperatorMeasure
from opkernel.profiles import RadialProfile, multi_indices_up_to
from opkernel.rkhs import (
    RkhsElement,
    VectorAtomMeasure,
    hermite_interpolate,
    interpolate,
    quadratic_form_detail,
    rkhs_deriv_eval,
    rkhs_eval,
)
from opkernel.schema import complex_from_json, complex_to_json, write_report

from kernel_oracles import conj_blocks

SCALAR_GAUSS = radial_kernel(
    RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.array([[1.0]]))]), 1
)
DIAG_GAUSS = radial_kernel(
    RadialProfile.gaussian(), OperatorMeasure(2, [(1.0, np.diag([1.0, 2.0]))]), 1
)


def plain_measure(kernel, atoms):
    return VectorAtomMeasure(kernel.m, kernel.ell, atoms)


def embed(kernel, eta):
    """The element sum_i (d^{alpha_i}_1 K)(x_i, .)^H v_i of the measure's atoms."""
    return RkhsElement(kernel, eta.alphas, eta.points, eta.vectors)


def random_deriv_measure(rng, m, ell, q):
    alphas, atoms = [], []
    for alpha in multi_indices_up_to(m, q):
        if rng.random() < 0.3 and alphas:
            continue  # leave some multi-indices absent
        for _ in range(int(rng.integers(1, 4))):
            alphas.append(alpha)
            atoms.append((rng.normal(size=m), rng.normal(size=ell) + 1j * rng.normal(size=ell)))
    return VectorAtomMeasure(m, ell, atoms, alphas=alphas, q=q)


# ---------------------------------------------------------------- eval


def test_rkhs_eval_single_atom():
    # K(0, y) e1 at y = 1 is e^{-1} (1, 0) for the diag(1,2) gaussian kernel
    eta = plain_measure(DIAG_GAUSS, [(np.array([0.0]), np.array([1.0, 0.0]))])
    el = embed(DIAG_GAUSS, eta)
    val = rkhs_eval(el, np.array([1.0]))
    assert np.allclose(val, [math.exp(-1.0), 0.0], atol=1e-15)


def test_rkhs_deriv_eval_single_atom():
    # d/dy of e^{-(x-y)^2} at x=0, y=1 is 2(x-y)e^{-(x-y)^2}|_{-1} = -2e^{-1}
    eta = plain_measure(SCALAR_GAUSS, [(np.array([0.0]), np.array([1.0]))])
    el = embed(SCALAR_GAUSS, eta)
    val = rkhs_deriv_eval(el, (1,), np.array([1.0]))
    assert val[0] == pytest.approx(-2.0 * math.exp(-1.0), abs=1e-14)


def _per_atom_deriv_eval(element, beta, y):
    """rkhs_deriv_eval as it was: one kernel_deriv_eval call per atom."""
    out = np.zeros(element.kernel.ell, dtype=complex)
    for alpha, x, v in zip(element.alphas.tolist(), element.points, element.vectors):
        out += kernel_deriv_eval(element.kernel, tuple(alpha), beta, x, y).conj().T @ v
    return out


def _complex_psd(rng, ell):
    b = rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell))
    return b.conj().T @ b


def _kernel(family, rng, m, ell=2):
    """A two-atom kernel with complex weights, so no block is symmetric."""
    if family == "plane_wave":
        return plane_wave_kernel(PlaneWaveMeasure(ell, m, [(rng.normal(size=m), _complex_psd(rng, ell)) for _ in range(2)]))
    prof = RadialProfile.gaussian() if family == "gaussian" else RadialProfile.omega(3)
    return radial_kernel(prof, OperatorMeasure(ell, [(0.6, _complex_psd(rng, ell)), (1.4, _complex_psd(rng, ell))]), m)


@pytest.mark.parametrize("family", ["gaussian", "omega", "plane_wave"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_rkhs_deriv_eval_matches_per_atom_loop(family, m):
    """Every atom order |alpha| <= 2 in one element, every |beta| <= 2, at
    one point and at a batch of five."""
    rng = np.random.default_rng(10 * m + len(family))
    kernel = _kernel(family, rng, m)
    idxs = multi_indices_up_to(m, 2)
    alphas = [alpha for alpha in idxs for _ in range(2)]
    eta = VectorAtomMeasure(
        m, 2, [(rng.uniform(-1, 1, m), rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in alphas], alphas=alphas, q=2
    )
    el = embed(kernel, eta)
    ys = rng.uniform(-1.5, 1.5, size=(5, m))
    for beta in idxs:
        batch = rkhs_deriv_eval(el, beta, ys)
        assert batch.shape == (5, 2)
        for i, y in enumerate(ys):
            expected = _per_atom_deriv_eval(el, beta, y)
            scale = max(1.0, float(np.max(np.abs(expected))))
            for got in (batch[i], rkhs_deriv_eval(el, beta, y)):
                assert got.shape == (2,)
                assert np.max(np.abs(got - expected)) <= 1e-13 * scale
    plain = embed(kernel, VectorAtomMeasure(m, 2, points=eta.points[:2], vectors=eta.vectors[:2]))
    assert np.max(np.abs(rkhs_eval(plain, ys)[2] - _per_atom_deriv_eval(plain, (0,) * m, ys[2]))) <= 1e-13


def _oracle_deriv_eval(element, beta, ys):
    """rkhs_deriv_eval on a batch ys, from the conj_blocks oracle."""
    blocks = conj_blocks(element.kernel, element.alphas, element.points, beta, ys)
    return np.einsum("ijba,ib->ja", blocks, element.vectors)


def _element_at_repeated_points(kernel, rng, alphas, npoints):
    """An element whose atoms (alphas, in order) sit at npoints shared
    points, with one (alpha, x) row repeated at the end."""
    m, ell = kernel.m, kernel.ell
    shared = rng.uniform(-1, 1, size=(npoints, m))
    alphas = np.array([*alphas, alphas[0]], dtype=int).reshape(-1, m)
    points = shared[np.arange(len(alphas)) % npoints]
    points[-1] = points[0]
    vectors = rng.normal(size=(len(alphas), ell)) + 1j * rng.normal(size=(len(alphas), ell))
    return RkhsElement(kernel, alphas, points, vectors)


@pytest.mark.parametrize("family", ["gaussian", "omega", "plane_wave"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_rkhs_deriv_eval_matches_the_conj_blocks_oracle_bit_for_bit(family, m, q):
    """deriv_blocks gives rkhs_deriv_eval the blocks of its old assembly,
    bit for bit: atoms of every order <= q at repeated points, every beta
    of order <= 2 (zero included), at one point and at batches of one and
    of six (over 64 difference rows: eval_diffs evaluates each distinct row
    once)."""
    rng = np.random.default_rng([m, q, len(family)])
    kernel = _kernel(family, rng, m)
    idxs = multi_indices_up_to(m, q)
    # at least twelve atoms, so six points give over 64 difference rows
    el = _element_at_repeated_points(kernel, rng, [idxs[i % len(idxs)] for i in range(max(11, 2 * len(idxs)))], 3)
    ys = rng.uniform(-1.5, 1.5, size=(6, m))
    ys[1] = el.points[0]
    for beta in multi_indices_up_to(m, 2):
        assert rkhs_deriv_eval(el, beta, ys).tobytes() == _oracle_deriv_eval(el, beta, ys).tobytes()
        assert rkhs_deriv_eval(el, beta, ys[:1]).tobytes() == _oracle_deriv_eval(el, beta, ys[:1]).tobytes()
        assert rkhs_deriv_eval(el, beta, ys[2]).tobytes() == _oracle_deriv_eval(el, beta, ys[2:3])[0].tobytes()


@pytest.mark.parametrize("kernel", [
    radial_kernel(RadialProfile.askey(3), OperatorMeasure(2, [(0.5, np.array([[2.0, 1j], [-1j, 1.0]]))]), 2),
    ShiftedPairKernel([0.4, -0.3]),
], ids=["askey", "shifted_pair"])
def test_rkhs_deriv_eval_at_order_zero_matches_the_oracle_without_jets(kernel):
    """Kernels without jets evaluate at order 0 through eval_diffs, bit for
    bit as the oracle does."""
    rng = np.random.default_rng(5)
    el = _element_at_repeated_points(kernel, rng, [(0, 0)] * 11, 4)
    ys = rng.uniform(-1.0, 1.0, size=(7, 2))
    for batch in (ys, ys[:1]):
        assert rkhs_eval(el, batch).tobytes() == _oracle_deriv_eval(el, (0, 0), batch).tobytes()
    assert rkhs_eval(el, ys[3]).tobytes() == _oracle_deriv_eval(el, (0, 0), ys[3:4])[0].tobytes()


def test_quadratic_form_refuses_a_gram_past_the_row_cap_before_enumerating(monkeypatch):
    """m = 60 and q = 4 give C(64, 4) = 635376 multi-indices: the Gram's row
    cap refuses them before any is listed (listing them first took 8.8 s and
    359 MiB)."""

    def unreachable(m, q):
        raise AssertionError("multi-indices listed past the row cap")

    monkeypatch.setattr(rkhs_module, "multi_indices_up_to", unreachable)
    monkeypatch.setattr(kernel_module, "multi_indices_up_to", unreachable)
    m = 60
    kernel = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.eye(1))]), m)
    eta = VectorAtomMeasure(m, 1, [(np.zeros(m), np.ones(1))], alphas=[(0,) * m], q=4)
    with pytest.raises(InvalidParameter, match="derivative Gram would have 635376 rows"):
        quadratic_form_detail(kernel, [eta])


def test_kernels_without_jets_refuse_nonzero_order():
    """The shifted pair has no analytic jets: each builder of derivative
    blocks refuses a nonzero order with UnsupportedJet. rkhs_deriv_eval and
    hermite_interpolate once raised AttributeError ('ShiftedPairKernel'
    object has no attribute 'deriv_diffs')."""
    kernel = ShiftedPairKernel([0.4])
    el = RkhsElement(kernel, np.zeros((1, 1), dtype=int), np.array([[0.0]]), np.array([[1.0, 0.5j]]))
    with pytest.raises(UnsupportedJet, match="analytic jets"):
        rkhs_deriv_eval(el, (1,), [0.3])
    with pytest.raises(UnsupportedJet, match="analytic jets"):
        hermite_interpolate(kernel, [(np.array([0.0]), (1,), np.array([1.0, 0.0]))])
    with pytest.raises(UnsupportedJet, match="analytic jets"):
        kernel_module.deriv_gram(kernel, np.array([[0.0], [1.0]]), 1)
    # at order 0 every builder evaluates the shifted pair through eval_diffs
    assert rkhs_deriv_eval(el, (0,), [0.3]).shape == (2,)
    res = hermite_interpolate(kernel, [(np.array([0.0]), (0,), np.array([1.0, 0.0]))])
    assert res.residual <= 1e-12


@pytest.mark.parametrize("order", [9, 2**63, 2**64])
def test_rkhs_deriv_eval_refuses_beta_past_the_jet_cap(order):
    """A beta of 2**64 once reached np.unique as an object array and raised
    a numpy TypeError."""
    el = embed(SCALAR_GAUSS, plain_measure(SCALAR_GAUSS, [(np.array([0.0]), np.array([1.0]))]))
    with pytest.raises(UnsupportedJet, match="^derivative order exceeds cap 8$"):
        rkhs_deriv_eval(el, (order,), np.array([0.5]))


def test_rkhs_eval_rejects_bad_points():
    el = embed(DIAG_GAUSS, plain_measure(DIAG_GAUSS, [(np.array([0.0]), np.array([1.0, 0.0]))]))
    for bad in (np.zeros((3, 2)), np.zeros((2, 2, 1)), np.array([np.nan]), np.array([[0.0], [np.inf]])):
        with pytest.raises(InvalidPoint):
            rkhs_eval(el, bad)


def test_measure_merges_coincident_atoms():
    vam = VectorAtomMeasure(
        1, 1, [(np.array([0.5]), np.array([1.0])), (np.array([0.5]), np.array([-1.0]))]
    )
    assert len(vam) == 0
    assert not vam.is_nonzero


def _vector_merge_loop(m, ell, atoms):
    """The per-atom loop VectorAtomMeasure ran before its atoms became
    arrays: (points, vectors) of the kept atoms."""
    merged, order = {}, []
    for x, v in atoms:
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=complex)
        if x.shape != (m,) or not np.all(np.isfinite(x)):
            raise InvalidVector(f"atom point must be a finite vector of length {m}")
        if v.shape != (ell,) or not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise InvalidVector(f"atom vector must be a finite vector of length {ell}")
        key = tuple(float(c) for c in x)
        if key in merged:
            merged[key] = merged[key] + v
        else:
            merged[key] = v.copy()
            order.append(key)
    kept = [(np.array(key, dtype=float), merged[key]) for key in order if float(np.linalg.norm(merged[key])) > 0.0]
    return (
        np.array([x for x, _ in kept]).reshape(len(kept), m),
        np.array([v for _, v in kept], dtype=complex).reshape(len(kept), ell),
    )


def test_vector_measure_merges_like_the_loop():
    """Duplicate points merge in input order from the first vector, a point
    seen as -0.0 and 0.0 keeps its first sign, points keep first-occurrence
    order, and vectors that merge to zero (or whose norm underflows) drop."""
    rng = np.random.default_rng(31)
    base = [(0.5, 1.0), (-0.0, 2.0), (0.0, 2.0), (-3.0, 0.0), (0.5, 1.0), (7.0, -0.0), (0.0, -0.0)]
    atoms = []
    for i, x in enumerate(base):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v[i % 2] = complex(-0.0, -0.0)
        atoms.append((np.array(x), v))
    atoms.append((np.array([-3.0, -0.0]), -atoms[3][1]))  # cancels the atom at (-3, 0)
    atoms.append((np.array([9.0, 9.0]), np.array([1e-170, 0.0])))  # norm underflows to 0
    atoms.append((np.array([0.5, 1.0]), np.array([1e-300, -0.0])))
    pts, vecs = _vector_merge_loop(2, 2, atoms)
    assert len(pts) == 4 and np.signbit(pts[1, 0])
    for vam in (
        VectorAtomMeasure(2, 2, atoms),
        VectorAtomMeasure(2, 2, points=np.array([x for x, _ in atoms]), vectors=np.array([v for _, v in atoms])),
    ):
        assert vam.points.tobytes() == pts.tobytes()
        assert vam.vectors.tobytes() == vecs.tobytes()


def test_vector_measure_rejects_like_the_loop():
    good = (np.zeros(2), np.ones(2))
    for bad in (
        (np.array([0.0, np.nan]), np.ones(2)),
        (np.zeros(3), np.ones(2)),
        (np.zeros(2), np.array([1.0, np.inf * 1j])),
        (np.zeros(2), np.ones(3)),
    ):
        with pytest.raises(InvalidVector) as expected:
            _vector_merge_loop(2, 2, [good, bad, good])
        with pytest.raises(InvalidVector) as info:
            VectorAtomMeasure(2, 2, [good, bad, good])
        assert str(info.value) == str(expected.value)
    with pytest.raises(InvalidVector, match="got 1 atom vectors for 2 points"):
        VectorAtomMeasure(2, 2, points=np.zeros((2, 2)), vectors=np.ones((1, 2)))


def test_vector_measure_keeps_large_vectors_without_warning():
    """Squares of entries past about 1.3e154 overflow to inf, which is > 0,
    so those vectors are kept, with no warning; a vector whose squares all
    underflow is still dropped."""
    big = [np.array([1e200, 0.0]), np.array([0.0, 1e300j]), np.array([-1.7e308, 1e308 + 1e308j])]
    atoms = [(np.array([float(i)]), v) for i, v in enumerate(big)] + [(np.array([9.0]), np.array([1e-170, 0.0]))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vam = VectorAtomMeasure(1, 2, atoms)
    assert not caught
    assert vam.vectors.tobytes() == np.array(big, dtype=complex).tobytes()
    assert vam.points.tolist() == [[0.0], [1.0], [2.0]]


def _derivative_merge_loop(m, ell, rows):
    """The layout derivative measures had before their atoms became flat
    rows: one order-0 measure per alpha, alphas sorted by (|alpha|, alpha).
    Returns the arrays (alphas, points, vectors) of the kept atoms."""
    by_alpha = {}
    for alpha, x, v in rows:
        by_alpha.setdefault(alpha, []).append((x, v))
    alphas, points, vectors = [], [], []
    for alpha in sorted(by_alpha, key=lambda a: (sum(a), a)):
        pts, vecs = _vector_merge_loop(m, ell, by_alpha[alpha])
        alphas += [alpha] * len(pts)
        points.append(pts)
        vectors.append(vecs)
    return np.array(alphas, dtype=int).reshape(-1, m), np.concatenate(points), np.concatenate(vectors)


@pytest.mark.parametrize("seed", range(8))
def test_derivative_rows_merge_like_the_per_alpha_loop(seed):
    """Rows merge on equal (alpha, x) only, -0.0 and 0.0 being one point,
    and are stored sorted by (|alpha|, alpha), each alpha's points in order
    of first occurrence: the atoms one order-0 measure per alpha kept."""
    rng = np.random.default_rng(seed)
    m, q = 1 + seed % 2, 2
    xs = [np.array(x[:m], dtype=float) for x in ([0.0, 1.0], [-0.0, 1.0], [0.5, -0.5], [2.0, 0.0])]
    idxs = multi_indices_up_to(m, q)
    rows = [(idxs[int(rng.integers(len(idxs)))], xs[int(rng.integers(4))], rng.normal(size=2) + 1j * rng.normal(size=2))
            for _ in range(14)]
    rows.append((rows[0][0], rows[0][1], -rows[0][2]))  # cancels the first row, unless its key recurs
    expected = _derivative_merge_loop(m, 2, rows)
    eta = VectorAtomMeasure(m, 2, [(x, v) for _, x, v in rows], alphas=[a for a, _, _ in rows], q=q)
    assert eta.q == q and eta.alphas.dtype == np.int_
    for got, want in zip((eta.alphas, eta.points, eta.vectors), expected):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("alphas, q, error, message", [
    ([(0,), (2,)], 1, UnsupportedJet, "derivative order exceeds cap 1"),
    ([(0,), (2**63,)], 8, UnsupportedJet, "derivative order exceeds cap 8"),
    ([(0,), (2**64,)], 8, UnsupportedJet, "derivative order exceeds cap 8"),
    ([(0,), (-1,)], 1, InvalidParameter, "multi-index (-1,) has a negative component"),
    ([(0,), (0, 0)], 1, InvalidParameter, "multi-index (0, 0) has length 2, expected 1"),
    ([(0,)], 1, InvalidVector, "got 1 multi-indices for 2 points"),
    ([(0,), (0,)], 9, InvalidParameter, "need 0 <= q <= 8"),
    ([(0,), (0,)], -1, InvalidParameter, "need 0 <= q <= 8"),
])
def test_measure_alphas_are_checked_as_python_ints(alphas, q, error, message):
    """Each alpha is checked as Python ints before numpy holds it, which
    would store 2**63 as uint64 and refuse 2**64."""
    atoms = [(np.array([0.0]), np.array([1.0])), (np.array([1.0]), np.array([1.0]))]
    with pytest.raises(error) as info:
        VectorAtomMeasure(1, 1, atoms, alphas=alphas, q=q)
    assert str(info.value) == message


_PLANE_WAVE = plane_wave_kernel(PlaneWaveMeasure(1, 1, [(np.array([0.5]), np.eye(1))]))
_HUGE_G = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.array([[1e300]]))]), 1)


@pytest.mark.parametrize("kernel, size", [
    (SCALAR_GAUSS, 1e200), (SCALAR_GAUSS, 1e155), (_PLANE_WAVE, 1e200), (_PLANE_WAVE, 1e155),
    (_HUGE_G, 1e10),  # the Gram-times-vector product overflows
])
def test_quadratic_form_overflow_is_a_numerical_failure(kernel, size):
    """Two atom vectors of 1e200 once gave value inf, scale inf and route_gap
    nan with no error (the gap check is false for nan), and numpy printed
    "overflow encountered in multiply"."""
    eta = plain_measure(kernel, [(np.array([0.0]), np.array([size])), (np.array([1.0]), np.array([size]))])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalFailure) as info:
            quadratic_form_detail(kernel, [eta])
    assert not caught
    assert str(info.value) == "quadratic form overflows the float range in: gram route, pairing route, scale"


def test_zero_measure_has_zero_form():
    vam = VectorAtomMeasure(
        1, 1, [(np.array([0.5]), np.array([1.0])), (np.array([0.5]), np.array([-1.0]))]
    )
    detail = quadratic_form_detail(SCALAR_GAUSS, [vam])[0]
    assert detail.value == 0.0 and detail.route_gap == 0.0


# ---------------------------------------------------------------- quadratic form


def test_quadratic_form_two_points_at_distance():
    """Two unit atoms far apart: Q -> ||v1||^2 + ||v2||^2 = 2."""
    eta = plain_measure(
        SCALAR_GAUSS,
        [(np.array([0.0]), np.array([1.0])), (np.array([100.0]), np.array([1.0]))],
    )
    assert quadratic_form_detail(SCALAR_GAUSS, [eta])[0].value == pytest.approx(2.0, abs=1e-12)


def test_quadratic_form_first_derivative_component():
    """One plain atom and one d/dx atom at the same point, scalar gaussian:
    Q = K(0,0) + 2 Re<d1 K e, e> + d1 d2 K = 1 + 0 + 2w = 9 for v = 2."""
    eta = VectorAtomMeasure(
        1, 1, [(np.array([0.0]), np.array([2.0])), (np.array([0.0]), np.array([1.0]))], alphas=[(1,), (0,)], q=1
    )
    assert quadratic_form_detail(SCALAR_GAUSS, [eta])[0].value == pytest.approx(9.0, abs=1e-12)


def test_quadratic_form_scales_with_modulus_squared():
    base = plain_measure(SCALAR_GAUSS, [(np.array([0.0]), np.array([1.0]))])
    scaled = plain_measure(SCALAR_GAUSS, [(np.array([0.0]), np.array([3.0j]))])
    q0 = quadratic_form_detail(SCALAR_GAUSS, [base])[0].value
    q1 = quadratic_form_detail(SCALAR_GAUSS, [scaled])[0].value
    assert q1 == pytest.approx(9.0 * q0, rel=1e-13)


def test_quadratic_form_detail_reports_scale():
    eta = plain_measure(SCALAR_GAUSS, [(np.array([0.0]), np.array([1.0]))])
    detail = quadratic_form_detail(SCALAR_GAUSS, [eta])[0]
    assert detail.scale >= 1.0
    assert detail.route_gap <= 1e-12 * detail.scale


def test_quadratic_form_rejects_mismatched_dims():
    eta = plain_measure(SCALAR_GAUSS, [(np.array([0.0]), np.array([1.0]))])
    with pytest.raises(InvalidVector):
        quadratic_form_detail(DIAG_GAUSS, [eta])


@given(st.integers(0, 10_000), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_two_routes_agree_on_random_measures(seed, q):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3))
    ell = int(rng.integers(1, 3))
    atoms = []
    for _ in range(int(rng.integers(1, 3))):
        b = rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell))
        atoms.append((float(rng.uniform(0.2, 2.0)), b.conj().T @ b))
    kernel = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(ell, atoms), m)
    eta = random_deriv_measure(rng, m, ell, q)
    detail = quadratic_form_detail(kernel, [eta])[0]
    assert detail.route_gap <= 1e-12 * detail.scale
    assert detail.value >= -1e-9 * detail.scale


def _gram_route_oracle(kernel, eta):
    """Q(eta) = sum_ij <d^{a_i}_1 d^{a_j}_2 K(x_i, x_j) v_j, v_i>, one
    kernel_deriv_eval call per pair of atoms."""
    atoms = list(zip(map(tuple, eta.alphas.tolist()), eta.points, eta.vectors))
    total = 0.0 + 0.0j
    for ai, xi, vi in atoms:
        for aj, xj, vj in atoms:
            total += np.vdot(vi, kernel_deriv_eval(kernel, ai, aj, xi, xj) @ vj)
    return total.real


@pytest.mark.parametrize("family", ["gaussian", "omega", "plane_wave"])
@pytest.mark.parametrize("q", [1, 2])
def test_two_routes_agree_at_derivative_orders(family, q):
    """Atoms at every order up to q, points shared between multi-indices:
    both routes agree with each other and with the per-pair sum."""
    rng = np.random.default_rng(7 * q + len(family))
    kernel = _kernel(family, rng, 2)
    shared = rng.uniform(-1, 1, size=(3, 2))
    rows = [(alpha, x) for r, alpha in enumerate(multi_indices_up_to(2, q)) for x in shared[: 1 + r % 3]]
    eta = VectorAtomMeasure(
        2, 2, [(x, rng.normal(size=2) + 1j * rng.normal(size=2)) for _, x in rows], alphas=[a for a, _ in rows], q=q
    )
    detail = quadratic_form_detail(kernel, [eta])[0]
    assert detail.route_gap <= 1e-12 * detail.scale
    assert detail.value == pytest.approx(_gram_route_oracle(kernel, eta), abs=1e-12 * detail.scale)
    assert detail.value > 0.0


def _pinned_case(family, q, seed):
    """A kernel and the rows (alpha, x, v) of a derivative measure: a run of
    1-3 atoms per |alpha| <= q over three shared points, one more row at
    the first (alpha, x), which merges with it, all in a shuffled order."""
    rng = np.random.default_rng([seed, q, len(family)])
    m, ell = 1 + seed % 2, 1 + seed // 2 % 2
    kernel = _kernel(family, rng, m, ell)
    shared = rng.uniform(-1, 1, size=(3, m))
    rows = [
        (alpha, shared[i], rng.normal(size=ell) + 1j * rng.normal(size=ell))
        for r, alpha in enumerate(multi_indices_up_to(m, q))
        for i in range(1 + (r + seed) % 3)
    ]
    rows.append((rows[0][0], rows[0][1], rng.normal(size=ell) + 1j * rng.normal(size=ell)))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    return kernel, VectorAtomMeasure(m, ell, [(x, v) for _, x, v in rows], alphas=[a for a, _, _ in rows], q=q)


# (value, scale, route_gap) as float.hex, computed when a derivative measure
# was a family of one order-0 measure per alpha (rows grouped by alpha); the
# route gaps of omega (2, 2) and (2, 3) were re-pinned when each Omega value
# came to depend on its own argument alone, not on the rest of its batch; the
# value and route gap of gaussian (2, 1) moved by one ulp of the value when
# the Gram's lower blocks became the adjoints of its upper ones
_PINNED_FORMS = {
    ('gaussian', 1, 0): ('0x1.0a95728979d92p+3', '0x1.8239b9547307bp+3', '0x0.0p+0'),
    ('gaussian', 1, 1): ('0x1.d274233805262p+5', '0x1.fb6937b7b7eb0p+5', '0x0.0p+0'),
    ('gaussian', 1, 2): ('0x1.0a54a7ec742a9p+8', '0x1.2e1a3ecaeda11p+9', '0x1.0000000000000p-44'),
    ('gaussian', 1, 3): ('0x1.85f8286109684p+8', '0x1.42215862effa6p+9', '0x0.0p+0'),
    ('gaussian', 2, 0): ('0x1.513042d9b154bp+6', '0x1.8f26fbbcb3beep+7', '0x1.0000000000000p-46'),
    ('gaussian', 2, 1): ('0x1.bb49953afcd1ap+9', '0x1.6efcaec81a6fep+10', '0x1.0000000000000p-43'),
    ('gaussian', 2, 2): ('0x1.f07ff1998b2d6p+9', '0x1.d9e2ca8ab632cp+11', '0x1.0000000000000p-42'),
    ('gaussian', 2, 3): ('0x1.0f630dfd87c86p+12', '0x1.1c51ae394dd35p+13', '0x0.0p+0'),
    ('omega', 1, 0): ('0x1.03a645b8468a4p+3', '0x1.53bc3015671b9p+4', '0x0.0p+0'),
    ('omega', 1, 1): ('0x1.cb3edfa5da3bcp+5', '0x1.09b16b21cc070p+6', '0x1.0000000000000p-47'),
    ('omega', 1, 2): ('0x1.6f279c6549f81p+7', '0x1.63666c3a7f410p+8', '0x0.0p+0'),
    ('omega', 1, 3): ('0x1.5070e028359fcp+7', '0x1.0c220017f82a6p+8', '0x0.0p+0'),
    ('omega', 2, 0): ('0x1.e6f6ce32be348p+4', '0x1.3825c9869ad27p+5', '0x0.0p+0'),
    ('omega', 2, 1): ('0x1.fc1652415e2c0p+4', '0x1.a7784f830992ep+5', '0x0.0p+0'),
    ('omega', 2, 2): ('0x1.bfaf6439d58aep+6', '0x1.0f15acaa4e1a3p+8', '0x1.0000000000000p-46'),
    ('omega', 2, 3): ('0x1.c9a198ea339cap+6', '0x1.a4c25fc832183p+8', '0x0.0p+0'),
    ('plane_wave', 1, 0): ('0x1.cdc328862ebf8p+6', '0x1.03db6e30c086bp+8', '0x1.0000000000000p-46'),
    ('plane_wave', 1, 1): ('0x1.44207facce13dp+6', '0x1.40142700a7e35p+6', '0x1.0000000000000p-45'),
    ('plane_wave', 1, 2): ('0x1.61c0c481f2867p+3', '0x1.b5be568ff826fp+4', '0x1.0000000000000p-49'),
    ('plane_wave', 1, 3): ('0x1.837de9573afb3p+8', '0x1.e4723917fafe3p+8', '0x0.0p+0'),
    ('plane_wave', 2, 0): ('0x1.8a7ffefb8cb4fp+6', '0x1.071b4344681bcp+6', '0x1.0000000000000p-46'),
    ('plane_wave', 2, 1): ('0x1.75fa663fd56c9p+6', '0x1.85ac538475e1ep+7', '0x1.0000000000000p-45'),
    ('plane_wave', 2, 2): ('0x1.16ccd23d36c51p+6', '0x1.23eaca5f72ec0p+9', '0x1.0000000000000p-46'),
    ('plane_wave', 2, 3): ('0x1.0262a2b06688ep+10', '0x1.d77438cf95d3ap+12', '0x1.0000000000000p-42'),
}


@pytest.mark.parametrize("case", sorted(_PINNED_FORMS))
def test_derivative_forms_match_the_pinned_bits(case):
    """The flat (alpha, x, v) rows give the forms of the per-alpha layout
    bit for bit, for gaussian, omega and plane-wave kernels at q = 1 and 2."""
    kernel, eta = _pinned_case(*case)
    assert _bits(quadratic_form_detail(kernel, [eta])[0]) == _PINNED_FORMS[case]


def _shared_measures(rng, m, ell, q, count):
    """count measures with the same q, alphas and atom points, and
    independent random atom vectors."""
    comps = [alpha for r, alpha in enumerate(multi_indices_up_to(m, q)) if r == 0 or rng.random() < 0.7]
    alphas = [alpha for alpha in comps for _ in range(int(rng.integers(1, 4)))]
    points = rng.uniform(-1, 1, size=(len(alphas), m))
    return [
        VectorAtomMeasure(
            m, ell, points=points, vectors=rng.normal(size=(len(alphas), ell)) + 1j * rng.normal(size=(len(alphas), ell)),
            alphas=alphas, q=q,
        )
        for _ in range(count)
    ]


def _bits(detail):
    return tuple(float(x).hex() for x in (detail.value, detail.scale, detail.route_gap))


@given(
    st.integers(0, 10_000),
    st.sampled_from(["gaussian", "plane_wave"]),
    st.integers(0, 2),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(2, 3),
)
@example(seed=0, family="plane_wave", q=2, m=2, ell=2, count=3)  # the frequency route
@example(seed=1, family="plane_wave", q=0, m=1, ell=2, count=2)
@settings(max_examples=60, deadline=None)
def test_several_measures_match_one_measure_calls_bit_for_bit(seed, family, q, m, ell, count):
    """One call over measures that share their atom points gives, for each
    measure, the value, scale and route gap of its own one-measure call."""
    rng = np.random.default_rng(seed)
    kernel = _kernel(family, rng, m, ell)
    etas = _shared_measures(rng, m, ell, q, count)
    details = quadratic_form_detail(kernel, etas)
    assert len(details) == count
    for eta, detail in zip(etas, details):
        assert _bits(detail) == _bits(quadratic_form_detail(kernel, [eta])[0])


def _measure_at(points, q=0, alpha=(0,)):
    return VectorAtomMeasure(
        1, 1, points=np.asarray(points, dtype=float)[:, None], vectors=np.ones((len(points), 1)), alphas=[alpha] * len(points), q=q
    )


@pytest.mark.parametrize("other", [
    _measure_at([0.0, 0.5 + 1e-15]),  # different points
    _measure_at([-0.0, 0.5]),  # -0.0 against 0.0
    _measure_at([0.0, 0.5], q=1, alpha=(1,)),  # different alphas
    _measure_at([0.0, 0.5], q=1),  # different q
    _measure_at([0.0]),  # different number of atoms
])
def test_measures_with_different_atoms_are_refused(other):
    base = _measure_at([0.0, 0.5])
    for etas in ([base, other], [other, base]):
        with pytest.raises(InvalidParameter, match="must share q, components and atom points"):
            quadratic_form_detail(SCALAR_GAUSS, etas)


@pytest.mark.parametrize("family", ["gaussian", "plane_wave"])
def test_pairing_route_never_reads_the_gram(monkeypatch, family):
    """Perturb the assembled derivative Gram by 1e-6 * I: the Gram route
    moves and the pairing route does not, so the routes disagree for every
    measure of a shared call. A pairing route fed from the Gram would move
    with it and agree."""
    rng = np.random.default_rng(3)
    kernel = _kernel(family, rng, 2)
    etas = _shared_measures(rng, 2, 2, 1, 2)
    clean = quadratic_form_detail(kernel, etas)
    assert all(d.route_gap <= 1e-12 * d.scale for d in clean)

    real = rkhs_module.deriv_gram

    def perturbed(k, pts, q):
        entries = real(k, pts, q).matrix.entries
        return SimpleNamespace(matrix=SimpleNamespace(entries=entries + 1e-6 * np.eye(entries.shape[0])))

    monkeypatch.setattr(rkhs_module, "deriv_gram", perturbed)
    with pytest.raises(NumericalFailure, match="routes disagree"):
        quadratic_form_detail(kernel, etas)
    # the second measure alone fails too: no measure is checked against a shared route
    with pytest.raises(NumericalFailure, match="routes disagree"):
        quadratic_form_detail(kernel, etas[1:])


# ---------------------------------------------------------------- frequency route


def _frequency_case(m, q, shift=0.0):
    """A three-atom plane-wave kernel with |xi| about 3 sqrt(m), and a measure
    with a component at every |alpha| <= q, whose atoms are shared among
    three points translated by shift."""
    rng = np.random.default_rng(10 * m + q)
    kernel = plane_wave_kernel(PlaneWaveMeasure(2, m, [(3.0 * rng.normal(size=m), _complex_psd(rng, 2)) for _ in range(3)]))
    shared = shift + rng.uniform(-1, 1, size=(3, m))
    rows = [(alpha, x) for r, alpha in enumerate(multi_indices_up_to(m, q)) for x in shared[: 3 - r % 3]]
    vectors = rng.normal(size=(len(rows), 2)) + 1j * rng.normal(size=(len(rows), 2))
    eta = VectorAtomMeasure(m, 2, points=np.array([x for _, x in rows]), vectors=vectors, alphas=[a for a, _ in rows], q=q)
    return kernel, eta


@pytest.mark.parametrize("shift", [0.0, 1e6, 1e9])
@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_frequency_route_agrees_without_kernel_blocks(monkeypatch, m, q, shift):
    """Route 2 of a plane-wave kernel is the frequency-side sum: once the Gram
    is built, every way to a kernel block raises, and the routes still agree
    with each other and with the per-pair sum, also with the atoms far from
    the origin (phases taken at x - x0)."""
    kernel, eta = _frequency_case(m, q, shift)
    expected = _gram_route_oracle(kernel, eta)
    real = rkhs_module.deriv_gram

    def refuse(*args, **kwargs):
        raise AssertionError("route 2 evaluated a kernel block")

    def gram_then_refuse(k, pts, q):
        g = real(k, pts, q)
        for name in ("eval_diffs", "deriv_diffs"):
            monkeypatch.setattr(OperatorKernel, name, refuse)
        monkeypatch.setattr(kernel_module, "_phases", refuse)
        return g

    monkeypatch.setattr(rkhs_module, "deriv_gram", gram_then_refuse)
    detail = quadratic_form_detail(kernel, [eta])[0]
    assert detail.route_gap <= 1e-12 * detail.scale
    assert detail.value == pytest.approx(expected, abs=1e-12 * detail.scale)


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_frequency_route_over_blocks_of_one_frequency(monkeypatch, m, q):
    """Route 2 summed one frequency at a time, derivative atoms included:
    the same agreement as in one block."""
    monkeypatch.setattr(rkhs_module, "_BLOCK_ENTRIES", 1)
    test_frequency_route_agrees_without_kernel_blocks(monkeypatch, m, q, 1e6)


@pytest.mark.parametrize("mutation, q", [("extra phase", 0), ("extra phase", 1), ("blocks x 1.7", 0)])
def test_frequency_route_catches_a_wrong_kernel_value(monkeypatch, mutation, q):
    """A wrong plane-wave kernel value moves the Gram route and not the
    frequency route, so the routes disagree. A pairing route fed by the same
    wrong blocks would agree with it."""
    kernel, eta = _frequency_case(2, q)
    detail = quadratic_form_detail(kernel, [eta])[0]
    assert detail.route_gap <= 1e-12 * detail.scale
    if mutation == "extra phase":
        phases = kernel_module._phases
        monkeypatch.setattr(kernel_module, "_phases", lambda diffs, xis: phases(diffs, xis) * np.exp(-0.5j * diffs[:, :1]))
    else:
        blocks = OperatorKernel.eval_diffs
        monkeypatch.setattr(OperatorKernel, "eval_diffs", lambda self, diffs: 1.7 * blocks(self, diffs))
    with pytest.raises(NumericalFailure, match="routes disagree"):
        quadratic_form_detail(kernel, [eta])


def test_frequency_route_refuses_an_overflowing_phase():
    """Points 1e300 apart at frequency 1e10: the Gram's phases overflow first;
    past the Gram, the frequency route's own phase check raises."""
    kernel = plane_wave_kernel(PlaneWaveMeasure(1, 1, [(np.array([1e10]), np.eye(1))]))
    eta = plain_measure(kernel, [(np.array([-1e300]), np.array([1.0])), (np.array([1e300]), np.array([1.0]))])
    with pytest.raises(NumericalFailure, match="plane-wave phase"):
        quadratic_form_detail(kernel, [eta])
    with pytest.raises(NumericalFailure, match=r"plane-wave phase \(x - x0\) \. xi overflows"):
        rkhs_module._frequency_route(kernel, [eta], np.array([[-1e300], [1e300]]), np.arange(2))


# ---------------------------------------------------------------- interpolation


def test_interpolate_reproduces_targets():
    pts = np.linspace(-1.0, 1.0, 7)[:, None]
    targets = np.sin(2 * pts)  # (7, 1)
    res = interpolate(SCALAR_GAUSS, pts, targets)
    el = res.element
    for x, t in zip(pts, targets):
        val = rkhs_eval(el, x)[0].real
        assert abs(val - t[0]) <= 1e-7
    assert res.residual <= 1e-10


def test_interpolate_default_ridge_positive():
    pts = np.array([[0.0], [1.0]])
    res = interpolate(SCALAR_GAUSS, pts, np.zeros((2, 1)))
    assert res.ridge > 0.0


def test_interpolate_rejects_bad_targets():
    with pytest.raises(InvalidVector):
        interpolate(SCALAR_GAUSS, np.array([[0.0]]), np.zeros((2, 1)))


def test_interpolate_refuses_alphas_that_do_not_match_the_points():
    with pytest.raises(InvalidVector, match="got 1 multi-indices for 2 points"):
        interpolate(SCALAR_GAUSS, np.array([[0.0], [1.0]]), np.zeros((2, 1)), alphas=[(0,)])


def test_hermite_single_point_derivative():
    # match f(0) = 1 and f'(0) = 0 jointly; residual must vanish
    res = hermite_interpolate(
        SCALAR_GAUSS,
        [
            (np.array([0.0]), (0,), np.array([1.0])),
            (np.array([0.0]), (1,), np.array([0.0])),
        ],
        ridge=0.0,
    )
    assert res.residual <= 1e-12
    el = res.element
    assert rkhs_eval(el, np.array([0.0]))[0].real == pytest.approx(1.0, abs=1e-10)
    assert rkhs_deriv_eval(el, (1,), np.array([0.0]))[0].real == pytest.approx(0.0, abs=1e-10)


def test_hermite_rejects_duplicate_requests():
    datum = (np.array([0.0]), (0,), np.array([1.0]))
    with pytest.raises(DuplicatePoints):
        hermite_interpolate(SCALAR_GAUSS, [datum, datum])


def test_hermite_names_first_duplicate_request_like_the_loop():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1.0, 1.0, size=(12, 2))
    alphas = [(0, 0), (1, 0), (0, 1)] * 4
    # (0, 4) repeats a point with another alpha; (1, 7), (2, 5) and (3, 9) repeat both
    xs[4], xs[7], xs[5], xs[9] = xs[0], xs[1], xs[2], xs[3]
    data = [(x, a, np.array([1.0])) for x, a in zip(xs, alphas)]
    expected = None
    for i in range(12):  # the pairwise loop this guard ran before it was vectorized
        for j in range(i + 1, 12):
            if expected is None and alphas[i] == alphas[j] and np.linalg.norm(xs[i] - xs[j]) < 1e-12:
                expected = f"points {i} and {j} coincide to within 1e-12"
    assert expected == "points 1 and 7 coincide to within 1e-12"
    kernel = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.eye(1))]), 2)
    with pytest.raises(DuplicatePoints) as info:
        hermite_interpolate(kernel, data)
    assert str(info.value) == expected


def test_hermite_matches_derivative_data():
    """Fit value+slope at two points; check slope reproduction."""
    data = [
        (np.array([0.0]), (0,), np.array([0.0])),
        (np.array([0.0]), (1,), np.array([1.0])),
        (np.array([1.5]), (0,), np.array([0.5])),
        (np.array([1.5]), (1,), np.array([-0.25])),
    ]
    res = hermite_interpolate(SCALAR_GAUSS, data)
    el = res.element
    for x, alpha, tgt in data:
        got = rkhs_deriv_eval(el, alpha, x)[0].real if alpha != (0,) else rkhs_eval(el, x)[0].real
        assert got == pytest.approx(float(tgt[0].real), abs=1e-6)


# ---------------------------------------------------------------- JSON


def test_vector_measure_json_roundtrip():
    """Atom vectors of a derivative vector measure go through the package's
    one re/im reader and writer and come back bitwise."""
    rng = np.random.default_rng(3)
    eta = random_deriv_measure(rng, 2, 2, 1)
    fh = io.StringIO()
    write_report([complex_to_json(v) for v in eta.vectors], fh)
    back = VectorAtomMeasure(
        2, 2, [(x, complex_from_json(obj, "'v'")) for x, obj in zip(eta.points, json.loads(fh.getvalue()))],
        alphas=eta.alphas, q=eta.q,
    )
    for name in ("alphas", "points", "vectors"):
        assert getattr(back, name).tobytes() == getattr(eta, name).tobytes()


def test_vector_measure_json_rejects_unknown_field():
    with pytest.raises(SchemaError, match="unknown fields"):
        complex_from_json({"re": [1.0], "im": [0.0], "spurious": []}, "'v'")
