"""Radial families, squared-distance jets, and monotonicity checks.

Oracle values for omega_eval were computed independently from the Bessel-J
closed form Gamma(m/2) (2/s)^((m-2)/2) J_((m-2)/2)(s) via scipy.special.jv
and frozen here as literals; the same closed form backs the dimension-walk
recurrence check below.  More oracles live here: the exact-rational
power series of Omega_m and of its termwise squared-distance jets (valid
where the series converges in a few hundred terms, t up to about 30), the
scalar per-point jet evaluator, the symbolic jet engine that applies the
product and chain rules once per coordinate, and the recursive multi-index
enumeration.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gamma as sp_gamma, jv

from opkernel.errors import InvalidGrid, InvalidParameter, NumericalFailure, UnsupportedJet
from opkernel.kernel import PlaneWaveMeasure, kernel_deriv_eval, plane_wave_kernel
from opkernel.profiles import (
    JET_ORDER_CAP,
    MAX_DIFFERENCE_ORDER,
    MAX_OMEGA_M,
    OMEGA_T_MAX,
    RadialJet,
    RadialProfile,
    completely_monotone_check,
    ell_cm_check,
    jet_eval,
    jet_for_multi_index,
    multi_indices_up_to,
    omega_eval,
    omega_values,
    profile_value,
    sjet_derivatives,
    williamson_construct,
    _signed_difference,
    _stencil_values,
)

GRID = np.linspace(0.5, 5.0, 10)


def omega_bessel_oracle(m, s):
    """Independent route to Omega_m via J_((m-2)/2); s may be an array."""
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    nz = s > 0
    nu = (m - 2) / 2.0
    out[nz] = sp_gamma(m / 2.0) * (2.0 / s[nz]) ** nu * jv(nu, s[nz])
    return out


def test_omega_at_the_m_cap_evaluates_every_argument():
    """At m = MAX_OMEGA_M every w * t up to OMEGA_T_MAX evaluates, jets up to
    the order cap included, with no warning and |Omega| <= 1; from m = 300
    the Neumann weights overflow near OMEGA_T_MAX."""
    t = np.concatenate([np.logspace(-3, 4, 120), [OMEGA_T_MAX]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = np.stack([omega_values(MAX_OMEGA_M, np.array([x]), JET_ORDER_CAP)[:, 0] for x in t])
    assert np.all(np.abs(values) <= 1.0)
    recurrence = t > 1.0  # below, the oracle's (2/t)^nu overflows
    assert np.allclose(values[recurrence, 0], omega_bessel_oracle(MAX_OMEGA_M, t[recurrence]), rtol=0, atol=1e-13)
    with pytest.raises(NumericalFailure):
        omega_values(300, np.array([OMEGA_T_MAX]))


def _pochhammer(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def omega_series_oracle(m, t):
    """Omega_m(t) by its even power series in exact rationals, rounded once."""
    x = Fraction(t) * Fraction(t) / 4
    term = total = Fraction(1)
    for k in range(500):
        term *= -x / ((k + 1) * (k + Fraction(m, 2)))
        total += term
        if abs(term) < Fraction(1, 10**17) * max(abs(total), Fraction(1)):
            return float(total)
    raise AssertionError(f"series oracle did not converge at t={t}")


def sjet_series_oracle(m, omega, s, kmax):
    """g^(0..kmax)(s) for g(s) = Omega_m(omega sqrt(s)), differentiating the
    series termwise and summing each derivative exactly."""
    q = Fraction(omega) * Fraction(omega) / 4
    sf = Fraction(s)
    out = []
    for j in range(kmax + 1):
        term = total = (-q) ** j / _pochhammer(Fraction(m, 2), j)
        k = j
        for _ in range(500):
            term *= -q * sf / ((k + Fraction(m, 2)) * (k + 1 - j))
            total += term
            k += 1
            if abs(term) < Fraction(1, 10**17) * max(abs(total), Fraction(1)):
                break
        else:
            raise AssertionError(f"jet oracle did not converge at s={s}")
        out.append(float(total))
    return np.array(out)


def jet_eval_oracle(jet, d, gvals):
    """sum_k poly_k(d) gvals[k] at one displacement, monomial by monomial."""
    total = 0.0
    for k, poly in jet.terms:
        acc = 0.0
        for exps, coeff in poly:
            mono = coeff
            for di, e in zip(d, exps):
                if e:
                    mono *= float(di) ** e
            acc += mono
        total += acc * float(gvals[k])
    return total


def _freeze_jet(m, terms):
    frozen = tuple((k, tuple(sorted(poly.items()))) for k, poly in sorted(terms.items()) if poly)
    return RadialJet(m=m, terms=frozen)


def jet_order_zero(m):
    return _freeze_jet(m, {0: {(0,) * m: 1.0}})


def jet_differentiate(jet, i):
    """Differentiate a jet with respect to coordinate i (1-based) by the
    product rule on each monomial and the chain rule d/dd_i g^(k)(s) =
    2 d_i g^(k+1)(s), in floats, dropping terms that cancel to zero."""
    idx = i - 1
    new = {}

    def add(k, exps, coeff):
        if coeff == 0.0:
            return
        poly = new.setdefault(k, {})
        poly[exps] = poly.get(exps, 0.0) + coeff
        if poly[exps] == 0.0:
            del poly[exps]

    for k, poly in jet.terms:
        for exps, coeff in poly:
            if exps[idx] > 0:
                add(k, exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :], coeff * exps[idx])
            add(k + 1, exps[:idx] + (exps[idx] + 1,) + exps[idx + 1 :], 2.0 * coeff)
    return _freeze_jet(jet.m, new)


def jet_oracle(m, gamma):
    jet = jet_order_zero(m)
    for coord, reps in enumerate(gamma, start=1):
        for _ in range(reps):
            jet = jet_differentiate(jet, coord)
    return jet


def multi_indices_oracle(m, q):
    """Graded-lex multi-indices by recursion over the first component."""

    def gen(length, total):
        if length == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in gen(length - 1, total - head):
                yield (head,) + rest

    return tuple(alpha for total in range(q + 1) for alpha in sorted(gen(m, total)))


# ---------------------------------------------------------------- profile_value


def test_gaussian_at_zero():
    assert profile_value(RadialProfile.gaussian(), 1.0, 0.0) == 1.0


def test_gaussian_squared_distance_convention():
    # scales the SQUARED distance: p_w(t) = exp(-w t^2)
    assert profile_value(RadialProfile.gaussian(), 2.0, 1.5) == pytest.approx(
        math.exp(-2.0 * 2.25), rel=1e-15
    )


def test_askey_support_edge():
    assert profile_value(RadialProfile.askey(3), 1.0, 2.0) == 0.0


def test_askey_inside_support():
    assert profile_value(RadialProfile.askey(3), 1.0, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_profile_rejects_negative_distance():
    with pytest.raises(InvalidParameter):
        profile_value(RadialProfile.gaussian(), 1.0, -0.1)


def test_profile_rejects_negative_scale():
    with pytest.raises(InvalidParameter):
        profile_value(RadialProfile.gaussian(), -1.0, 0.5)


FAMILIES = (RadialProfile.gaussian(), RadialProfile.askey(3), RadialProfile.omega(3))


@pytest.mark.parametrize("prof", FAMILIES, ids=lambda p: p.kind)
def test_profile_value_shapes(prof):
    """Distances (n,) against scales (A,) give (n, A); scalars give 0-d, and
    each entry is the scalar value at its own (scale, distance)."""
    omegas, ts = np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.25, 0.4, 3.0])
    batch = profile_value(prof, omegas, ts)
    assert batch.shape == (4, 3)
    one = profile_value(prof, 0.5, 0.4)
    assert np.shape(one) == ()
    assert one == batch[2, 1]
    assert all(profile_value(prof, w, t) == batch[i, j] for i, t in enumerate(ts) for j, w in enumerate(omegas))


@pytest.mark.parametrize("prof", FAMILIES, ids=lambda p: p.kind)
def test_profile_value_scale_zero_is_constant_at_infinity(prof):
    """A distance that overflowed to inf counts as far, but a scale-0 atom
    keeps its t = 0 value there (inf * 0 would be nan)."""
    assert np.array_equal(profile_value(prof, [0.0], [math.inf, 0.0, 1e200]), np.ones((3, 1)))
    if prof.kind != "omega":  # Omega is evaluated only up to OMEGA_T_MAX
        assert np.array_equal(profile_value(prof, [0.0, 1.0], [math.inf]), [[1.0, 0.0]])


@pytest.mark.parametrize(
    "omegas, t",
    [([1.0], [math.nan]), ([1.0], [0.5, -0.1]), ([1.0, -1.0], [0.5]), ([math.inf], [0.5]), ([math.nan], [0.5])],
)
def test_profile_value_refuses_bad_input(omegas, t):
    for prof in FAMILIES:
        with pytest.raises(InvalidParameter):
            profile_value(prof, omegas, t)


def test_askey_parameter_validation():
    with pytest.raises(InvalidParameter):
        RadialProfile.askey(1)
    with pytest.raises(InvalidParameter):
        RadialProfile("gaussian", ell_smoothness=3)


# ---------------------------------------------------------------- omega_eval


def test_omega_1_is_cosine_at_pi():
    assert omega_eval(1, math.pi) == pytest.approx(-1.0, abs=1e-14)


def test_omega_3_is_sinc_at_pi():
    assert abs(omega_eval(3, math.pi)) <= 1e-14


def test_omega_at_zero():
    for m in range(1, 7):
        assert omega_eval(m, 0.0) == 1.0


# frozen from the Bessel oracle above (scipy 1.x, float64)
OMEGA_ORACLE_VALUES = [
    (2, 0.5, 0.938469807240813),
    (2, 2.0, 0.22389077914123562),
    (2, 11.0, -0.17119030040719616),
    (4, 2.3, 0.4694543761776641),
    (5, 7.7, -0.0012670092007448766),
    (6, 13.0, -0.010307420792518665),
]


@pytest.mark.parametrize("m,t,expected", OMEGA_ORACLE_VALUES)
def test_omega_against_bessel_literals(m, t, expected):
    assert omega_eval(m, t) == pytest.approx(expected, abs=5e-15)


def test_omega_series_matches_bessel_on_grid():
    ts = np.linspace(0.1, 30.0, 97)
    for m in (2, 3, 4, 5):
        ours = np.array([omega_eval(m, t) for t in ts])
        assert np.max(np.abs(ours - omega_bessel_oracle(m, ts))) <= 1e-11


def test_omega_1_matches_cos_on_interval():
    ts = np.linspace(0.0, 30.0, 301)
    ours = np.array([omega_eval(1, t) for t in ts])
    assert np.max(np.abs(ours - np.cos(ts))) <= 1e-10


def test_omega_3_matches_sinc_on_interval():
    ts = np.linspace(0.0, 30.0, 301)
    ours = np.array([omega_eval(3, t) for t in ts])
    sinc = np.where(ts > 0, np.sin(np.where(ts > 0, ts, 1.0)) / np.where(ts > 0, ts, 1.0), 1.0)
    assert np.max(np.abs(ours - sinc)) <= 1e-10


def test_omega_bounded_by_one():
    ts = np.linspace(0.0, 40.0, 400)
    for m in range(1, 7):
        vals = np.array([omega_eval(m, t) for t in ts])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def _sinc(t):
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0, t, 1.0)
    return np.where(t > 0, np.sin(safe) / safe, 1.0)


def test_omega_values_match_cos_and_sinc_up_to_range_cap():
    rng = np.random.default_rng(3)
    ts = np.concatenate([np.linspace(0.0, OMEGA_T_MAX, 2001), rng.uniform(0.0, OMEGA_T_MAX, 500)])
    # Omega_3 = Omega_{1+2}: the jet orders come out of the same recurrence
    cos_vals, sinc_from_1 = omega_values(1, ts, 1)
    assert np.max(np.abs(cos_vals - np.cos(ts))) <= 1e-13
    assert np.max(np.abs(sinc_from_1 - _sinc(ts))) <= 1e-13
    assert np.max(np.abs(omega_values(3, ts)[0] - _sinc(ts))) <= 1e-13


@pytest.mark.parametrize("wt", [380.0, 412.0, 700.0, 1000.0])
def test_omega_regressions_past_old_series_cap(wt):
    # the exact-rational series stopped at 500 terms and returned 1.9e8 at
    # 380 and 9.4e40 at 412; from about 700 its float() overflowed
    for t in (wt, wt + 0.123456789):
        assert abs(omega_eval(1, t) - math.cos(t)) <= 1e-13
        assert abs(omega_eval(3, t) - math.sin(t) / t) <= 1e-13


def test_omega_values_match_series_oracle():
    ts = [0.0, 1e-300, 0.3, 0.999, 1.0, 1.001, 2.5, 7.0, 13.3, 21.0]
    for m in range(1, 8):
        ours = omega_values(m, np.array(ts))[0]
        exact = np.array([omega_series_oracle(m, t) for t in ts])
        assert np.max(np.abs(ours - exact)) <= 5e-15


def test_omega_jet_orders_match_bessel():
    ts = np.linspace(0.1, 30.0, 97)
    for m in range(1, 8):
        vals = omega_values(m, ts, 8)
        for j in range(9):
            assert np.max(np.abs(vals[j] - omega_bessel_oracle(m + 2 * j, ts))) <= 1e-11


@given(
    m=st.integers(1, 7),
    t=st.lists(st.floats(0.0, OMEGA_T_MAX), min_size=1, max_size=12),
    kmax=st.integers(0, 3),
)
@example(m=3, t=[0.0, 3.0, 300.0], kmax=0)
@example(m=5, t=[1.0, 1.5, OMEGA_T_MAX, 2.0], kmax=3)
@settings(max_examples=30, deadline=None)
def test_omega_values_of_a_batch_are_each_elements_own(m, t, kmax):
    """Each value of a batch is the one its argument gives alone, bit for
    bit: the recurrence starts every element at its own index."""
    t = np.array(t)
    batch = omega_values(m, t, kmax)
    for i in range(t.size):
        assert batch[:, i].tobytes() == omega_values(m, t[i : i + 1], kmax)[:, 0].tobytes()


def test_omega_values_shape_and_symmetry():
    t = np.array([[0.5, 3.0], [40.0, 900.0]])
    vals = omega_values(5, t, 2)
    assert vals.shape == (3, 2, 2)
    assert np.array_equal(omega_values(5, -t, 2), vals)


def test_omega_refuses_above_range_cap():
    with pytest.raises(NumericalFailure, match="w\\*t <= 10000"):
        omega_eval(3, 1e6)
    with pytest.raises(NumericalFailure):
        omega_values(1, np.array([1.0, OMEGA_T_MAX * 1.001]))
    with pytest.raises(NumericalFailure):
        omega_eval(1, math.inf)
    with pytest.raises(InvalidParameter):
        omega_eval(1, math.nan)
    assert abs(omega_eval(1, OMEGA_T_MAX) - math.cos(OMEGA_T_MAX)) <= 1e-13


def test_omega_dimension_walk_recurrence():
    """Omega_m(t) = c_m * int_0^1 Omega_{m-1}(rt) (1-r^2)^(-1/2) r^(m-2) dr.

    Chebyshev-Gauss nodes on the even extension absorb the endpoint
    singularity; the |r|^(m-2) corner at 0 (odd m) needs many nodes for 1e-8.
    """
    n = 16384
    i = np.arange(1, n + 1)
    r = np.cos((2 * i - 1) * np.pi / (2 * n))
    for m in (2, 3, 4):
        c = 2 * sp_gamma(m / 2.0) / (sp_gamma(0.5) * sp_gamma((m - 1) / 2.0))
        for t in np.linspace(0.5, 10.0, 6):
            inner = omega_bessel_oracle(m - 1, np.abs(r) * t) * np.abs(r) ** (m - 2)
            rhs = c * (np.pi / n) * np.sum(inner) / 2.0
            assert abs(omega_eval(m, t) - rhs) <= 1e-8


# ---------------------------------------------------------------- sjet


def test_sjet_gaussian():
    g = sjet_derivatives(RadialProfile.gaussian(), 2.0, 0.0, 2)
    assert np.allclose(g, [1.0, -2.0, 4.0], atol=1e-15)


def test_sjet_gaussian_zero_scale():
    g = sjet_derivatives(RadialProfile.gaussian(), 0.0, 5.0, 3)
    assert np.allclose(g, [1.0, 0.0, 0.0, 0.0])


def test_sjet_omega3_first_derivative_at_zero():
    # Omega_3(w sqrt(s)) = 1 - w^2 s/6 + ... so g'(0) = -1/6 at w=1
    g = sjet_derivatives(RadialProfile.omega(3), 1.0, 0.0, 1)
    assert g[0] == pytest.approx(1.0, abs=1e-15)
    assert g[1] == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_sjet_omega_matches_termwise_series_oracle():
    for m in range(1, 8):
        for omega in (0.4, 1.3):
            for s in (0.0, 0.5, 2.0, 9.0, 30.0):
                ours = sjet_derivatives(RadialProfile.omega(m), omega, s, 8)
                exact = sjet_series_oracle(m, omega, s, 8)
                scale = max(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(ours - exact)) <= 1e-13 * scale


def test_sjet_broadcasts_over_scales_and_distances():
    omegas = np.array([0.5, 2.0])
    s = np.array([[0.0], [1.5], [4.0]])
    batch = sjet_derivatives(RadialProfile.omega(5), omegas, s, 3)
    assert batch.shape == (4, 3, 2)
    for p in range(3):
        for a in range(2):
            one = sjet_derivatives(RadialProfile.omega(5), omegas[a], s[p, 0], 3)
            assert np.allclose(batch[:, p, a], one, rtol=0.0, atol=1e-16)


def test_sjet_refuses_overflowing_scales():
    with pytest.raises(NumericalFailure):
        sjet_derivatives(RadialProfile.omega(3), 1e300, 0.0, 2)
    with pytest.raises(NumericalFailure):
        sjet_derivatives(RadialProfile.gaussian(), 1e300, 0.0, 2)
    with pytest.raises(NumericalFailure):
        sjet_derivatives(RadialProfile.omega(3), 1e3, 1e3, 1)


def test_sjet_infinite_distance_is_far():
    """A squared distance that overflowed is far; a scale-0 atom keeps its
    s = 0 jet there."""
    gauss = RadialProfile.gaussian()
    assert sjet_derivatives(gauss, 1.0, np.inf, 3).tolist() == [0.0, 0.0, 0.0, 0.0]
    assert sjet_derivatives(gauss, 0.0, np.inf, 2).tolist() == [1.0, 0.0, 0.0]
    assert sjet_derivatives(RadialProfile.omega(3), 0.0, np.inf, 2).tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(NumericalFailure):
        sjet_derivatives(RadialProfile.omega(3), 1.0, np.inf, 1)


@pytest.mark.parametrize("omega, s", [(1.0, np.nan), (1.0, -1.0), (np.nan, 1.0), (np.inf, 1.0), (-1.0, 1.0)])
def test_sjet_refuses_nan_and_negative_arguments(omega, s):
    for profile in (RadialProfile.gaussian(), RadialProfile.omega(3)):
        with pytest.raises(InvalidParameter):
            sjet_derivatives(profile, omega, s, 2)


def test_sjet_askey_unsupported():
    with pytest.raises(UnsupportedJet):
        sjet_derivatives(RadialProfile.askey(4), 1.0, 0.5, 1)


def test_sjet_order_cap():
    with pytest.raises(InvalidParameter):
        sjet_derivatives(RadialProfile.gaussian(), 1.0, 0.0, 9)


@given(st.floats(0.1, 4.0), st.floats(0.0, 9.0))
@settings(max_examples=50, deadline=None)
def test_sjet_gaussian_closed_form(omega, s):
    g = sjet_derivatives(RadialProfile.gaussian(), omega, s, 4)
    e = math.exp(-omega * s)
    for k in range(5):
        assert g[k] == pytest.approx((-omega) ** k * e, rel=1e-13, abs=1e-300)


# ---------------------------------------------------------------- jets


def test_jet_single_derivative():
    jet = jet_for_multi_index(2, (1, 0))
    assert jet.terms == ((1, (((1, 0), 2.0),)),)


def test_jet_second_derivative():
    jet = jet_for_multi_index(2, (2, 0))
    assert jet.terms == ((1, (((0, 0), 2.0),)), (2, (((2, 0), 4.0),)))


def test_jet_closed_form_matches_symbolic_engine():
    """Term for term, as floats, for every m <= 4 and |gamma| <= 8."""
    checked = 0
    for m in range(1, 5):
        for gamma in multi_indices_oracle(m, 8):
            jet = jet_for_multi_index(m, gamma)
            oracle = jet_oracle(m, gamma)
            assert jet.m == m
            assert jet.terms == oracle.terms, gamma
            checked += 1
    assert checked == 714


def test_multi_indices_match_recursive_enumeration():
    for m in range(1, 6):
        for q in range(9):
            assert multi_indices_up_to(m, q) == multi_indices_oracle(m, q)


def test_multi_indices_cost_what_they_return():
    """A wide ambient dimension lists C(m+q, q) indices without visiting
    the (q+1)^m candidates of a cube."""
    idxs = multi_indices_up_to(60, 2)
    assert len(idxs) == math.comb(62, 2)
    assert idxs[:3] == ((0,) * 60, (0,) * 59 + (1,), (0,) * 58 + (1, 0))


def test_jet_for_multi_index_cached_equal():
    a = jet_for_multi_index(3, (1, 0, 2))
    b = jet_for_multi_index(3, (1, 0, 2))
    assert a is b


def test_jet_order_cap_enforced():
    with pytest.raises(UnsupportedJet):
        jet_for_multi_index(2, (5, 4))


def test_jet_eval_matches_richardson():
    """d^2/dx1^2 of exp(-||d||^2) in m=2 against central differences."""
    prof = RadialProfile.gaussian()
    jet = jet_for_multi_index(2, (2, 0))
    d = np.array([0.3, -0.7])

    def f(d1):
        return math.exp(-1.0 * (d1 * d1 + d[1] * d[1]))

    gvals = sjet_derivatives(prof, 1.0, np.array([d @ d]), jet.max_k)
    ours = float(jet_eval(jet, d[None, :], gvals)[0])
    h = 1e-4
    fine = (f(d[0] + h) - 2 * f(d[0]) + f(d[0] - h)) / h**2
    coarse = (f(d[0] + 2 * h) - 2 * f(d[0]) + f(d[0] - 2 * h)) / (2 * h) ** 2
    richardson = (4 * fine - coarse) / 3
    assert ours == pytest.approx(richardson, rel=1e-6)


def test_batched_jet_eval_matches_pointwise_oracle():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3):
        d = rng.uniform(-2.0, 2.0, size=(25, m))
        for gamma in multi_indices_up_to(m, 4):
            jet = jet_for_multi_index(m, gamma)
            gvals = rng.normal(size=(jet.max_k + 1, 25, 2))
            ours = jet_eval(jet, d, gvals)
            for p in range(25):
                for a in range(2):
                    exact = jet_eval_oracle(jet, d[p], gvals[:, p, a])
                    assert ours[p, a] == pytest.approx(exact, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- plane waves
# d^alpha_x d^beta_y exp(-i (x-y).xi) = (-i)^|alpha| i^|beta| xi^(alpha+beta) exp(-i (x-y).xi)


def _plane_wave_closed_form(xi, alpha, beta, x, y):
    gamma = np.array(alpha) + np.array(beta)
    coeff = (-1j) ** sum(alpha) * (1j) ** sum(beta) * np.prod(xi**gamma)
    return coeff * np.exp(-1j * float((x - y) @ xi))


def _unit_plane_wave(xi):
    return plane_wave_kernel(PlaneWaveMeasure(1, xi.size, [(xi, np.array([[1.0]]))]))


def test_plane_wave_no_derivatives():
    xi = np.array([2.0, -1.0])
    x = np.array([0.5, 0.25])
    y = np.array([0.0, 1.0])
    val = kernel_deriv_eval(_unit_plane_wave(xi), (0, 0), (0, 0), x, y)[0, 0]
    assert val == pytest.approx(np.exp(-1j * float((x - y) @ xi)), abs=1e-15)


def test_plane_wave_first_derivative():
    xi = np.array([3.0])
    z = np.array([0.7])
    val = kernel_deriv_eval(_unit_plane_wave(xi), (1,), (0,), z, z)[0, 0]
    assert val == pytest.approx(-3.0j, abs=1e-15)


def test_plane_wave_mixed_derivative():
    xi = np.array([3.0])
    z = np.array([0.7])
    val = kernel_deriv_eval(_unit_plane_wave(xi), (1,), (1,), z, z)[0, 0]
    assert val == pytest.approx(9.0, abs=1e-14)


def test_plane_wave_batched_derivatives_match_closed_form():
    rng = np.random.default_rng(11)
    xi = np.array([1.5, -0.5])
    kernel = _unit_plane_wave(xi)
    x = rng.uniform(-1, 1, size=(6, 2))
    y = rng.uniform(-1, 1, size=(6, 2))
    idxs = multi_indices_up_to(2, 2)
    gammas = [tuple(a + b for a, b in zip(alpha, beta)) for alpha in idxs for beta in idxs]
    batch = kernel.deriv_diffs(gammas, x - y)
    for g, (alpha, beta) in enumerate((a, b) for a in idxs for b in idxs):
        sign = (-1.0) ** sum(beta)
        for p in range(6):
            expected = _plane_wave_closed_form(xi, alpha, beta, x[p], y[p])
            assert sign * batch[g, p, 0, 0] == pytest.approx(expected, abs=1e-13)


# ---------------------------------------------------------------- CM checks


class _TableBuilt(Exception):
    pass


def _no_table(*args, **kwargs):
    raise _TableBuilt


@pytest.mark.parametrize("check", [
    lambda order: completely_monotone_check(lambda t: math.exp(-t), GRID, nmax=order, h=1e-12),
    lambda order: ell_cm_check(lambda t: math.exp(-t), order, GRID),
])
def test_difference_order_cap(monkeypatch, check):
    """Order MAX_DIFFERENCE_ORDER reaches the value table; one more is
    refused before it is allocated."""
    monkeypatch.setattr(np, "empty", _no_table)
    with pytest.raises(_TableBuilt):
        check(MAX_DIFFERENCE_ORDER)
    for order in (MAX_DIFFERENCE_ORDER + 1, 10**9):
        with pytest.raises(InvalidParameter, match=f"must be an integer in \\[.*, {MAX_DIFFERENCE_ORDER}\\]"):
            check(order)


def test_cm_exp_neg_passes():
    res = completely_monotone_check(lambda t: math.exp(-t), GRID, nmax=6)
    assert res.ok and res.violation is None


def test_cm_inverse_passes():
    res = completely_monotone_check(lambda t: 1.0 / (1.0 + t), GRID, nmax=6)
    assert res.ok


def test_cm_two_plus_sin_fails_with_witness():
    res = completely_monotone_check(lambda t: 2.0 + math.sin(t), GRID, nmax=6)
    assert not res.ok
    assert res.violation == (1, 0.5)


def test_cm_rejects_bad_grid():
    with pytest.raises(InvalidGrid):
        completely_monotone_check(math.exp, np.array([0.01, 0.02]), nmax=6)


def test_stencil_past_the_float_range_refused_before_evaluating():
    def never(t):
        raise AssertionError("f evaluated")

    with pytest.raises(InvalidGrid, match="stencil"):
        completely_monotone_check(never, np.array([1e308, 1.7e308]), nmax=6, h=1e307)
    with pytest.raises(InvalidGrid, match="stencil"):
        ell_cm_check(never, 3, GRID, h=1e308)
    # a stencil that ends just below the float maximum is evaluated
    assert completely_monotone_check(lambda t: math.exp(-t), np.array([1e308, 1.5e308]), nmax=2, h=1e307).ok


# ---------------------------------------------------------------- williamson


def test_williamson_single_atom():
    f = williamson_construct(((1.0, 1.0),), 2)
    assert f(0.5) == pytest.approx(0.5, abs=1e-15)
    assert f(2.0) == 0.0


def test_williamson_empty():
    f = williamson_construct((), 3)
    assert f(0.7) == 0.0


def test_williamson_two_atoms():
    f = williamson_construct(((1.0, 1.0), (2.0, 1.0)), 3)
    assert f(0.25) == pytest.approx(0.8125, abs=1e-15)


def test_williamson_outputs_are_ell_monotone():
    for ell in (2, 3, 4):
        f = williamson_construct(((1.0, 1.0), (0.5, 2.0)), ell)
        res = ell_cm_check(f, ell, GRID)
        assert res.ok, res.failed_checks


# ---------------------------------------------------------------- ell-CM


def test_ell_cm_exp_passes_all_orders():
    for ell in (2, 4, 6):
        res = ell_cm_check(lambda t: math.exp(-t), ell, GRID)
        assert res.ok


def test_ell_cm_negative_fails_nonnegativity():
    res = ell_cm_check(lambda t: -1.0, 3, GRID)
    assert not res.ok
    assert "nonnegativity" in res.failed_checks


def test_ell_cm_growing_exp_fails():
    res = ell_cm_check(math.exp, 3, GRID)
    assert not res.ok
    assert set(res.failed_checks) == {"tail-boundedness", "convexity"}


def test_ell_cm_notes_mention_heuristic():
    res = ell_cm_check(lambda t: math.exp(-t), 2, GRID)
    assert isinstance(res.notes, str) and "heuristic" in res.notes.lower()


# ---------------------------------------------------------------- askey kink


def test_askey_continuous_at_support_edge():
    for ell in (3, 4, 5):
        prof = RadialProfile.askey(ell)
        for omega in (0.5, 1.0, 2.0):
            edge = 1.0 / omega
            lo = profile_value(prof, omega, edge - 1e-12)
            hi = profile_value(prof, omega, edge + 1e-12)
            assert abs(lo - hi) <= 1e-9


@given(st.integers(2, 8), st.floats(0.1, 3.0), st.floats(0.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_askey_in_unit_interval(ell, omega, t):
    v = profile_value(RadialProfile.askey(ell), omega, t)
    assert 0.0 <= v <= 1.0


@pytest.mark.parametrize("seed", range(6))
def test_stencil_values_match_the_numpy_scalar_loop(seed):
    """The value table is evaluated at Python floats, so a Williamson mixture
    overflows without a warning; its bits are those of the loop over numpy
    scalars that it replaced."""
    rng = np.random.default_rng(seed)
    atoms = [(float(r), float(lam)) for r, lam in zip(rng.uniform(0.0, 0.5, 3), rng.uniform(0.0, 2.0, 3))]
    grid = np.sort(rng.uniform(0.1, 4.0, 12))
    h = float(rng.uniform(1e-3, 0.1))
    for f in (williamson_construct(atoms, 2 + seed % 4), lambda t: np.exp(-t), lambda t: 2.0 + np.sin(t)):
        old = np.array([[float(f(ti + j * h)) for j in range(7)] for ti in grid])
        assert _stencil_values(f, grid, 6, h).tobytes() == old.tobytes()


def test_ell_cm_second_difference_overflow_is_a_numerical_failure():
    """D = f(t) - f(t + h) stays finite at every point, but its second
    difference 0 - 2 * 1.7e308 - 1.7e308 does not."""
    def spike(t):
        return 1.7e308 if t == 2.0 else 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="^second difference of D overflows the float range$"):
            ell_cm_check(spike, 3, np.array([1.0, 2.0, 3.0, 4.0]), h=1.0)


def _old_signed_difference(vals, n, offset):
    """The binomial weights and forward difference that the cm and ell-cm
    checks each built before they shared _signed_difference."""
    coeffs = np.array([(-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)], dtype=float)
    fd = vals[:, offset : n + 1 + offset] @ coeffs
    assert np.all(np.isfinite(fd))
    return (-1.0) ** n * fd


@pytest.mark.parametrize("seed", range(3))
def test_signed_difference_matches_the_weights_it_replaced(seed):
    """(-1)^n Delta_h^n bit for bit as the two checks formed it, for every
    order up to the cap and the three offsets of ell-cm's D."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.5, 3.0, 9)[:, None] + 0.01 * np.arange(MAX_DIFFERENCE_ORDER + 3)
    tables = (rng.normal(size=t.shape), np.exp(-t), 2.0 + np.sin(t), 1e300 * rng.uniform(size=t.shape))
    for vals in tables:
        for n in range(MAX_DIFFERENCE_ORDER + 1):
            for offset in range(3):
                got = _signed_difference(vals, n, offset)
                assert got.tobytes() == _old_signed_difference(vals, n, offset).tobytes()


def test_signed_difference_overflow_names_its_order():
    vals = np.array([[1.7e308, -1.7e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _signed_difference(vals, 0, 2).tolist() == [0.0]
        with pytest.raises(NumericalFailure, match="^forward difference of order 1 overflows the float range$"):
            _signed_difference(vals, 1)
