"""Operator measures: projections, trace decomposition, exact classification."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkernel.errors import InvalidMeasure, InvalidVector, SchemaError
from opkernel.hermitian import HermitianMatrix, is_psd, min_eigenvalue, trace
from opkernel.kernel import PlaneWaveMeasure
from opkernel.measures import (
    VERDICT_NOT_STRICT,
    VERDICT_STRICT,
    OperatorMeasure,
    ScalarMeasure,
    c0_membership,
    classify_radial,
    measure_from_json,
    radon_nikodym,
    scalar_projection_measure,
    total_operator,
)
from opkernel.profiles import RadialProfile
from opkernel.schema import complex_to_json

I2 = np.eye(2)
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_psd(rng, dim):
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return b.conj().T @ b


# ---------------------------------------------------------------- construction


def test_atoms_sorted_and_merged():
    mu = OperatorMeasure(2, [(2.0, I2), (1.0, I2), (2.0, I2)])
    assert [omega for omega, _ in mu.atoms] == [1.0, 2.0]
    assert np.allclose(mu.atoms[1][1].entries, 2 * I2)


def test_zero_atom_pruned_but_remembered():
    mu = OperatorMeasure(2, [(0.5, np.zeros((2, 2))), (1.0, I2)])
    assert len(mu) == 1
    assert mu.null_supports == (0.5,)


def test_rejects_negative_support():
    with pytest.raises(InvalidMeasure):
        OperatorMeasure(2, [(-1.0, I2)])


def test_rejects_indefinite_atom():
    with pytest.raises(InvalidMeasure):
        OperatorMeasure(2, [(1.0, np.diag([1.0, -1.0]))])


def _merge_loop(atoms, describe):
    """The per-atom validate-merge-prune loop both measure classes ran before
    their atoms were checked as one stack: (kept, null keys)."""
    merged = {}
    for key, g in atoms:
        gh = HermitianMatrix(g)
        check = is_psd(gh)
        if not check.ok:
            raise InvalidMeasure(
                f"atom at {describe(key)} is not PSD (min eigenvalue {check.min_eigenvalue:.3e})"
            )
        merged[key] = merged[key] + gh.entries if key in merged else gh.entries
    atoms = [(key, HermitianMatrix(merged[key])) for key in sorted(merged)]
    return [a for a in atoms if trace(a[1]) > 0.0], [key for key, g in atoms if trace(g) <= 0.0]


def _fifty_atoms(rng, dim=3):
    """50 PSD atoms on 13 keys (so supports repeat), a fifth of them zero."""
    atoms = []
    for i in range(49):
        b = rng.normal(size=(dim, 1)) + 1j * rng.normal(size=(dim, 1))
        g = np.zeros((dim, dim)) if i % 5 == 2 else b @ b.conj().T + 0.1 * random_psd(rng, dim)
        atoms.append((float(rng.integers(0, 12)) / 4.0, g))
    atoms.append((11.0, np.zeros((dim, dim))))  # a support that only a zero atom has
    return atoms


def test_measures_merge_and_prune_like_the_loop():
    atoms = _fifty_atoms(np.random.default_rng(21))
    kept, nulls = _merge_loop(atoms, str)
    mu = OperatorMeasure(3, atoms)
    assert [w for w, _ in mu.atoms] == [w for w, _ in kept]
    assert all(np.array_equal(a.entries, b.entries) for (_, a), (_, b) in zip(mu.atoms, kept))
    assert mu.null_supports == tuple(nulls) and 11.0 in nulls
    xi_atoms = [((w, -w), g) for w, g in atoms]
    pw = PlaneWaveMeasure(3, 2, [(np.array(xi), g) for xi, g in xi_atoms])
    kept, _ = _merge_loop(xi_atoms, str)
    assert [tuple(xi) for xi, _ in pw.atoms] == [xi for xi, _ in kept]
    assert all(np.array_equal(a.entries, b.entries) for (_, a), (_, b) in zip(pw.atoms, kept))


def test_measures_name_the_first_indefinite_atom():
    atoms = _fifty_atoms(np.random.default_rng(22))
    atoms[37] = (7.5, np.diag([1.0, 2.0, -0.5]))
    atoms[44] = (2.0, np.diag([-1.0, 2.0, 1.0]))
    with pytest.raises(InvalidMeasure) as expected:
        _merge_loop(atoms, lambda w: f"omega={w}")
    assert "omega=7.5 " in str(expected.value)
    with pytest.raises(InvalidMeasure) as info:
        OperatorMeasure(3, atoms)
    assert str(info.value) == str(expected.value)
    xi_atoms = [(np.array([w, 1.0]), g) for w, g in atoms]
    with pytest.raises(InvalidMeasure) as expected:
        _merge_loop([(tuple(xi.tolist()), g) for xi, g in xi_atoms], lambda xi: f"xi={list(xi)}")
    assert "xi=[7.5, 1.0] " in str(expected.value)
    with pytest.raises(InvalidMeasure) as info:
        PlaneWaveMeasure(3, 2, xi_atoms)
    assert str(info.value) == str(expected.value)


def test_scalar_measure_clamps_roundoff():
    sm = ScalarMeasure([(1.0, -1e-13)])
    assert sm.atoms == ((1.0, 0.0),)
    with pytest.raises(InvalidMeasure):
        ScalarMeasure([(1.0, -1e-6)])


# ---------------------------------------------------------------- projection


def test_projection_identity_direction():
    mu = OperatorMeasure(2, [(1.0, I2)])
    sm = scalar_projection_measure(mu, E1)
    assert sm.atoms == ((1.0, 1.0),)


def test_projection_scales_quadratically():
    mu = OperatorMeasure(2, [(1.0, I2)])
    sm = scalar_projection_measure(mu, 2.0 * E1)
    assert sm.atoms == ((1.0, 4.0),)


def test_projection_can_kill_an_atom():
    mu = OperatorMeasure(2, [(0.0, np.diag([1.0, 0.0])), (2.0, np.diag([0.0, 1.0]))])
    sm = scalar_projection_measure(mu, E2)
    # the killed atom is kept with weight zero
    assert sm.atoms == ((0.0, 0.0), (2.0, 1.0))


def test_projection_rejects_zero_vector():
    mu = OperatorMeasure(2, [(1.0, I2)])
    with pytest.raises(InvalidVector):
        scalar_projection_measure(mu, np.zeros(2))


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_projection_weights_nonnegative(seed):
    rng = np.random.default_rng(seed)
    mu = OperatorMeasure(3, [(float(k), random_psd(rng, 3)) for k in range(3)])
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    sm = scalar_projection_measure(mu, v)
    assert all(w >= 0.0 for _, w in sm.atoms)


# ---------------------------------------------------------------- radon-nikodym


def test_rn_rank_one():
    mu = OperatorMeasure(2, [(1.0, np.diag([4.0, 0.0]))])
    dec = radon_nikodym(mu)
    assert dec.trace_measure.atoms == ((1.0, 4.0),)
    assert np.allclose(dec.densities[0].entries, np.diag([1.0, 0.0]))


def test_rn_identity():
    mu = OperatorMeasure(2, [(1.0, I2)])
    dec = radon_nikodym(mu)
    assert dec.trace_measure.atoms == ((1.0, 2.0),)
    assert np.allclose(dec.densities[0].entries, I2 / 2)


def test_rn_null_atom_recorded():
    mu = OperatorMeasure(2, [(1.0, np.zeros((2, 2)))])
    dec = radon_nikodym(mu)
    assert dec.densities == ()
    assert dec.null_atoms == (1.0,)


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_rn_reconstruction(seed, dim, natoms):
    rng = np.random.default_rng(seed)
    mu = OperatorMeasure(dim, [(float(k), random_psd(rng, dim)) for k in range(natoms)])
    dec = radon_nikodym(mu)
    recon = sum(
        w * dens.entries
        for (_, w), dens in zip(dec.trace_measure.atoms, dec.densities)
    )
    total = total_operator(mu).entries
    # division then re-multiplication: a couple of ulps, not exact
    assert np.max(np.abs(recon - total)) <= 4 * np.finfo(float).eps * max(
        1.0, np.max(np.abs(total))
    )
    for dens in dec.densities:
        assert abs(trace(dens) - 1.0) <= 1e-14
        assert is_psd(dens).ok


# ---------------------------------------------------------------- totals / c0


def test_total_operator_restriction():
    mu = OperatorMeasure(2, [(0.0, I2), (1.0, np.diag([1.0, 0.0]))])
    assert np.allclose(total_operator(mu, restrict_positive_support=True).entries, np.diag([1.0, 0.0]))
    assert np.allclose(total_operator(mu).entries, np.diag([2.0, 1.0]))


def test_total_operator_empty():
    mu = OperatorMeasure(2, [])
    assert np.allclose(total_operator(mu).entries, np.zeros((2, 2)))


def test_c0_membership():
    assert c0_membership(OperatorMeasure(2, [(1.0, I2)]))
    assert not c0_membership(OperatorMeasure(2, [(0.0, I2)]))
    # zero matrix at 0 is pruned, so the remainder decays
    assert c0_membership(OperatorMeasure(2, [(0.0, np.zeros((2, 2))), (1.0, I2)]))


# ---------------------------------------------------------------- classification


def test_classify_strict():
    mu = OperatorMeasure(2, [(1.0, I2)])
    res = classify_radial(mu, RadialProfile.gaussian())
    assert res.verdict == VERDICT_STRICT
    assert res.witness is None
    assert res.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


def test_classify_all_mass_at_origin():
    mu = OperatorMeasure(2, [(0.0, I2)])
    res = classify_radial(mu, RadialProfile.gaussian())
    assert res.verdict == VERDICT_NOT_STRICT


def test_classify_rank_deficient_with_witness():
    mu = OperatorMeasure(2, [(1.0, np.diag([1.0, 0.0])), (2.0, np.diag([1.0, 0.0]))])
    res = classify_radial(mu, RadialProfile.omega(3))
    assert res.verdict == VERDICT_NOT_STRICT
    assert np.allclose(np.abs(res.witness), E2, atol=1e-12)


@given(st.integers(0, 10_000), st.floats(0.25, 64.0))
@settings(max_examples=40, deadline=None)
def test_classify_scaling_invariance(seed, c):
    """Positive rescaling of the measure must not change the verdict, and a
    NotStrict witness must stay in the same null span."""
    rng = np.random.default_rng(seed)
    g = random_psd(rng, 3)
    u = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    singular = u @ np.diag([1.0, 1.0, 0.0]) @ u.T  # rank-2 PSD
    for base in (g, singular):
        mu1 = OperatorMeasure(3, [(1.0, base)])
        mu2 = OperatorMeasure(3, [(1.0, c * base)])
        r1 = classify_radial(mu1, RadialProfile.gaussian())
        r2 = classify_radial(mu2, RadialProfile.gaussian())
        assert r1.verdict == r2.verdict
        if r1.verdict == VERDICT_NOT_STRICT:
            # same null space: both witnesses are killed by the total operator
            for res, mu in ((r1, mu1), (r2, mu2)):
                tot = total_operator(mu, restrict_positive_support=True).entries
                assert np.linalg.norm(tot @ res.witness) <= 1e-8 * max(
                    1.0, np.linalg.norm(tot)
                )


def test_not_strict_witness_has_no_projection_mass():
    mu = OperatorMeasure(2, [(1.0, np.diag([1.0, 0.0])), (2.0, np.diag([1.0, 0.0]))])
    res = classify_radial(mu, RadialProfile.gaussian())
    sm = scalar_projection_measure(mu, res.witness)
    assert all(w <= 1e-12 for omega, w in sm.atoms if omega > 0.0)


# ---------------------------------------------------------------- JSON


MEASURE_JSON = {
    "dim": 2,
    "atoms": [
        {"omega": 0.0, "G": {"re": [[1.0, 0.0], [0.0, 2.0]], "im": [[0.0, 0.5], [-0.5, 0.0]]}},
        {"omega": 1.5, "G": {"re": [[1, 0], [0, 1]]}},
    ],
}


def test_json_roundtrip():
    mu = measure_from_json(MEASURE_JSON)
    expected = OperatorMeasure(2, [(0.0, np.array([[1.0, 0.5j], [-0.5j, 2.0]])), (1.5, I2)])
    assert mu.dim == expected.dim
    assert len(mu) == len(expected)
    for (o1, g1), (o2, g2) in zip(mu.atoms, expected.atoms):
        assert o1 == o2
        assert np.array_equal(g1.entries, g2.entries)
    written = {
        "dim": mu.dim,
        "atoms": [{"omega": omega, "G": complex_to_json(g.entries)} for omega, g in mu.atoms],
    }
    back = measure_from_json(json.loads(json.dumps(written)))
    for (o1, g1), (o2, g2) in zip(mu.atoms, back.atoms):
        assert o1 == o2
        assert np.array_equal(g1.entries, g2.entries)


def _with(path, value):
    """A copy of MEASURE_JSON with the field at path set to value."""
    obj = copy.deepcopy(MEASURE_JSON)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def test_json_rejects_unknown_field():
    for path in (("extra",), ("atoms", 0, "extra"), ("atoms", 0, "G", "extra")):
        with pytest.raises(SchemaError, match="unknown fields"):
            measure_from_json(_with(path, 1))


def test_json_rejects_bool_as_number():
    for path in (("atoms", 0, "omega"), ("dim",)):
        with pytest.raises(SchemaError, match="must be"):
            measure_from_json(_with(path, True))


@pytest.mark.parametrize(
    "path, value",
    [
        (("dim",), 1.7),
        (("dim",), "2"),
        (("atoms", 1, "omega"), float("inf")),
        (("atoms", 1, "omega"), 10**400),
        (("atoms", 1, "G", "re"), [[1.0, 0.0], [0.0]]),
        (("atoms", 0, "G", "im"), [[0.0, float("nan")], [0.0, 0.0]]),
        (("atoms", 0, "G"), [[1.0, 0.0], [0.0, 1.0]]),
        (("atoms",), {"omega": 1.0}),
    ],
)
def test_json_rejects_malformed_entries(path, value):
    """Fractional or string integers, non-finite, non-numeric and ragged
    entries are schema errors, not tracebacks or silent casts."""
    with pytest.raises(SchemaError):
        measure_from_json(_with(path, value))
