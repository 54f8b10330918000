"""Operator measures: construction, projections, exact classification."""

import copy
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkernel.errors import InvalidMeasure, NumericalFailure, SchemaError
from opkernel.hermitian import HermitianMatrix, is_psd
from opkernel.kernel import PlaneWaveMeasure, kernel_eval, radial_kernel
from opkernel.measures import (
    VERDICT_NOT_STRICT,
    VERDICT_STRICT,
    OperatorMeasure,
    classify_radial,
    measure_from_json,
    total_operator,
)
from opkernel.profiles import RadialProfile
from opkernel.schema import complex_to_json, write_report

I2 = np.eye(2)
E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_psd(rng, dim):
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return b.conj().T @ b


# ---------------------------------------------------------------- construction


def test_atoms_sorted_and_merged():
    mu = OperatorMeasure(2, [(2.0, I2), (1.0, I2), (2.0, I2)])
    assert mu.omegas.tolist() == [1.0, 2.0]
    assert np.allclose(mu.gs[1], 2 * I2)


def test_zero_atom_pruned_but_remembered():
    mu = OperatorMeasure(2, [(0.5, np.zeros((2, 2))), (1.0, I2)])
    assert len(mu) == 1
    assert 0.5 not in mu.omegas


def test_merged_atom_whose_trace_overflows_is_kept_without_a_warning():
    """diag(0, 1e308) and diag(1e308, 0) at one support merge to
    diag(1e308, 1e308), whose trace overflows: the prune check took it with
    numpy's "overflow encountered in reduce". The atom is kept, as a trace of
    inf is positive."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = OperatorMeasure(2, [(0.0, np.diag([0.0, 1e308])), (0.0, np.diag([1e308, 0.0]))])
    assert mu.omegas.tolist() == [0.0]
    assert mu.gs[0].tolist() == np.diag([1e308, 1e308]).astype(complex).tolist()


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
    positive = [np.trace(g.entries).real > 0.0 for _, g in atoms]
    return [a for a, p in zip(atoms, positive) if p], [key for (key, _), p in zip(atoms, positive) if not p]


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
    assert mu.omegas.tolist() == [w for w, _ in kept]
    assert np.array_equal(mu.gs, np.stack([g.entries for _, g in kept]))
    assert not set(nulls) & set(mu.omegas.tolist()) and 11.0 in nulls
    # merged supports are strictly increasing and every kept atom has positive trace
    assert np.all(np.diff(mu.omegas) > 0.0) and np.all(np.trace(mu.gs, axis1=1, axis2=2).real > 0.0)
    xi_atoms = [((w, -w), g) for w, g in atoms]
    pw = PlaneWaveMeasure(3, 2, [(np.array(xi), g) for xi, g in xi_atoms])
    kept, _ = _merge_loop(xi_atoms, str)
    assert [tuple(xi) for xi in pw.xis.tolist()] == [xi for xi, _ in kept]
    assert np.array_equal(pw.gs, np.stack([g.entries for _, g in kept]))


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


def _bits(a):
    return np.asarray(a).tobytes()


def _signed_zero_atoms(rng, keys, dim=2):
    """Rank-one PSD atoms at the given keys; some entries are signed zeros,
    and one matrix is zero (so its key is pruned)."""
    atoms = []
    for i, key in enumerate(keys):
        u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        u[i % dim] = complex(-0.0, 0.0) if i % 3 else 0.0
        g = np.zeros((dim, dim)) if i == 4 else np.outer(u, np.conj(u))
        atoms.append((key, g))
    return atoms


def test_measures_merge_signed_zero_keys_like_the_loop():
    """Equal keys merge left to right from the first matrix; a key seen as
    both -0.0 and 0.0 keeps the sign of its first occurrence, as a dict
    did; arrays match the per-atom loop bit for bit."""
    rng = np.random.default_rng(23)
    keys = [0.5, -0.0, 0.0, 0.5, 3.0, -0.0, 2.0, 0.0, 0.5]
    atoms = _signed_zero_atoms(rng, keys)
    kept, nulls = _merge_loop(atoms, str)
    mu = OperatorMeasure(2, atoms)
    assert _bits(mu.omegas) == _bits([w for w, _ in kept])
    assert np.signbit(mu.omegas[0])
    assert _bits(mu.gs) == _bits(np.stack([g.entries for _, g in kept]))
    assert nulls == [3.0] and 3.0 not in mu.omegas
    arrays = OperatorMeasure(2, omegas=np.array(keys), gs=np.stack([g for _, g in atoms]))
    assert _bits(arrays.omegas) == _bits(mu.omegas) and _bits(arrays.gs) == _bits(mu.gs)

    xi_keys = [(0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (0.0, 1.0), (-2.0, 5.0), (1.0, 0.0), (-0.0, -0.0), (0.0, 0.0)]
    atoms = _signed_zero_atoms(rng, xi_keys)
    kept, _ = _merge_loop(atoms, str)
    pw = PlaneWaveMeasure(2, 2, [(np.array(xi), g) for xi, g in atoms])
    assert _bits(pw.xis) == _bits(np.array([xi for xi, _ in kept]))
    assert _bits(pw.gs) == _bits(np.stack([g.entries for _, g in kept]))
    arrays = PlaneWaveMeasure(2, 2, xis=np.array(xi_keys), gs=np.stack([g for _, g in atoms]))
    assert _bits(arrays.xis) == _bits(pw.xis) and _bits(arrays.gs) == _bits(pw.gs)


def test_measures_from_arrays_name_the_first_indefinite_atom():
    atoms = _fifty_atoms(np.random.default_rng(22))
    atoms[37] = (7.5, np.diag([1.0, 2.0, -0.5]))
    atoms[44] = (2.0, np.diag([-1.0, 2.0, 1.0]))
    omegas, gs = np.array([w for w, _ in atoms]), np.stack([g for _, g in atoms])
    with pytest.raises(InvalidMeasure) as pairs:
        OperatorMeasure(3, atoms)
    with pytest.raises(InvalidMeasure) as arrays:
        OperatorMeasure(3, omegas=omegas, gs=gs)
    assert str(arrays.value) == str(pairs.value) and "omega=7.5 " in str(pairs.value)
    with pytest.raises(InvalidMeasure, match=r"xi=\[7\.5, 1\.0\] "):
        PlaneWaveMeasure(3, 2, xis=np.stack([omegas, np.ones(50)], axis=1), gs=gs)


def test_measures_reject_malformed_arrays():
    with pytest.raises(InvalidMeasure, match="support point must be finite and >= 0, got -1.0"):
        OperatorMeasure(2, omegas=np.array([1.0, -1.0]), gs=np.stack([I2, I2]))
    with pytest.raises(InvalidMeasure, match="atom matrix has shape"):
        OperatorMeasure(2, omegas=np.array([1.0]), gs=np.eye(3)[None])
    with pytest.raises(InvalidMeasure, match="2 atom matrices for 1 supports"):
        OperatorMeasure(2, omegas=np.array([1.0]), gs=np.stack([I2, I2]))
    with pytest.raises(InvalidMeasure, match="frequency must be a finite vector of length 2"):
        PlaneWaveMeasure(2, 2, xis=np.array([[0.0, np.inf]]), gs=I2[None])


# ---------------------------------------------------------------- projection


def _projected(mu, v, ts):
    """v^H K(t) v of the gaussian mixture of mu (m = 1) at distances ts: the
    scalar measure omega_j -> <G_j v, v> mixed at t, read through eval_diffs."""
    k = radial_kernel(RadialProfile.gaussian(), mu, 1)
    blocks = k.eval_diffs(np.asarray(ts, dtype=float)[:, None])
    return np.einsum("i,pij,j->p", np.conj(v), blocks, v)


TS = [0.0, 0.5, 2.0]


def test_projection_identity_direction():
    mu = OperatorMeasure(2, [(1.0, I2)])
    assert np.array_equal(_projected(mu, E1, TS), np.exp(-np.square(TS)))


def test_projection_scales_quadratically():
    mu = OperatorMeasure(2, [(1.0, I2)])
    assert np.array_equal(_projected(mu, 2.0 * E1, TS), 4.0 * np.exp(-np.square(TS)))


def test_projection_can_kill_an_atom():
    mu = OperatorMeasure(2, [(0.0, np.diag([1.0, 0.0])), (2.0, np.diag([0.0, 1.0]))])
    # the omega = 0 atom would add a constant 1; E2 sees only the omega = 2 atom
    assert np.array_equal(_projected(mu, E2, TS), np.exp(-2.0 * np.square(TS)))
    assert np.array_equal(_projected(mu, E1, TS), np.ones(3))


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_projection_weights_nonnegative(seed):
    rng = np.random.default_rng(seed)
    for k in range(3):
        mu = OperatorMeasure(3, [(float(k), random_psd(rng, 3))])
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        # at t = 0 the one atom's profile is 1, so the value is its weight
        weight = _projected(mu, v, [0.0])[0]
        assert weight.real >= 0.0
        assert abs(weight.imag) <= 1e-12 * max(1.0, weight.real)


# ---------------------------------------------------------------- totals / c0


def test_total_operator_overflow_is_a_numerical_failure():
    """Two finite atoms of 1e308 sum past the float range: the sum is taken
    without a numpy warning and refused, not passed on as inf."""
    mu = OperatorMeasure(1, [(1.0, np.array([[1e308]])), (2.0, np.array([[1e308]]))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="total operator"):
            total_operator(mu)


def test_total_operator_restriction():
    mu = OperatorMeasure(2, [(0.0, I2), (1.0, np.diag([1.0, 0.0]))])
    assert np.allclose(total_operator(mu).entries, np.diag([1.0, 0.0]))


def test_total_operator_empty():
    mu = OperatorMeasure(2, [])
    assert np.allclose(total_operator(mu).entries, np.zeros((2, 2)))


def test_c0_membership():
    """The kernel decays at infinity iff no surviving atom sits at omega = 0."""
    far = np.array([1e3])
    decays = OperatorMeasure(2, [(1.0, I2)])
    constant = OperatorMeasure(2, [(0.0, I2)])
    # a zero matrix at 0 is pruned, so the remainder decays
    pruned = OperatorMeasure(2, [(0.0, np.zeros((2, 2))), (1.0, I2)])
    for mu, limit in ((decays, 0.0 * I2), (constant, I2), (pruned, 0.0 * I2)):
        k = radial_kernel(RadialProfile.gaussian(), mu, 1)
        assert np.array_equal(kernel_eval(k, far, np.zeros(1)), limit)


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
                tot = total_operator(mu).entries
                assert np.linalg.norm(tot @ res.witness) <= 1e-8 * max(
                    1.0, np.linalg.norm(tot)
                )


def test_not_strict_witness_has_no_projection_mass():
    mu = OperatorMeasure(2, [(1.0, np.diag([1.0, 0.0])), (2.0, np.diag([1.0, 0.0]))])
    res = classify_radial(mu, RadialProfile.gaussian())
    # both atoms sit at omega > 0, so the witness sees no mass at any distance
    assert np.all(np.abs(_projected(mu, res.witness, TS)) <= 1e-12)


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
    assert np.array_equal(mu.omegas, expected.omegas)
    assert np.array_equal(mu.gs, expected.gs)
    written = {
        "dim": mu.dim,
        "atoms": [{"omega": omega, "G": complex_to_json(g)} for omega, g in zip(mu.omegas.tolist(), mu.gs)],
    }
    fh = io.StringIO()
    write_report(written, fh)
    back = measure_from_json(json.loads(fh.getvalue()))
    assert np.array_equal(mu.omegas, back.omegas)
    assert np.array_equal(mu.gs, back.gs)


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
