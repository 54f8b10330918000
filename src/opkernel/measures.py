"""Finite nonnegative operator-valued measures on the scale half-line.

An OperatorMeasure is a finite atomic measure sum_j G_j delta_{omega_j} with
scalar supports omega_j >= 0 and PSD matrix weights G_j acting on C^ell.
Mixing a scalar radial family against such a measure produces the
operator-valued kernels in kernel.py; whether that kernel is strictly PD
and universal is decided *exactly* here from the measure alone:

    strictly PD and universal  <=>  sum_{omega_j > 0} G_j is nonsingular.

Also provides the discrete Radon-Nikodym decomposition against the trace
measure (scalar weights tr G_j, trace-one PSD densities G_j / tr G_j) and
scalar projection measures omega_j -> <G_j v, v>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, InvalidMeasure, InvalidVector, NotRadial
from .hermitian import PSD_TOL, HermitianMatrix, _eigh_checked, eigen_hermitian, trace
from .profiles import RadialProfile
from .schema import _fields, _float_field, _int_field, _list_field, complex_from_json

# Weights this slightly negative are treated as roundoff and clamped to 0.
WEIGHT_ROUNDOFF_TOL = 1e-12


def merge_psd_atoms(dim: int, keyed, describe) -> tuple[list, list]:
    """Validate, merge and prune matrix atoms given as (key, G) pairs.

    Each G is symmetrized and must be a finite dim x dim PSD matrix at the
    default tolerance; the whole stack is checked by one eigensolve, and the
    first atom that fails is named by describe(key). Atoms with equal keys
    merge by summing matrices. Returns the merged atoms with positive trace,
    sorted by key, as (key, HermitianMatrix), and the keys of the others.
    """
    if not keyed:
        return [], []
    keys = [key for key, _ in keyed]
    mats = [g.entries if isinstance(g, HermitianMatrix) else np.asarray(g, dtype=complex) for _, g in keyed]
    for a in mats:
        if a.shape != (dim, dim):
            raise InvalidMeasure(f"atom matrix has shape {a.shape}, expected ({dim}, {dim})")
    h = np.stack(mats)
    h = (h + np.conj(np.swapaxes(h, 1, 2))) / 2
    if not np.all(np.isfinite(h)):
        raise InvalidMatrix("matrix has non-finite entries")
    lam = _eigh_checked(h)[0][:, 0]
    bad = np.flatnonzero(lam < -PSD_TOL * np.maximum(1.0, np.trace(h, axis1=1, axis2=2).real))
    if bad.size:
        i = int(bad[0])
        raise InvalidMeasure(f"atom at {describe(keys[i])} is not PSD (min eigenvalue {lam[i]:.3e})")
    merged: dict = {}
    for key, g in zip(keys, h):
        merged[key] = merged[key] + g if key in merged else g
    atoms = [(key, HermitianMatrix(merged[key])) for key in sorted(merged)]
    return [a for a in atoms if trace(a[1]) > 0.0], [key for key, g in atoms if trace(g) <= 0.0]


class OperatorMeasure:
    """Finite atomic nonnegative operator measure on [0, infinity).

    Atoms are (omega, G) with omega >= 0 and G PSD (checked at default
    tolerance). Atoms at exactly equal supports are merged by summing their
    matrices; atoms whose matrix is zero (trace 0) are pruned, but their
    supports are remembered in null_supports for decomposition reports.
    Atoms are stored sorted by support.
    """

    __slots__ = ("dim", "atoms", "null_supports")

    def __init__(self, dim: int, atoms):
        dim = int(dim)
        if dim < 1:
            raise InvalidMeasure("dim must be >= 1")
        keyed = []
        for omega, g in atoms:
            omega = float(omega)
            if not math.isfinite(omega) or omega < 0.0:
                raise InvalidMeasure(f"support point must be finite and >= 0, got {omega}")
            keyed.append((omega, g))
        kept, nulls = merge_psd_atoms(dim, keyed, lambda omega: f"omega={omega}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "atoms", tuple(kept))
        object.__setattr__(self, "null_supports", tuple(nulls))

    def __setattr__(self, name, value):
        raise AttributeError("OperatorMeasure is immutable")

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return f"OperatorMeasure(dim={self.dim}, atoms={len(self.atoms)})"


class ScalarMeasure:
    """Finite atomic scalar measure with nonnegative weights.

    Weights in [-1e-12, 0) are clamped to zero (roundoff from quadratic
    forms); genuinely negative weights raise InvalidMeasure. Zero-weight
    atoms are kept: a projection can legitimately kill an atom, and the
    support is still information.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        merged: dict[float, float] = {}
        for omega, w in atoms:
            omega, w = float(omega), float(w)
            if not (math.isfinite(omega) and math.isfinite(w)) or omega < 0.0:
                raise InvalidMeasure("scalar atoms must be finite with omega >= 0")
            merged[omega] = merged.get(omega, 0.0) + w
        out = []
        for omega in sorted(merged):
            w = merged[omega]
            if w < -WEIGHT_ROUNDOFF_TOL:
                raise InvalidMeasure(f"negative weight {w} at omega={omega}")
            out.append((omega, max(0.0, w)))
        object.__setattr__(self, "atoms", tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError("ScalarMeasure is immutable")

    def __len__(self):
        return len(self.atoms)


@dataclass(frozen=True)
class RNDecomposition:
    """Discrete Radon-Nikodym decomposition against the trace measure.

    trace_measure carries weights tr G_j > 0; densities[j] is the trace-one
    PSD matrix G_j / tr G_j at the same support; null_atoms lists supports
    whose matrix was zero (no density there).
    """

    trace_measure: ScalarMeasure
    densities: tuple[HermitianMatrix, ...]
    null_atoms: tuple[float, ...]


def radon_nikodym(measure: OperatorMeasure) -> RNDecomposition:
    traces = [(omega, trace(g)) for omega, g in measure.atoms]
    densities = tuple(
        HermitianMatrix(g.entries / tr) for (_, g), (_, tr) in zip(measure.atoms, traces)
    )
    return RNDecomposition(
        trace_measure=ScalarMeasure(traces),
        densities=densities,
        null_atoms=measure.null_supports,
    )


def scalar_projection_measure(measure: OperatorMeasure, v) -> ScalarMeasure:
    """Project onto direction v: atom weights become <G_j v, v> (real >= 0)."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] != measure.dim:
        raise InvalidVector(f"expected a vector of length {measure.dim}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise InvalidVector("vector has non-finite entries")
    if float(np.linalg.norm(v)) == 0.0:
        raise InvalidVector("projection direction must be nonzero")
    return ScalarMeasure(
        (omega, float(np.vdot(v, g.entries @ v).real)) for omega, g in measure.atoms
    )


def total_operator(measure: OperatorMeasure, restrict_positive_support: bool = False) -> HermitianMatrix:
    """Sum of atom matrices; restricted variant drops any atom at omega = 0."""
    total = np.zeros((measure.dim, measure.dim), dtype=complex)
    for omega, g in measure.atoms:
        if restrict_positive_support and omega == 0.0:
            continue
        total = total + g.entries
    return HermitianMatrix(total)


def c0_membership(measure: OperatorMeasure) -> bool:
    """True iff no surviving atom sits at omega = 0 (kernel decays at infinity)."""
    return all(omega > 0.0 for omega, _ in measure.atoms)


VERDICT_STRICT = "StrictlyPD_and_Universal"
VERDICT_NOT_STRICT = "NotStrictlyPD"


@dataclass(frozen=True)
class RadialClassification:
    verdict: str
    min_eigenvalue: float  # of the support-restricted total operator
    witness: np.ndarray | None  # unit eigenvector of the minimal eigenvalue
    family_kind: str
    dim: int


def classify_radial(
    measure: OperatorMeasure, family: RadialProfile, tol: float = PSD_TOL
) -> RadialClassification:
    """Exact strict-PD / universality classification of a radial mixture.

    The mixture of any radial family here against the measure is strictly PD
    (and universal for its smoothness class) exactly when the total operator
    restricted to positive supports is nonsingular; the verdict is decided
    from min_eigenvalue of that total at tolerance tol * max(1, trace).
    """
    if not isinstance(family, RadialProfile):
        raise NotRadial("classification applies to radial families only")
    total = total_operator(measure, restrict_positive_support=True)
    dec = eigen_hermitian(total)
    lam = float(dec.eigenvalues[0])
    cutoff = tol * max(1.0, trace(total))
    if lam > cutoff:
        return RadialClassification(
            verdict=VERDICT_STRICT,
            min_eigenvalue=lam,
            witness=None,
            family_kind=family.kind,
            dim=measure.dim,
        )
    return RadialClassification(
        verdict=VERDICT_NOT_STRICT,
        min_eigenvalue=lam,
        witness=dec.eigenvectors[:, 0].copy(),
        family_kind=family.kind,
        dim=measure.dim,
    )


# ----------------------------------------------------------------------
# JSON schema
# ----------------------------------------------------------------------


def measure_from_json(obj) -> OperatorMeasure:
    """Parse {"dim": l, "atoms": [{"omega": w, "G": matrix}]}, each matrix a
    complex array as read by schema.complex_from_json.

    Unknown fields are rejected; matrices are symmetrized and PSD-validated.
    """
    _fields(obj, "measure descriptor", ("dim", "atoms"))
    atoms = []
    for i, atom in enumerate(_list_field(obj["atoms"], "atoms")):
        _fields(atom, f"atom {i}", ("omega", "G"))
        omega = _float_field(atom["omega"], f"atom {i} omega")
        atoms.append((omega, complex_from_json(atom["G"], f"atom {i} 'G'")))
    return OperatorMeasure(_int_field(obj["dim"], "dim"), atoms)
