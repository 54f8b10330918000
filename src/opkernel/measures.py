"""Finite nonnegative operator-valued measures on the scale half-line.

An OperatorMeasure is a finite atomic measure sum_j G_j delta_{omega_j} with
scalar supports omega_j >= 0 and PSD matrix weights G_j acting on C^ell.
Mixing a scalar radial family against such a measure produces the
operator-valued kernels in kernel.py; whether that kernel is strictly PD
and universal is decided *exactly* here from the measure alone:

    strictly PD and universal  <=>  sum_{omega_j > 0} G_j is nonsingular.

Atoms are stored as arrays, supports omegas (A,) and weights gs (A, ell,
ell), validated and merged in one vectorized pass; the plane-wave and
vector measures of kernel.py and rkhs.py use the same row grouping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, InvalidMeasure, NotRadial, NumericalFailure
from .hermitian import PSD_TOL, Frozen, hermitian_part, psd_margin
from .profiles import RadialProfile
from .schema import _fields, _float_field, _int_field, _list_field, complex_from_json

# Matrix dimension of a measure's atoms: each atom matrix, and the identity
# of the checked eigensolve over them, holds dim^2 entries (1 MiB at the
# cap) even when the measure has no atoms; the benchmark's largest is 3.
MAX_MEASURE_DIM = 256


def unique_rows(keys: np.ndarray, in_order: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first row of each distinct row of keys (n, c), and for
    every row the position of its own distinct row in that list. Distinct
    rows come in lexicographic order, or with in_order in the order of their
    first occurrence. Rows compare as floats, so -0.0 == 0.0."""
    order = np.lexsort(keys.T[::-1])  # stable: equal rows keep input order
    ordered = keys[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first, rank = order[new], new.cumsum() - 1
    if in_order:
        perm = np.argsort(first)
        first, rank = first[perm], np.argsort(perm)[rank]
    inverse = np.empty_like(order)
    inverse[order] = rank
    return first, inverse


def merge_rows(keys: np.ndarray, values: np.ndarray, in_order: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Sum the values of equal key rows: unique_rows's first indices, and per
    distinct key the sum of its values in input order, starting from the
    first value (not from zero, so a lone -0.0 stays -0.0). A sum that
    leaves the float range is left not finite, without a warning, for the
    caller to check."""
    first, inverse = unique_rows(keys, in_order)
    sums = values[first]
    if first.size < keys.shape[0]:
        later = np.ones(keys.shape[0], dtype=bool)
        later[first] = False
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(sums, inverse[later], values[later])  # one add per row, in row order
    return first, sums


def stack_atoms(items, shape: tuple, dtype, error) -> np.ndarray:
    """Per-atom items, given as one array or as a sequence, as one (A, *shape)
    array; error(item_shape) is raised for the first item of another shape."""
    if isinstance(items, np.ndarray) and items.shape[1:] == shape:
        return items.astype(dtype)
    arrs = [np.asarray(g, dtype=dtype) for g in items]
    for a in arrs:
        if a.shape != shape:
            raise error(a.shape)
    return np.stack(arrs) if arrs else np.zeros((0, *shape), dtype=dtype)


def merge_psd_atoms(dim: int, keys: np.ndarray, gs, describe) -> tuple[np.ndarray, np.ndarray]:
    """Validate, merge and prune matrix atoms at the key rows keys (A, c).

    dim is at most MAX_MEASURE_DIM. Each G is symmetrized and must be a
    finite dim x dim PSD matrix at the default tolerance; the whole stack is
    checked by one eigensolve, and the first atom that fails is named by
    describe(key row). Atoms with equal keys merge by summing matrices.
    Returns, sorted by key, the read-only keys and matrices of the merged
    atoms with positive trace; the others are pruned."""
    if dim > MAX_MEASURE_DIM:
        raise InvalidMeasure(f"need dim <= {MAX_MEASURE_DIM}")
    shape = (dim, dim)
    h = stack_atoms(gs, shape, complex, lambda s: InvalidMeasure(f"atom matrix has shape {s}, expected {shape}"))
    if h.shape[0] != keys.shape[0]:
        raise InvalidMeasure(f"got {h.shape[0]} atom matrices for {keys.shape[0]} supports")
    h = hermitian_part(h)
    if not np.all(np.isfinite(h)):
        raise InvalidMatrix("matrix has non-finite entries")
    lam, scale, _ = psd_margin(h)
    bad = np.flatnonzero(lam < -PSD_TOL * scale)
    if bad.size:
        i = int(bad[0])
        raise InvalidMeasure(f"atom at {describe(keys[i])} is not PSD (min eigenvalue {lam[i]:.3e})")
    first, merged = merge_rows(keys, h)
    if not np.all(np.isfinite(merged)):
        raise InvalidMatrix("matrix has non-finite entries")
    with np.errstate(over="ignore"):  # a trace that overflows is inf, and positive
        keep = np.trace(merged, axis1=1, axis2=2).real > 0.0
    kept = keys[first][keep], merged[keep]
    for a in kept:
        a.setflags(write=False)
    return kept


class OperatorMeasure(Frozen):
    """Finite atomic nonnegative operator measure on [0, infinity).

    Atoms are (omega, G) pairs, or the arrays omegas (A,) and gs (A, dim,
    dim), with omega >= 0 and G PSD (checked at default tolerance). Atoms at
    exactly equal supports are merged by summing their matrices; atoms whose
    matrix is zero (trace 0) are pruned. The atoms are stored as the
    read-only arrays omegas and gs, sorted by support.
    """

    __slots__ = ("dim", "omegas", "gs")

    def __init__(self, dim: int, atoms=(), *, omegas=None, gs=None):
        dim = int(dim)
        if dim < 1:
            raise InvalidMeasure("dim must be >= 1")
        if omegas is None:
            omegas, gs = tuple(zip(*atoms)) or ((), ())
            omegas = [float(omega) for omega in omegas]
        omegas = np.array(omegas, dtype=float).reshape(-1)
        bad = np.flatnonzero(~(np.isfinite(omegas) & (omegas >= 0.0)))
        if bad.size:
            raise InvalidMeasure(f"support point must be finite and >= 0, got {float(omegas[bad[0]])}")
        keys, kept = merge_psd_atoms(dim, omegas[:, None], gs, lambda key: f"omega={float(key[0])}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "omegas", keys[:, 0])
        object.__setattr__(self, "gs", kept)

    def __len__(self):
        return self.omegas.shape[0]

    def __repr__(self):
        return f"OperatorMeasure(dim={self.dim}, atoms={len(self)})"


def total_operator(measure: OperatorMeasure) -> np.ndarray:
    """Sum of the atom matrices at positive supports (omega = 0 dropped):
    exactly Hermitian, as every atom is."""
    total = np.zeros((measure.dim, measure.dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for g in measure.gs[measure.omegas != 0.0]:
            total = total + g
    if not np.all(np.isfinite(total)):
        raise NumericalFailure("total operator (sum of atom matrices) overflows the float range")
    return total


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
    lam, scale, vec = psd_margin(total_operator(measure))
    strict = lam > tol * scale
    return RadialClassification(
        verdict=VERDICT_STRICT if strict else VERDICT_NOT_STRICT,
        min_eigenvalue=lam,
        witness=None if strict else vec,
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
