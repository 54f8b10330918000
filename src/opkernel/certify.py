"""Certification tools: strictness probes and two concrete
kernels that are positive definite but not strictly so.

demo_counterexample_shifted_gaussian builds the 2x2 kernel

    K(x, y) = [[ e^{-|d|^2},      e^{-|d + 2w|^2} ],
               [ e^{-|d - 2w|^2}, e^{-|d|^2}      ]],   d = x - y,

which is PD (it is E[ e^{i d Z} (c(Z) c(Z)^H) ] for a Gaussian frequency Z
and a bounded vector symbol) yet annihilates the vector measure
e1 delta_0 - e2 delta_{2w}: the four Gram numbers are 1, 1, e^0, e^0 and the
quadratic form collapses to 1 + 1 - 1 - 1, exactly zero in floating point.
Every scalar projection v^H K v stays strictly positive definite, which the
demo certifies on a seeded random design, so the degeneracy is genuinely an
operator-level phenomenon.

demo_counterexample_radial_bump discretizes a rank-one frequency-side
construction on the line: with a = FT(phi1), b = FT(phi2) (real, even bump
transforms), the matrix weights W(xi) = (b, -a)(b, -a)^H are PSD, and the
vector measure with atoms (phi1(x_i), phi2(x_i)) dx_i pairs to
sum_xi |a b - b a|^2 = 0 by construction -- every frequency atom is
annihilated identically, while the same kernel gives each single-component
measure a strictly positive form.

probe_strict_pd hammers a kernel with seeded random designs and reports the
smallest Gram eigenvalue seen; classify_and_report runs the exact
classification and the probe side by side and refuses to let them disagree
silently. The probe's trials run in chunks bounded by _PROBE_CHUNK_ENTRIES:
_seeded_design, the one design drawer (the shifted-gaussian demo's too),
draws every design of the chunk first (the first draws in one stacked
pairwise pass), then builds their Grams in one pass of gram's assembler,
and one checked eigensolve covers the chunk. A plane-wave kernel
K(x, y) = sum_a e^{-i (x - y) . xi_a} G_a is read through its finite-rank
factor instead: each design's Gram is F F^H, F with r = sum_a rank G_a
columns, and one checked SVD of the chunk's factors gives lambda_min. A
chunk is all or nothing: when its drawing, evaluation, eigensolve or SVD
raises, the probe runs one trial per chunk from the chunk's first trial
on, so the first failing trial raises its own error. Every design,
eigenvalue, witness and error is the one a per-trial loop gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGrid, InvalidParameter, InvalidVector, OpKernelError
from .hermitian import PSD_TOL, Frozen, _eigh_checked, factor_margin, hermitian_part, psd_margin
from .kernel import (
    DUPLICATE_POINT_TOL,
    OperatorKernel,
    PlaneWaveMeasure,
    _check_size,
    _close_pairs,
    _hermitian_gram,
    _phases,
    gram,
    pair_diffs,
    plane_wave_kernel,
    radial_kernel,
)
from .measures import (
    VERDICT_STRICT,
    OperatorMeasure,
    RadialClassification,
    classify_radial,
)
from .profiles import RadialProfile
from .rkhs import VectorAtomMeasure, quadratic_form_detail

PROBE_TOL = 1e-10
PROJECTION_FLOOR_TOL = 1e-8
WITNESS_DESIGN_TOL = 1e-9
# Radial-bump grid bounds. Time and memory grow as grid_n^2; the benchmark's
# largest grid is 2048. Past MAX_BUMP_BOX even the finest grid has spacing
# over 200, far coarser than the bumps' support |x| < 1, and near 1e307 the
# phases x * xi overflow.
MAX_BUMP_GRID_N = 8192
MAX_BUMP_BOX = 1e6
# Radial-bump atoms, counted as the grid points where the bump phi1 > 0: the
# Gram holds (2 atoms)^2 complex entries and its pairwise pass atoms^2 2 x 2
# blocks (64 MiB each at the cap). At the cap a demo peaks near 140 MiB
# (tracemalloc) at grid 2048, in the Gram assembly, and near 515 MiB at grid
# 8192, in the grid_n^2 cosine table (512 MiB) that is freed before the
# Gram; grid 8192 at box 1.2 (6822 atoms) once needed over 2 GiB. The
# benchmark's largest is 366 atoms.
MAX_BUMP_ATOMS = 1024
# Probe design size: each trial forms n^2 differences, and eigensolves an
# (n*ell)^2 Gram or takes the SVD of an (n*ell) x r plane-wave factor with
# its square (n*ell)^2 left factor: O(n^3) time either way (O(n^2 r) where
# the factor is wider). The benchmark's largest n is 40.
MAX_PROBE_N = 1024
# Probe dimension: no input bounds a drawn design, and each trial holds n^2 * m
# difference coordinates (128 MB at n = MAX_PROBE_N); the benchmark's largest m is 3.
MAX_PROBE_DIM = 16
# Probe trials: each runs a design and an eigensolve, and the report lists
# one eigenvalue per trial; the benchmark's largest count is 40.
MAX_PROBE_TRIALS = 10_000
# Probe box: designs are drawn from [-box, box]^m, and past about 9e307 the
# width 2 * box overflows; the separation floor 1e-2 * box is compared as a
# squared distance, which overflows past about 1e156. The benchmark's box is 2.
MAX_PROBE_BOX = 1e6
# Probe chunk: the trials whose designs are drawn and eigensolved together
# hold k * n^2 * m difference floats and k * n^2 * ell^2 block entries, at
# most this many each, or one design where one is larger. A plane-wave
# chunk, factored by an SVD instead, holds k * n ell * max(n ell, r) entries
# of its factors F (n ell x r) and of the SVD's square left factor under
# the same budget. A stacked eigensolve or SVD saves the per-call overhead
# of small designs; from about 32 rows up it is no faster than a loop.
_PROBE_CHUNK_ENTRIES = 2**13


class ShiftedPairKernel(Frozen):
    """The 2x2 shifted-gaussian kernel above; w is the shift vector."""

    __slots__ = ("w", "m", "ell", "kind")

    def __init__(self, w):
        w = np.asarray(w, dtype=float)
        if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
            raise InvalidVector("shift w must be a finite nonempty vector")
        if not np.all(np.abs(w) <= np.finfo(float).max / 2):
            raise InvalidParameter("shift w is too large: 2w must be finite")
        # the atoms sit at 0 and 2w, and gram refuses points closer than
        # DUPLICATE_POINT_TOL; |2w| is scaled by max|w| so it cannot underflow
        top = float(np.max(np.abs(w)))
        if top == 0.0:
            raise InvalidParameter("shift w must be nonzero")
        if 2.0 * top * float(np.linalg.norm(w / top)) < DUPLICATE_POINT_TOL:
            raise InvalidParameter(
                f"shift w = {w.tolist()} is too small: need |2w| >= {DUPLICATE_POINT_TOL} to separate the atoms"
            )
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "m", int(w.size))
        object.__setattr__(self, "ell", 2)
        object.__setattr__(self, "kind", "shifted_pair")

    def eval_diffs(self, diffs: np.ndarray) -> np.ndarray:
        diffs = np.asarray(diffs, dtype=float)
        n = diffs.shape[0]
        out = np.zeros((n, 2, 2), dtype=complex)
        # a squared distance that overflows is inf, and its block entry 0
        with np.errstate(over="ignore"):
            s0 = np.sum(diffs * diffs, axis=1)
            sp = np.sum((diffs + 2.0 * self.w) ** 2, axis=1)
            sm = np.sum((diffs - 2.0 * self.w) ** 2, axis=1)
        out[:, 0, 0] = np.exp(-s0)
        out[:, 1, 1] = np.exp(-s0)
        out[:, 0, 1] = np.exp(-sp)
        out[:, 1, 0] = np.exp(-sm)
        return out


@dataclass(frozen=True)
class CounterexampleResult:
    mixed_form: float
    projection_floor: float
    params: dict
    reference_form: float | None = None
    relative_form: float | None = None


def _seeded_design(kernel, n: int, rngs, box: float) -> tuple[np.ndarray, np.ndarray]:
    """Points (k, n, m) of k designs of n points in [-box, box]^m, for a
    block Gram of kernel, and their pair_diffs differences (k, n (n + 1) /
    2, m): design i is drawn from the numpy Generator rngs[i] and redrawn,
    up to 64 draws, until no two of its points are closer than the
    separation floor 1e-2 * box. The first draws of all k take one stacked
    pairwise pass, with gram's duplicate check at the floor, and a design
    that must be redrawn is redrawn alone, in design order, each redraw a
    flat pairwise pass whose points and differences replace its own. Given
    them, gram's assembler (_hermitian_gram) builds all k Grams in one pass
    (drawn points repeat no difference, so none is de-duplicated); kernel
    values depend on their own difference alone, so each Gram is gram's.

    All k designs come back, or the first design that never separates
    raises InvalidParameter, and no later design is redrawn. A caller that
    needs the first error in design order draws the designs again one at a
    time.

    The floor keeps near-coincident points from collapsing a genuinely
    strict Gram to numerical zero, which would fake a strictness violation;
    a truly degenerate kernel is singular on every design, so the floor
    costs nothing there. Below box = 1e-10 the floor is the Gram's own
    duplicate tolerance."""
    m, k = kernel.m, len(rngs)
    _check_size(n, m, kernel.ell, "block Gram")
    floor = max(1e-2 * box, DUPLICATE_POINT_TOL)
    points = np.array([rng.uniform(-box, box, size=(n, m)) for rng in rngs])
    diffs, sq = pair_diffs(points)
    for i in sorted(set(_close_pairs(sq, n, floor)[0].tolist())):
        for _ in range(63):
            points[i] = rngs[i].uniform(-box, box, size=(n, m))
            diffs[i], sq = pair_diffs(points[i])
            if not _close_pairs(sq, n, floor)[0].size:
                break
        else:
            raise InvalidParameter("could not draw a separated design; box too small for n")
    return points, diffs


def _atom_factors(measure: PlaneWaveMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The factors G_a = B_a B_a^H of a plane-wave measure's atoms, from one
    checked eigensolve of the stack: the columns sqrt(w) v of the
    eigenvalues w > 0, side by side as one (ell, r) matrix, and the atom of
    each column (r,). An eigenvalue <= 0 (the measure admits them down to
    -PSD_TOL * max(1, trace)) is dropped: each atom is read as its PSD part."""
    w, v = _eigh_checked(measure.gs)
    atom, col = np.nonzero(w > 0.0)
    return atom, (v[atom, :, col] * np.sqrt(w[atom, col])[:, None]).T


def _design_factors(xis: np.ndarray, atom: np.ndarray, b: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The factors F (k, n ell, r) with F F^H the plane-wave block Gram of
    each of k designs (k, n, m): row (i, c) holds e^{-i x_i . xi_a} B_a[c, :]
    for each atom a, so (F F^H)[(i, c), (j, d)] = sum_a e^{-i (x_i - x_j) .
    xi_a} G_a[c, d]. A phase x . xi that overflows raises NumericalFailure."""
    k, n, m = points.shape
    phases = _phases(points.reshape(k * n, m), xis, "x").reshape(k, n, 1, -1)
    return (phases[..., atom] * b).reshape(k, n * b.shape[0], b.shape[1])


def demo_counterexample_shifted_gaussian(w, seed: int = 0) -> CounterexampleResult:
    """Quadratic form of the annihilated measure (exactly 0.0 in floats) and
    the smallest scalar-projection Gram eigenvalue over a seeded design: the
    first of at most 64 designs, drawn on one stream, whose floor is above
    PROJECTION_FLOOR_TOL (else the last). params has design_redraws when
    that is not 0."""
    kernel = ShiftedPairKernel(w)
    m = kernel.m
    origin = np.zeros(m)
    shift = 2.0 * kernel.w
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    eta = VectorAtomMeasure(m, 2, points=np.stack([origin, shift]), vectors=np.stack([e1, -e2]))
    mixed = quadratic_form_detail(kernel, [eta])[0].value
    # the projections v, one per column
    vs = np.stack([e1, e2, e1 + e2, e1 + 1j * e2], axis=1)

    # every projection is strictly PD, but a drawn design can be so badly
    # conditioned that its floor drops to the tolerance
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    for redraws in range(64):
        # the shifted-pair Gram is exactly Hermitian (|-d + 2w| = |d - 2w| in
        # floats), so its blocks are the eval_diffs blocks bit for bit
        points, diffs = _seeded_design(kernel, 6, [rng], box=2.0)
        blocks = _hermitian_gram(kernel, points, diffs)[0].reshape(6, 2, 6, 2).transpose(0, 2, 1, 3).reshape(36, 2, 2)
        # the (4, 6, 6) stack of projection Grams v^H (b v): the entries of v
        # are 0, +-1 and +-i, so every product is exact and every two-term sum
        # rounds alike in any order, and the bits are np.vdot(v, b @ v)'s;
        # the blocks are finite exponentials at most 1, so the sums are too
        g = hermitian_part((np.conj(vs) * (blocks @ vs)).sum(axis=1).T.reshape(4, 6, 6))
        floor = float(psd_margin(g)[0].min())
        if floor > PROJECTION_FLOOR_TOL:
            break
    params = {"w": [float(c) for c in kernel.w], "seed": int(seed), "design_n": 6}
    if redraws:
        params["design_redraws"] = redraws
    return CounterexampleResult(mixed_form=mixed, projection_floor=float(floor), params=params)


def _bump(x: np.ndarray) -> np.ndarray:
    """exp(-1/(1-x^2)) on |x|<1, 0 outside."""
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


def _cosine_transforms(x: np.ndarray, xis: np.ndarray, f: np.ndarray, g: np.ndarray):
    """The real sums f @ C and g @ C over the table C[i, k] = cos(x_i xi_k),
    for weighted bumps f and g that vanish outside |x| < 1. The rows of C
    outside stay zero, so each GEMV keeps the full table's shape and its
    bits; the rows inside (one run, as x is sorted) are written in place,
    and the table is freed on return."""
    cosines = np.zeros((x.size, xis.size))
    inside = np.flatnonzero(np.abs(x) < 1.0)
    if inside.size:
        rows = cosines[inside[0] : inside[-1] + 1]
        np.cos(np.multiply.outer(x[inside[0] : inside[-1] + 1], xis, out=rows), out=rows)
    return f @ cosines, g @ cosines


def demo_counterexample_radial_bump(
    grid_n: int = 512, box: float = 4.0, m: int = 1
) -> CounterexampleResult:
    """Discrete rank-one frequency construction on the line (m = 1).

    Builds a plane-wave mixture kernel whose 2x2 frequency weights are
    outer((b, -a)) with a, b the discrete cosine transforms of the two bumps
    phi1, phi2(x) = phi1(2x); the companion vector measure with atom vectors
    (phi1(x_i), phi2(x_i)) * dx_i is annihilated frequency-by-frequency, so
    the mixed form vanishes to roundoff while the phi1-only measure keeps a
    strictly positive form (the reference). One dimension already exhibits
    the phenomenon; higher m is not implemented."""
    if int(m) != 1:
        raise InvalidParameter("the bump construction is implemented for m = 1 only")
    grid_n = int(grid_n)
    if grid_n < 128:
        raise InvalidGrid("need grid_n >= 128 for a usable discretization")
    if grid_n > MAX_BUMP_GRID_N:
        raise InvalidGrid(f"need grid_n <= {MAX_BUMP_GRID_N}")
    box = float(box)
    if not box > 1.0:
        raise InvalidGrid("need box > 1 so the bumps are fully supported")
    if not box <= MAX_BUMP_BOX:
        raise InvalidGrid(f"need a finite box <= {MAX_BUMP_BOX:g}")

    x = np.linspace(-box, box, grid_n)
    dx = x[1] - x[0]
    wts = np.full(grid_n, dx)
    wts[0] = wts[-1] = dx / 2.0

    phi1 = _bump(x)
    phi2 = _bump(2.0 * x)
    # the atoms are the grid points where phi1 > 0 (phi2 vanishes wherever phi1 does)
    atoms = int(np.count_nonzero(phi1))
    if atoms > MAX_BUMP_ATOMS:
        raise InvalidGrid(
            f"grid_n = {grid_n} over box = {box!r} puts {atoms} grid points in the bumps' support; "
            f"need <= {MAX_BUMP_ATOMS}"
        )

    xi_max = 32.0
    xis = np.linspace(-xi_max, xi_max, grid_n)
    dxi = xis[1] - xis[0]
    xiw = np.full(grid_n, dxi)
    xiw[0] = xiw[-1] = dxi / 2.0

    a, b = _cosine_transforms(x, xis, phi1 * wts, phi2 * wts)
    u = np.stack([b, -a], axis=1)
    gs = xiw[:, None, None] * (u[:, :, None] * u[:, None, :])
    kernel = plane_wave_kernel(PlaneWaveMeasure(2, 1, xis=xis[:, None], gs=gs))

    points = x[:, None]
    mixed_vectors = np.stack([phi1 * wts, phi2 * wts], axis=1).astype(complex)
    ref_vectors = np.stack([phi1 * wts, np.zeros(grid_n)], axis=1).astype(complex)
    eta = VectorAtomMeasure(1, 2, points=points, vectors=mixed_vectors)
    eta_ref = VectorAtomMeasure(1, 2, points=points, vectors=ref_vectors)

    # both measures have the grid points with |x| < 1 as atoms, so one call
    # builds the Gram and the pairing blocks once for the two forms
    mixed_detail, ref_detail = quadratic_form_detail(kernel, [eta, eta_ref])
    mixed, reference = mixed_detail.value, ref_detail.value
    relative = abs(mixed) / reference if reference > 0.0 else math.inf
    if not math.isfinite(relative):
        raise InvalidGrid(
            f"need a grid that resolves the bumps: grid_n = {grid_n} over box = {box!r} "
            f"gives the reference form {reference!r}, against which no relative form exists"
        )
    return CounterexampleResult(
        mixed_form=mixed,
        projection_floor=reference,
        reference_form=reference,
        relative_form=relative,
        params={
            "grid_n": grid_n,
            "box": box,
            "xi_max": xi_max,
            "reference_scale": ref_detail.scale,
        },
    )


# ----------------------------------------------------------------------
# random-design probe and exact-vs-probe consistency
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeViolation:
    trial: int
    points: np.ndarray
    min_eigenvalue: float
    witness: np.ndarray


@dataclass(frozen=True)
class ProbeReport:
    verdict: str  # "NoViolationFound" | "ViolationFound"
    trials: int
    n: int
    box: float
    seed: int
    tol: float
    min_eigenvalues: tuple[float, ...]
    global_min: float
    violation: ProbeViolation | None = None


def probe_strict_pd(
    kernel,
    n: int = 4,
    trials: int = 20,
    seed: int = 0,
    box: float = 2.0,
    tol: float = PROBE_TOL,
) -> ProbeReport:
    """Draw seeded random designs and eigen-check each block Gram.

    A trial violates when min eig <= tol * max(1, trace). Each trial
    derives its own generator from SeedSequence([seed, trial]), so results
    are deterministic in (seed, trial). The trials run in chunks of at most
    _PROBE_CHUNK_ENTRIES difference floats and block entries, one
    _seeded_design call per chunk (redrawn designs included). A radial or
    shifted-pair chunk takes one assembly pass, every kernel value the one
    gram gives on the trial's design alone, and one checked eigensolve. A
    plane-wave chunk takes one checked SVD of its designs' factors F
    (_design_factors, from the atoms' factors computed once per probe) in
    hermitian.factor_margin: min eig is exactly 0.0 where F has more rows
    n * ell than columns r, else sigma_min(F)^2. A chunk that raises is
    drawn again one trial at a time, and so is every later trial, so the
    error raised is the first failing trial's own."""
    n, trials, seed = int(n), int(trials), int(seed)
    if not 2 <= n <= MAX_PROBE_N or trials < 1:
        raise InvalidParameter(f"need 2 <= n <= {MAX_PROBE_N} points and trials >= 1")
    if trials > MAX_PROBE_TRIALS:
        raise InvalidParameter(f"need trials <= {MAX_PROBE_TRIALS}")
    if kernel.m > MAX_PROBE_DIM:
        raise InvalidParameter(f"need ambient dimension <= {MAX_PROBE_DIM} for a probe design")
    if not (math.isfinite(box) and box > 0.0):
        raise InvalidParameter("box must be finite and > 0")
    if box > MAX_PROBE_BOX:
        raise InvalidParameter(f"need box <= {MAX_PROBE_BOX:g}")
    plane_wave = getattr(kernel, "kind", None) == "plane_wave"
    factors = _atom_factors(kernel.measure) if plane_wave else None
    r = factors[1].shape[1] if plane_wave else 0
    mins, violation = [], None
    per = max(1, _PROBE_CHUNK_ENTRIES // (n * max(n * kernel.m, n * kernel.ell**2, kernel.ell * r)))
    while len(mins) < trials:
        t = len(mins)
        rngs = [np.random.default_rng(np.random.SeedSequence([seed, s])) for s in range(t, min(t + per, trials))]
        try:
            points, diffs = _seeded_design(kernel, n, rngs, box)
            if plane_wave:
                design = _design_factors(kernel.measure.xis, *factors, points)
            else:
                design = _hermitian_gram(kernel, points, diffs)
            del diffs  # freed before the eigensolve or SVD
            lo, scale, vecs = (factor_margin if plane_wave else psd_margin)(design)
        except OpKernelError:
            if len(rngs) == 1:
                raise
            # one trial per chunk from here on, so the first failing trial raises its own error
            per = 1
            continue
        mins += lo.tolist()
        hit = np.flatnonzero(lo <= tol * scale)
        if violation is None and hit.size:
            i = hit[0]
            violation = ProbeViolation(
                trial=t + int(i), points=points[i].copy(), min_eigenvalue=float(lo[i]), witness=vecs[i].copy()
            )
        del points, design, vecs  # freed before the next chunk is drawn
    return ProbeReport(
        verdict="ViolationFound" if violation is not None else "NoViolationFound",
        trials=trials,
        n=n,
        box=box,
        seed=seed,
        tol=tol,
        min_eigenvalues=tuple(mins),
        global_min=float(min(mins)),
        violation=violation,
    )


def witness_design_mineig(kernel: OperatorKernel):
    """Smallest Gram eigenvalue on the canonical two-point design {0, e1}.

    For a kernel whose positive-frequency mass misses the witness direction,
    this eigenvalue sits at numerical zero (<= 1e-9 * scale)."""
    pts = np.zeros((2, kernel.m))
    pts[1, 0] = 1.0
    return psd_margin(gram(kernel, pts).matrix)[:2]


@dataclass(frozen=True)
class ClassificationReport:
    classification: RadialClassification
    probe: ProbeReport
    consistent: bool
    jet_order: int
    witness_design: tuple[float, float] | None = None  # (min eig, scale)
    notes: tuple[str, ...] = field(default=())


def classify_and_report(
    measure: OperatorMeasure,
    profile: RadialProfile,
    m: int,
    n: int = 4,
    trials: int = 20,
    seed: int = 0,
    box: float = 2.0,
    tol: float = PSD_TOL,
    probe_tol: float = PROBE_TOL,
) -> ClassificationReport:
    """Exact classification plus a probe, with the consistency contract:
    a Strict verdict must survive every probe trial, a NotStrict verdict
    must be corroborated by a concrete degenerate design. Disagreement is
    reported (consistent=False), never silently dropped."""
    m = int(m)
    if profile.kind == "askey" and m > 2 * profile.ell_smoothness - 3:
        raise InvalidParameter(
            f"askey family with ell={profile.ell_smoothness} supports dimensions "
            f"m <= {2 * profile.ell_smoothness - 3} only"
        )
    cls = classify_radial(measure, profile, tol=tol)
    kernel = radial_kernel(profile, measure, m)
    probe = probe_strict_pd(kernel, n=n, trials=trials, seed=seed, box=box, tol=probe_tol)

    notes: list[str] = []
    witness_design = None
    if cls.verdict == VERDICT_STRICT:
        consistent = probe.verdict == "NoViolationFound"
        if not consistent:
            notes.append(
                "exact classification says strictly PD but a probe design "
                f"degenerated at trial {probe.violation.trial}"
            )
    else:
        # a degenerate kernel is singular on EVERY design (the eigensolver
        # finds the bad direction itself), so the probe must corroborate too
        witness_design = witness_design_mineig(kernel)
        corroborated = witness_design[0] <= WITNESS_DESIGN_TOL * witness_design[1]
        consistent = corroborated and probe.verdict == "ViolationFound"
        if not corroborated:
            notes.append(
                "exact classification says not strictly PD but the witness "
                "design did not degenerate"
            )
        if probe.verdict == "NoViolationFound":
            notes.append(
                "exact classification says not strictly PD but no probe "
                "design degenerated"
            )
    if profile.kind == "askey":
        jet_order = (profile.ell_smoothness - 2) // 2
    else:
        jet_order = 8
    if profile.kind == "omega" and m < profile.m_source:
        notes.append(
            f"omega({profile.m_source}) restricted to dimension {m}: strictness "
            "and smooth-function approximation hold, but decay at infinity "
            "(c0 membership) is not implied"
        )
    return ClassificationReport(
        classification=cls,
        probe=probe,
        consistent=consistent,
        jet_order=jet_order,
        witness_design=witness_design,
        notes=tuple(notes),
    )
