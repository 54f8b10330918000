"""Counterexample demos, the random-design probe, and verdict consistency."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opkernel import certify, cli, kernel as kernel_module
from opkernel.certify import (
    MAX_BUMP_ATOMS,
    MAX_PROBE_N,
    PROJECTION_FLOOR_TOL,
    ClassificationReport,
    ShiftedPairKernel,
    _seeded_design,
    classify_and_report,
    demo_counterexample_radial_bump,
    demo_counterexample_shifted_gaussian,
    probe_strict_pd,
    witness_design_mineig,
)
from opkernel.errors import InvalidGrid, InvalidParameter
from opkernel.hermitian import HermitianMatrix, eigen_hermitian, psd_margin
from opkernel.kernel import PlaneWaveMeasure, gram, kernel_eval, pair_diffs, radial_kernel
from opkernel.measures import VERDICT_NOT_STRICT, VERDICT_STRICT, OperatorMeasure
from opkernel.profiles import RadialProfile


# ---------------------------------------------------------------- seeded designs


def _seeded_design_loop(m, n, seed_parts, box):
    """The sampler as it was before its separation check was vectorized;
    None where it refused."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_parts)))
    min_dist = 1e-2 * box
    for _ in range(64):
        pts = rng.uniform(-box, box, size=(n, m))
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if float(np.linalg.norm(pts[i] - pts[j])) < min_dist:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return pts
    return None


@given(
    m=st.integers(1, 3),
    n=st.integers(2, 40),
    box=st.sampled_from([0.05, 0.5, 2.0, 4.0]),
    seed=st.integers(0, 2**31 - 1),
    trial=st.integers(0, 40),
)
@example(m=1, n=40, box=2.0, seed=0, trial=0)  # refused, as in the strictness workload
@settings(max_examples=40, deadline=None)
def test_seeded_design_matches_pairwise_loop(m, n, box, seed, trial):
    expected = _seeded_design_loop(m, n, (seed, trial), box)
    kernel = _scalar_gaussian(m)
    if expected is None:
        with pytest.raises(InvalidParameter, match="could not draw a separated design"):
            _seeded_design(kernel, n, (seed, trial), box)
    else:
        g = _seeded_design(kernel, n, (seed, trial), box)
        assert np.array_equal(g.points, expected)
        assert np.array_equal(g.matrix.entries, gram(kernel, expected).matrix.entries)


def test_seeded_design_refuses_crowded_line():
    assert _seeded_design_loop(1, 40, (0, 0), 2.0) is None
    with pytest.raises(InvalidParameter):
        _seeded_design(_scalar_gaussian(1), 40, (0, 0), 2.0)


def _scalar_gaussian(m):
    return radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.eye(1))]), m)


def test_seeded_design_floor_never_drops_below_the_duplicate_tolerance():
    """Below box = 1e-10 the separation floor is the Gram's duplicate
    tolerance, so points that gram would call coincident are redrawn."""
    with pytest.raises(InvalidParameter, match="could not draw a separated design"):
        _seeded_design(_scalar_gaussian(1), 2, (0, 0), 1e-13)


def test_probe_takes_one_pairwise_pass_per_accepted_design(monkeypatch):
    """Each design accepted at its first draw costs one pair_diffs call."""
    n, trials, box = 3, 6, 2.0
    for t in range(trials):  # every trial's first draw is separated
        rng = np.random.default_rng(np.random.SeedSequence([0, t]))
        pts = rng.uniform(-box, box, size=(n, 2))
        assert min(np.linalg.norm(pts[i] - pts[j]) for i in range(n) for j in range(i)) >= 1e-2 * box
    calls = []

    def counted(points):
        calls.append(points.shape)
        return pair_diffs(points)

    for module in (kernel_module, certify):  # wherever the pass is reachable
        if getattr(module, "pair_diffs", None) is pair_diffs:
            monkeypatch.setattr(module, "pair_diffs", counted)
    probe_strict_pd(STRICT_K, n=n, trials=trials, seed=0, box=box)
    assert calls == [(n, 2)] * trials


def test_probe_keeps_the_first_violation():
    rep = probe_strict_pd(DEGENERATE_K, n=4, trials=5, seed=3)
    assert rep.violation.trial == 0 and len(rep.min_eigenvalues) == 5
    g = _seeded_design(DEGENERATE_K, 4, (3, 0), 2.0)
    assert np.array_equal(rep.violation.points, g.points)
    assert rep.violation.min_eigenvalue == rep.min_eigenvalues[0]


@given(
    w=st.lists(st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3), min_size=1, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_shifted_pair_gram_blocks_are_the_eval_diffs_blocks(w, seed):
    """The shifted-pair Gram is exactly Hermitian, so symmetrizing it keeps
    every block bitwise equal to eval_diffs at the design's differences."""
    kernel = ShiftedPairKernel(w)
    g = _seeded_design(kernel, 6, (seed, 0), 2.0)
    blocks = g.matrix.entries.reshape(6, 2, 6, 2).transpose(0, 2, 1, 3).reshape(36, 2, 2)
    assert np.array_equal(blocks, kernel.eval_diffs(pair_diffs(g.points)[0]))


# ---------------------------------------------------------------- shifted pair


def test_shifted_pair_kernel_shape():
    k = ShiftedPairKernel([1.0])
    assert k.m == 1 and k.ell == 2
    v = kernel_eval(k, np.array([0.5]), np.array([0.5]))
    assert np.allclose(np.diag(v), [1.0, 1.0])


def test_shifted_demo_mixed_form_is_exactly_zero():
    res = demo_counterexample_shifted_gaussian([1.0], seed=0)
    assert res.mixed_form == 0.0


def test_shifted_demo_projections_stay_positive():
    res = demo_counterexample_shifted_gaussian([1.0], seed=0)
    assert res.projection_floor > 1e-8
    # frozen regression value (seed 0, w = 1, 6-point design)
    assert res.projection_floor == pytest.approx(0.006131850414850248, rel=1e-12)


def test_shifted_demo_other_seeds_and_widths():
    for seed in (1, 7):
        for w in ([0.5], [2.0]):
            res = demo_counterexample_shifted_gaussian(w, seed=seed)
            assert res.mixed_form == 0.0
            assert res.projection_floor > 1e-8


def test_shifted_demo_vector_shift():
    res = demo_counterexample_shifted_gaussian([0.5, -0.25], seed=0)
    assert res.mixed_form == 0.0
    assert res.projection_floor == pytest.approx(0.5210693475175021, rel=1e-12)


def test_shifted_gram_has_exact_null_direction():
    """On {0, 2w} the 4x4 block Gram annihilates (e1, -e2)/sqrt(2)."""
    k = ShiftedPairKernel([1.0])
    dec = eigen_hermitian(gram(k, np.array([[0.0], [2.0]])).matrix)
    assert abs(dec.eigenvalues[0]) <= 1e-12
    target = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
    overlap = abs(np.vdot(dec.eigenvectors[:, 0], target))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_shifted_demo_reports_no_redraw_when_the_first_design_clears():
    for w, seed in (([1.0], 0), ([0.5], 1), ([2.0], 7), ([0.5, -0.25], 0)):
        assert "design_redraws" not in demo_counterexample_shifted_gaussian(w, seed=seed).params


def test_shifted_demo_redraws_a_design_at_the_floor(monkeypatch):
    """The first design of this seed is so badly conditioned that its
    projection floor, 8.64e-9, is under the tolerance although every
    projection is strictly PD; the demo once reported "not reproduced"
    here. It now redraws once, on the same stream."""
    w, seed = [0.4067], 1164430487
    res = demo_counterexample_shifted_gaussian(w, seed=seed)
    assert res.mixed_form == 0.0 and res.projection_floor > PROJECTION_FLOOR_TOL
    assert res.params["design_redraws"] == 1

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    expected = [_seeded_design(ShiftedPairKernel(w), 6, rng, 2.0).points for _ in range(2)]
    drawn = []

    def recorded(*args, **kwargs):
        g = _seeded_design(*args, **kwargs)
        drawn.append(g.points)
        return g

    monkeypatch.setattr(certify, "_seeded_design", recorded)
    assert demo_counterexample_shifted_gaussian(w, seed=seed) == res
    assert len(drawn) == 2 and all(np.array_equal(d, e) for d, e in zip(drawn, expected))

    monkeypatch.setattr(certify, "PROJECTION_FLOOR_TOL", 0.0)  # the first design clears
    first = demo_counterexample_shifted_gaussian(w, seed=seed)
    assert "design_redraws" not in first.params
    assert first.projection_floor <= PROJECTION_FLOOR_TOL
    assert first.projection_floor == pytest.approx(8.637339446840337e-09, rel=1e-6)


def test_shifted_demo_gives_up_after_64_designs(monkeypatch, tmp_path):
    """A kernel whose designs never clear the floor keeps its negative
    verdict (exit 3) after 63 redraws."""
    monkeypatch.setattr(certify, "PROJECTION_FLOOR_TOL", 1.0)
    monkeypatch.setattr(cli, "PROJECTION_FLOOR_TOL", 1.0)
    res = demo_counterexample_shifted_gaussian([1.0], seed=0)
    assert res.params["design_redraws"] == 63 and res.projection_floor <= 1.0
    out = tmp_path / "out.json"
    assert cli.main(["demo", "shifted-gaussian", "--w", "1", "--output", str(out), "--no-timestamp"]) == 3
    assert json.loads(out.read_text())["result"]["params"]["design_redraws"] == 63


def _projection_floor_loop(w, seed, floor_tol):
    """(projection_floor, design_redraws) as the demo found them with one
    np.vdot per block and one checked eigensolve per projection Gram."""
    kernel = ShiftedPairKernel(w)
    e1, e2 = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    for redraws in range(64):
        floor = np.inf
        design = _seeded_design(kernel, 6, rng, box=2.0)
        blocks = design.matrix.entries.reshape(6, 2, 6, 2).transpose(0, 2, 1, 3).reshape(36, 2, 2)
        for v in (e1, e2, e1 + e2, e1 + 1j * e2):
            g = np.array([complex(np.vdot(v, b @ v)) for b in blocks]).reshape(6, 6)
            floor = min(floor, eigen_hermitian(HermitianMatrix(g)).eigenvalues[0])
        if floor > floor_tol:
            break
    return float(floor), redraws


@given(
    w=st.lists(st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3), min_size=1, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
@example(w=[0.4067], seed=1164430487)
@example(w=[-0.3], seed=42)  # summing v^H b v in another order changes this floor
@example(w=[0.5, -0.25], seed=0)
@example(w=[0.2, -0.4, 0.9], seed=5)
@settings(max_examples=60, deadline=None)
def test_projection_floor_is_the_per_vector_loop_bit_for_bit(w, seed):
    """One stacked eigensolve over the four projection Grams gives the floor
    and redraw count of the per-block, per-projection loop, bit for bit;
    seed 1164430487 redraws once."""
    res = demo_counterexample_shifted_gaussian(w, seed=seed)
    floor, redraws = _projection_floor_loop(w, seed, PROJECTION_FLOOR_TOL)
    assert res.projection_floor.hex() == floor.hex()
    assert res.params.get("design_redraws", 0) == redraws


def test_projection_floor_loop_agrees_after_63_redraws(monkeypatch):
    monkeypatch.setattr(certify, "PROJECTION_FLOOR_TOL", 1.0)
    res = demo_counterexample_shifted_gaussian([1.0], seed=0)
    floor, redraws = _projection_floor_loop([1.0], 0, 1.0)
    assert res.projection_floor.hex() == floor.hex() and res.params["design_redraws"] == redraws == 63


@pytest.mark.parametrize("w", ["1e308", "-1e308", "0.5,8.98846567431158e307"])
def test_shifted_demo_refuses_a_shift_whose_double_overflows(tmp_path, capsys, w):
    """2w must be finite; --w 1e308 once printed two RuntimeWarnings and
    exited 2 blaming an atom point the user never gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["demo", "shifted-gaussian", f"--w={w}", "--output", str(tmp_path / "out.json")])
    assert code == 2 and not caught and not (tmp_path / "out.json").exists()
    assert capsys.readouterr().err == "error: shift w is too large: 2w must be finite\n"


@pytest.mark.parametrize("w, message", [
    ("1e-200", "shift w = [1e-200] is too small: need |2w| >= 1e-12 to separate the atoms"),
    ("1e-200,0", "shift w = [1e-200, 0.0] is too small: need |2w| >= 1e-12 to separate the atoms"),
    ("1e-13", "shift w = [1e-13] is too small: need |2w| >= 1e-12 to separate the atoms"),
    ("0", "shift w must be nonzero"),
    ("-0.0,0", "shift w must be nonzero"),
])
def test_shifted_demo_refuses_a_shift_too_small_to_separate_the_atoms(tmp_path, capsys, w, message):
    """The atoms sit at 0 and 2w. A shift of 1e-200 (whose norm underflows)
    was once called zero, and one of 1e-13 was refused as two coincident
    points the user never gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["demo", "shifted-gaussian", f"--w={w}", "--output", str(tmp_path / "out.json")])
    assert code == 2 and not caught and not (tmp_path / "out.json").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_shifted_demo_at_the_smallest_shift_runs():
    """|2w| = 1e-12 is the duplicate tolerance itself, which gram accepts;
    one ulp less is refused."""
    res = demo_counterexample_shifted_gaussian([5e-13], seed=0)
    assert res.mixed_form == 0.0 and res.params["w"] == [5e-13]
    with pytest.raises(InvalidParameter, match="too small"):
        ShiftedPairKernel([math.nextafter(5e-13, 0.0)])


def test_shifted_demo_at_the_largest_shift_runs_without_warnings():
    """Past |w| of about 1e154 the squared distances overflow to inf and their
    block entries are 0; the demo still reproduces, with no warning."""
    for w in ([np.finfo(float).max / 2], [1e200], [-3e300, 1.0]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = demo_counterexample_shifted_gaussian(w, seed=0)
        assert not caught and res.mixed_form == 0.0 and res.projection_floor > PROJECTION_FLOOR_TOL
    with pytest.raises(InvalidParameter, match="2w must be finite"):
        ShiftedPairKernel([math.nextafter(np.finfo(float).max / 2, math.inf)])


# ---------------------------------------------------------------- radial bump


def test_bump_demo_cancellation():
    res = demo_counterexample_radial_bump(grid_n=512, box=4.0)
    assert res.relative_form <= 1e-12
    assert res.reference_form > 1e-4 * res.params["reference_scale"]


def test_bump_demo_is_deterministic():
    a = demo_counterexample_radial_bump(grid_n=256, box=4.0)
    b = demo_counterexample_radial_bump(grid_n=256, box=4.0)
    assert a.mixed_form == b.mixed_form
    assert a.reference_form == b.reference_form


def test_bump_demo_rejects_higher_dimension():
    with pytest.raises(InvalidParameter):
        demo_counterexample_radial_bump(m=2)


def test_bump_demo_rejects_coarse_grid():
    with pytest.raises(InvalidGrid):
        demo_counterexample_radial_bump(grid_n=64)


def test_bump_demo_rejects_small_box():
    with pytest.raises(InvalidGrid):
        demo_counterexample_radial_bump(box=0.5)


class _FormReached(Exception):
    pass


@pytest.mark.parametrize("grid_n, box, atoms", [(2048, 1.998, MAX_BUMP_ATOMS), (1024, 1.5, 682), (2048, 2.2, 930)])
def test_bump_grid_up_to_the_atom_cap_reaches_the_forms(monkeypatch, grid_n, box, atoms):
    """The cap itself and the largest grids in use are accepted. The cap
    counts the grid points where phi1 > 0, a bound on the atoms (a vector
    whose square underflows is dropped)."""

    def reached(kernel, etas):
        raise _FormReached

    assert np.count_nonzero(certify._bump(np.linspace(-box, box, grid_n))) == atoms
    monkeypatch.setattr(certify, "quadratic_form_detail", reached)
    with pytest.raises(_FormReached):
        demo_counterexample_radial_bump(grid_n=grid_n, box=box)


@pytest.mark.parametrize("grid_n, box, atoms", [(2049, 1.996, MAX_BUMP_ATOMS + 1), (8192, 1.2, 6822)])
def test_bump_grid_past_the_atom_cap_is_refused_before_allocation(grid_n, box, atoms):
    """One atom past the cap is refused before any grid_n^2 or atoms^2
    array: grid 8192 at box 1.2 once died allocating 2 GiB."""
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGrid, match=f"puts {atoms} grid points in the bumps' support; need <= {MAX_BUMP_ATOMS}"):
            demo_counterexample_radial_bump(grid_n=grid_n, box=box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("grid_n, box", [(128, 1.01), (257, 1.5), (640, 2.2), (1001, 7.0)])
def test_bump_weights_match_the_full_cosine_table(monkeypatch, grid_n, box):
    """The cosine table is filled on the rows |x| < 1 only; the bumps vanish
    elsewhere, so the frequency weights are those of the full table, bit for
    bit."""
    measures = []
    real = certify.plane_wave_kernel
    monkeypatch.setattr(certify, "plane_wave_kernel", lambda measure: measures.append(measure) or real(measure))
    demo_counterexample_radial_bump(grid_n=grid_n, box=box)
    x = np.linspace(-box, box, grid_n)
    wts = np.full(grid_n, x[1] - x[0])
    wts[0] = wts[-1] = wts[0] / 2.0
    xis = np.linspace(-32.0, 32.0, grid_n)
    xiw = np.full(grid_n, xis[1] - xis[0])
    xiw[0] = xiw[-1] = xiw[0] / 2.0
    cosines = np.cos(np.outer(x, xis))
    u = np.stack([(certify._bump(2.0 * x) * wts) @ cosines, -((certify._bump(x) * wts) @ cosines)], axis=1)
    expected = PlaneWaveMeasure(2, 1, xis=xis[:, None], gs=xiw[:, None, None] * (u[:, :, None] * u[:, None, :]))
    assert np.array_equal(measures[0].xis, expected.xis) and np.array_equal(measures[0].gs, expected.gs)


def test_bump_demo_working_set_is_bounded_by_the_gram():
    """The grid-2048 demo of the benchmark (366 atoms, a 732-row Gram):
    the 32 MiB cosine table is freed before the Gram is built, and the
    phases are formed a block of rows or frequencies at a time. Its peak
    was 80.8 MiB when the table and two (rows x atoms) phase tables of
    22.6 MiB each were live together."""
    tracemalloc.start()
    try:
        demo_counterexample_radial_bump(grid_n=2048, box=5.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


# ---------------------------------------------------------------- probe


STRICT_K = radial_kernel(
    RadialProfile.gaussian(), OperatorMeasure(2, [(1.0, np.eye(2))]), 2
)
DEGENERATE_K = radial_kernel(
    RadialProfile.gaussian(),
    OperatorMeasure(2, [(1.0, np.diag([1.0, 0.0]))]),
    2,
)


def test_probe_strict_kernel_clean():
    rep = probe_strict_pd(STRICT_K, n=4, trials=20, seed=0)
    assert rep.verdict == "NoViolationFound"
    assert rep.violation is None
    assert rep.global_min > 0.0
    assert len(rep.min_eigenvalues) == 20


def test_probe_degenerate_kernel_flags_first_trial():
    rep = probe_strict_pd(DEGENERATE_K, n=4, trials=20, seed=0)
    assert rep.verdict == "ViolationFound"
    assert rep.violation.trial == 0


def test_probe_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        probe_strict_pd(STRICT_K, n=1)
    with pytest.raises(InvalidParameter):
        probe_strict_pd(STRICT_K, trials=0)


class _DesignDrawn(Exception):
    pass


def _no_design(*args, **kwargs):
    raise _DesignDrawn


@pytest.mark.parametrize("run", [
    lambda n: probe_strict_pd(STRICT_K, n=n),
    lambda n: classify_and_report(STRICT_K.measure, RadialProfile.gaussian(), 2, n=n),
])
def test_probe_design_size_cap(monkeypatch, run):
    """n = MAX_PROBE_N reaches the design draw; one more is refused first."""
    monkeypatch.setattr(certify, "_seeded_design", _no_design)
    with pytest.raises(_DesignDrawn):
        run(MAX_PROBE_N)
    with pytest.raises(InvalidParameter, match=f"need 2 <= n <= {MAX_PROBE_N} points"):
        run(MAX_PROBE_N + 1)


@pytest.mark.parametrize("box", [float("nan"), float("inf"), -1.0, 0.0])
def test_probe_rejects_bad_box(box):
    with pytest.raises(InvalidParameter, match="box must be finite and > 0"):
        probe_strict_pd(STRICT_K, box=box)


def test_probe_design_separation_floor():
    rep = probe_strict_pd(STRICT_K, n=4, trials=5, seed=0, box=2.0)
    assert rep.verdict == "NoViolationFound"
    # every returned min eigenvalue comes from a separated design
    assert all(v > 0 for v in rep.min_eigenvalues)


# ---------------------------------------------------------------- witness design


def test_witness_design_degenerates_for_rank_deficient_total():
    lo, scale = witness_design_mineig(DEGENERATE_K)
    assert lo <= 1e-9 * scale


def test_witness_design_positive_for_strict():
    lo, scale = witness_design_mineig(STRICT_K)
    assert lo > 1e-6


# ---------------------------------------------------------------- classify_and_report


def test_classify_strict_consistent():
    mu = OperatorMeasure(2, [(1.0, np.eye(2))])
    rep = classify_and_report(mu, RadialProfile.gaussian(), m=2)
    assert isinstance(rep, ClassificationReport)
    assert rep.classification.verdict == VERDICT_STRICT
    assert rep.probe.verdict == "NoViolationFound"
    assert rep.consistent
    assert rep.witness_design is None
    assert rep.jet_order == 8


def test_classify_degenerate_consistent():
    mu = OperatorMeasure(2, [(1.0, np.diag([1.0, 0.0]))])
    rep = classify_and_report(mu, RadialProfile.gaussian(), m=2)
    assert rep.classification.verdict == VERDICT_NOT_STRICT
    assert rep.probe.verdict == "ViolationFound"
    assert rep.consistent
    lo, scale = rep.witness_design
    assert lo <= 1e-9 * scale


def test_classify_askey_dimension_bound():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]]))])
    with pytest.raises(InvalidParameter) as exc_info:
        classify_and_report(mu, RadialProfile.askey(3), m=4)
    assert "m <= 3" in str(exc_info.value)


def test_classify_askey_jet_order():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]]))])
    rep = classify_and_report(mu, RadialProfile.askey(4), m=3)
    assert rep.jet_order == 1
    assert rep.consistent


def test_classify_omega_restricted_dimension_note():
    mu = OperatorMeasure(1, [(1.0, np.array([[1.0]]))])
    rep = classify_and_report(mu, RadialProfile.omega(5), m=2)
    assert rep.consistent
    assert any("c0" in note for note in rep.notes)


def test_classify_pure_origin_mass():
    mu = OperatorMeasure(2, [(0.0, np.eye(2))])
    rep = classify_and_report(mu, RadialProfile.gaussian(), m=1)
    assert rep.classification.verdict == VERDICT_NOT_STRICT
    assert rep.consistent


# ---------------------------------------------------------------- gram floor for demos


def test_shifted_kernel_diag_blocks_are_gaussian():
    """The two diagonal entries of the pair kernel match a scalar gaussian."""
    k = ShiftedPairKernel([1.0])
    ref = radial_kernel(
        RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.array([[1.0]]))]), 1
    )
    for d in (0.0, 0.5, 1.7):
        v = kernel_eval(k, np.array([d]), np.array([0.0]))
        r = kernel_eval(ref, np.array([d]), np.array([0.0]))[0, 0]
        assert v[0, 0] == pytest.approx(r, abs=1e-15)
        assert v[1, 1] == pytest.approx(r, abs=1e-15)


def test_shifted_kernel_gram_is_psd():
    k = ShiftedPairKernel([1.0])
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, size=(5, 1))
    g = gram(k, pts)
    lam, scale, _ = psd_margin(g.matrix)
    assert lam >= -1e-12 * scale
