"""Counterexample demos, the random-design probe, and verdict consistency."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from opkernel import certify, cli, kernel as kernel_module
from opkernel.certify import (
    MAX_BUMP_ATOMS,
    MAX_PROBE_N,
    PROBE_TOL,
    PROJECTION_FLOOR_TOL,
    ClassificationReport,
    ProbeReport,
    ProbeViolation,
    ShiftedPairKernel,
    _seeded_design,
    classify_and_report,
    demo_counterexample_radial_bump,
    demo_counterexample_shifted_gaussian,
    probe_strict_pd,
    witness_design_mineig,
)
from opkernel.errors import DuplicatePoints, InvalidGrid, InvalidMatrix, InvalidParameter, NumericalFailure, OpKernelError
from opkernel.hermitian import HermitianMatrix, eigen_hermitian, factor_margin, psd_margin
from opkernel.kernel import (
    DUPLICATE_POINT_TOL,
    PlaneWaveMeasure,
    _check_points,
    _hermitian_gram,
    gram,
    kernel_eval,
    pair_diffs,
    plane_wave_kernel,
    radial_kernel,
)
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


def _rngs(seed, trials):
    return [np.random.default_rng(np.random.SeedSequence([seed, t])) for t in trials]


def _one_design(kernel, n, seed_parts, box):
    """Points and Gram of the one design drawn from SeedSequence(seed_parts)."""
    points, diffs = _seeded_design(kernel, n, [np.random.default_rng(np.random.SeedSequence(list(seed_parts)))], box)
    return points[0], _hermitian_gram(kernel, points, diffs)[0]


@given(
    m=st.integers(1, 3),
    n=st.integers(2, 40),
    box=st.sampled_from([0.05, 0.5, 2.0, 4.0]),
    seed=st.integers(0, 2**31 - 1),
    trial=st.integers(0, 40),
    k=st.integers(1, 6),
)
@example(m=1, n=40, box=2.0, seed=0, trial=0, k=1)  # refused, as in the strictness workload
@example(m=1, n=30, box=2.0, seed=0, trial=0, k=6)  # a refused design after separated ones
@settings(max_examples=40, deadline=None)
def test_seeded_design_matches_pairwise_loop(m, n, box, seed, trial, k):
    """A stack of k designs, one generator each, holds each design's own
    loop draw and its pair_diffs differences, from which gram's assembler
    builds gram's Gram of it, when the loop separates every one; when the
    loop refuses any of them, the stack is refused."""
    expected = [_seeded_design_loop(m, n, (seed, t), box) for t in range(trial, trial + k)]
    kernel = _scalar_gaussian(m)
    if any(pts is None for pts in expected):
        with pytest.raises(InvalidParameter, match="could not draw a separated design"):
            _seeded_design(kernel, n, _rngs(seed, range(trial, trial + k)), box)
        return
    points, diffs = _seeded_design(kernel, n, _rngs(seed, range(trial, trial + k)), box)
    assert points.shape == (k, n, m) and diffs.shape == (k, n * (n + 1) // 2, m)
    grams = _hermitian_gram(kernel, points, diffs)
    for pts, d, g, want in zip(points, diffs, grams, expected):
        assert np.array_equal(pts, want)
        assert np.array_equal(d, pair_diffs(want)[0])
        assert np.array_equal(g, gram(kernel, want).matrix.entries)


def test_seeded_design_refuses_crowded_line():
    assert _seeded_design_loop(1, 40, (0, 0), 2.0) is None
    with pytest.raises(InvalidParameter):
        _one_design(_scalar_gaussian(1), 40, (0, 0), 2.0)


def _scalar_gaussian(m):
    return radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.eye(1))]), m)


def test_seeded_design_floor_never_drops_below_the_duplicate_tolerance():
    """Below box = 1e-10 the separation floor is the Gram's duplicate
    tolerance, so points that gram would call coincident are redrawn."""
    with pytest.raises(InvalidParameter, match="could not draw a separated design"):
        _one_design(_scalar_gaussian(1), 2, (0, 0), 1e-13)


def _count_passes(monkeypatch):
    """Record the stack shape of every pair_diffs call, and the difference
    table of every plain-Gram assembly followed by the rows of each kernel
    evaluation, wherever they are reachable."""
    calls, blocks = [], []
    evaluate = kernel_module.OperatorKernel.eval_diffs

    def counted(points):
        calls.append(points.shape)
        return pair_diffs(points)

    def counted_gram(kernel, points, diffs):
        blocks.append(diffs.shape)
        return _hermitian_gram(kernel, points, diffs)

    def counted_eval(self, diffs):
        blocks.append(("eval", len(diffs)))
        return evaluate(self, diffs)

    for module in (kernel_module, certify):
        if getattr(module, "pair_diffs", None) is pair_diffs:
            monkeypatch.setattr(module, "pair_diffs", counted)
        if getattr(module, "_hermitian_gram", None) is _hermitian_gram:
            monkeypatch.setattr(module, "_hermitian_gram", counted_gram)
    monkeypatch.setattr(kernel_module.OperatorKernel, "eval_diffs", counted_eval)
    return calls, blocks


def test_probe_takes_one_stacked_pairwise_pass_and_one_evaluation_per_chunk(monkeypatch):
    """A chunk whose designs are all accepted at their first draw costs one
    stacked pair_diffs call over the pairs i <= j and one assembly of the
    (k, n (n + 1) / 2, m) table of their differences, with one kernel
    evaluation of all its rows."""
    n, trials, box = 3, 6, 2.0
    for t in range(trials):  # every trial's first draw is separated
        rng = np.random.default_rng(np.random.SeedSequence([0, t]))
        pts = rng.uniform(-box, box, size=(n, 2))
        assert min(np.linalg.norm(pts[i] - pts[j]) for i in range(n) for j in range(i)) >= 1e-2 * box
    calls, blocks = _count_passes(monkeypatch)
    probe_strict_pd(STRICT_K, n=n, trials=trials, seed=0, box=box)
    assert calls == [(trials, n, 2)]
    assert blocks == [(trials, 6, 2), ("eval", trials * 6)]


def test_redrawn_designs_take_flat_passes_and_the_chunk_one_evaluation(monkeypatch):
    """The 1-D gaussian line at n = 16, seed 3: each redrawn design takes a
    flat pairwise pass per redraw, and the whole chunk, redrawn designs
    included, one assembly of the (32, 136, 1) table and one kernel
    evaluation."""
    kernel, n = ORACLE_KERNELS["gaussian_line"]
    draws = [_draws(1, n, (3, t)) for t in range(32)]
    redrawn = [k for k in draws if k > 1]
    assert redrawn and _per(kernel, n) == 32
    calls, blocks = _count_passes(monkeypatch)
    probe_strict_pd(kernel, n=n, trials=32, seed=3)
    assert calls == [(32, n, 1)] + [(n, 1)] * sum(k - 1 for k in redrawn)
    assert blocks == [(32, 136, 1), ("eval", 32 * 136)]


def _drawn_states(m, n, seed_parts, draws, box=2.0):
    """The bit generator state of SeedSequence(seed_parts) after draws
    designs of n points in R^m."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_parts)))
    for _ in range(draws):
        rng.uniform(-box, box, size=(n, m))
    return rng.bit_generator.state


def test_a_design_that_never_separates_after_earlier_ones_ends_the_chunk_unevaluated(monkeypatch):
    """30 points on [-2, 2], seed 0: design 0 separates at its 40th draw
    and design 1 never does. The chunk of 6 takes one stacked pass for the
    first draws and flat passes for the redraws of designs 0 and 1 only (63
    of them design 1's), and raises unevaluated; designs 2 to 5 are never
    redrawn. The probe then replays one trial per chunk: trial 0 takes its
    stacked pass, its 39 redraws and its one assembly and evaluation, and
    trial 1 its stacked pass and 63 redraws, which raise."""
    kernel, n = _scalar_gaussian(1), 30
    assert [_draws(1, n, (0, t)) for t in range(2)] == [40, None] and _per(kernel, n) >= 6
    rngs = _rngs(0, range(6))
    calls, blocks = _count_passes(monkeypatch)
    with pytest.raises(InvalidParameter, match="could not draw a separated design"):
        _seeded_design(kernel, n, rngs, 2.0)
    stacked = [(6, n, 1)] + [(n, 1)] * (39 + 63)
    assert calls == stacked and blocks == []
    taken = [40, 64, 1, 1, 1, 1]
    assert [rng.bit_generator.state for rng in rngs] == [_drawn_states(1, n, (0, t), d) for t, d in enumerate(taken)]
    calls.clear()
    with pytest.raises(InvalidParameter, match="could not draw a separated design"):
        probe_strict_pd(kernel, n=n, trials=6, seed=0)
    assert calls == stacked + [(1, n, 1)] + [(n, 1)] * 39 + [(1, n, 1)] + [(n, 1)] * 63
    assert blocks == [(1, 465, 1), ("eval", 465)]


def test_a_design_that_never_separates_ends_its_chunk_without_redrawing_later_ones(monkeypatch):
    """40 points on [-2, 2] never keep the floor: the chunk of 5 designs
    takes one stacked pass for their first draws (none separates), then the
    first design's 63 redraws alone, each a flat pass, and none of the
    other four is redrawn. The per-trial replay draws trial 0 alone, in a
    stacked pass of one and 63 flat redraws, and raises."""
    kernel = _scalar_gaussian(1)
    assert _per(kernel, 40) == 5 and _draws(1, 40, (0, 0)) is None
    calls, blocks = _count_passes(monkeypatch)
    with pytest.raises(InvalidParameter, match="could not draw a separated design"):
        probe_strict_pd(kernel, n=40, trials=5, seed=0)
    assert calls == [(5, 40, 1)] + [(40, 1)] * 63 + [(1, 40, 1)] + [(40, 1)] * 63
    assert blocks == []


def test_probe_keeps_the_first_violation():
    rep = probe_strict_pd(DEGENERATE_K, n=4, trials=5, seed=3)
    assert rep.violation.trial == 0 and len(rep.min_eigenvalues) == 5
    points, _ = _one_design(DEGENERATE_K, 4, (3, 0), 2.0)
    assert np.array_equal(rep.violation.points, points)
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
    points, g = _one_design(kernel, 6, (seed, 0), 2.0)
    blocks = g.reshape(6, 2, 6, 2).transpose(0, 2, 1, 3).reshape(36, 2, 2)
    assert np.array_equal(blocks, kernel.eval_diffs((points[:, None, :] - points[None, :, :]).reshape(36, -1)))


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
    expected = [_seeded_design(ShiftedPairKernel(w), 6, [rng], 2.0)[0][0] for _ in range(2)]
    drawn = []

    def recorded(*args, **kwargs):
        points, grams = _seeded_design(*args, **kwargs)
        drawn.append(points[0])
        return points, grams

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
        points, _ = _seeded_design(kernel, 6, [rng], box=2.0)
        blocks = gram(kernel, points[0]).matrix.entries.reshape(6, 2, 6, 2).transpose(0, 2, 1, 3).reshape(36, 2, 2)
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


# ---------------------------------------------------------------- chunked probe against the per-trial loop


def _design_loop(kernel, n, seed_parts, box):
    """The design drawer as a per-trial loop: one point check per draw
    (gram's _check_points), whose duplicate check at the separation floor
    is the redraw test."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_parts)))
    for _ in range(64):
        try:
            return _check_points(rng.uniform(-box, box, size=(n, kernel.m)), kernel.m, max(1e-2 * box, DUPLICATE_POINT_TOL))[0]
        except DuplicatePoints:
            pass
    raise InvalidParameter("could not draw a separated design; box too small for n")


def _gram_trial(kernel, n, seed_parts, box):
    """One probe trial from gram's Gram and one checked eigensolve: the
    design, lambda_min, max(1, trace), the witness, and the Gram."""
    points = _design_loop(kernel, n, seed_parts, box)
    g = gram(kernel, points).matrix
    return (points, *psd_margin(g), g.entries)


def _factor(kernel, points):
    """The plane-wave factor F of a design, atom by atom: each atom's
    eigensolve alone, the columns sqrt(w) v of its eigenvalues w > 0, and
    the rows (i, c) e^{-i x_i . xi_a} B_a[c, :]; F F^H is the block Gram."""
    phases = kernel_module._phases(points, kernel.measure.xis)
    blocks = []
    for a, g in enumerate(kernel.measure.gs):
        w, v = np.linalg.eigh(g)
        b = v[:, w > 0.0] * np.sqrt(w[w > 0.0])
        blocks.append(phases[:, a, None, None] * b)
    f = np.concatenate(blocks, axis=2) if blocks else np.zeros((len(points), kernel.ell, 0), dtype=complex)
    return f.reshape(len(points) * kernel.ell, -1)


def _factor_trial(kernel, n, seed_parts, box):
    """One plane-wave probe trial from its factor: lambda_min is 0.0 when F
    has more rows than columns and sigma_min^2 otherwise, the witness is the
    last left singular vector, the scale max(1, ||F||_F^2)."""
    points = _design_loop(kernel, n, seed_parts, box)
    f = _factor(kernel, points)
    u, s, _ = np.linalg.svd(f, full_matrices=f.shape[0] > f.shape[1])
    lo = 0.0 if f.shape[0] > f.shape[1] else float(s[-1] ** 2)
    return points, lo, max(1.0, float(np.linalg.norm(f)) ** 2), u[:, -1]


def _probe_loop(kernel, n, trials, seed, box=2.0, tol=PROBE_TOL, trial=_gram_trial):
    """probe_strict_pd as a per-trial loop: one design per trial, and its
    Gram's checked eigensolve (_gram_trial) or its factor's SVD
    (_factor_trial)."""
    mins, violation = [], None
    for t in range(trials):
        points, lo, scale, vec = trial(kernel, n, (seed, t), box)[:4]
        mins.append(lo)
        if violation is None and lo <= tol * scale:
            violation = ProbeViolation(trial=t, points=points, min_eigenvalue=lo, witness=vec)
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


def _outcome(run):
    """The bits of a probe report, or the class and message of its error."""
    try:
        rep = run()
    except OpKernelError as exc:
        return type(exc), str(exc)
    v = rep.violation
    witness = None if v is None else (v.trial, v.points.shape, v.points.tobytes(), v.min_eigenvalue.hex(), v.witness.tobytes())
    return rep.verdict, [x.hex() for x in rep.min_eigenvalues], rep.global_min.hex(), witness


def _both(kernel, n, trials, seed, box=2.0):
    """The chunked probe and its per-trial loop: the factor loop for a
    plane-wave kernel, the Gram loop for any other."""
    chunked = _outcome(lambda: probe_strict_pd(kernel, n=n, trials=trials, seed=seed, box=box))
    trial = _factor_trial if getattr(kernel, "kind", None) == "plane_wave" else _gram_trial
    return chunked, _outcome(lambda: _probe_loop(kernel, n, trials, seed, box, trial=trial))


def _per(kernel, n):
    return max(1, certify._PROBE_CHUNK_ENTRIES // (n * n * max(kernel.m, kernel.ell**2)))


def _draws(m, n, seed_parts, box=2.0):
    """Draws the loop takes for the design of seed_parts (None: refused)."""
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_parts)))
    for k in range(1, 65):
        pts = rng.uniform(-box, box, size=(n, m))
        if min(np.linalg.norm(pts[i] - pts[j]) for i in range(n) for j in range(i)) >= 1e-2 * box:
            return k
    return None


ORACLE_KERNELS = {
    "gaussian": (radial_kernel(RadialProfile.gaussian(), OperatorMeasure(2, [(1.0, np.eye(2)), (0.4, np.diag([2.0, 0.5]))]), 2), 4),
    "askey": (radial_kernel(RadialProfile.askey(3), OperatorMeasure(1, [(0.6, np.eye(1)), (0.3, np.eye(1))]), 3), 5),
    "omega": (radial_kernel(RadialProfile.omega(3), OperatorMeasure(1, [(2.0, np.eye(1)), (0.6, np.eye(1))]), 2), 5),
    "plane_wave": (
        plane_wave_kernel(PlaneWaveMeasure(2, 2, [([0.5, -1.0], np.eye(2)), ([-2.0, 0.25], np.diag([1.0, 0.0]))])),
        4,
    ),
    "shifted_pair": (ShiftedPairKernel([0.7]), 4),
    # strict, but some of its 16-point designs fall under the probe tolerance
    "gaussian_line": (radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(6.0, np.eye(1))]), 1), 16),
}


@pytest.mark.parametrize("name", [k for k in ORACLE_KERNELS if k != "gaussian_line"])
def test_chunked_probe_is_the_per_trial_loop_at_the_chunk_edges(name):
    """At the chunk budget, trials one under, at and one over a chunk give
    the loop's report bit for bit."""
    kernel, n = ORACLE_KERNELS[name]
    per = _per(kernel, n)
    assert per > 1
    for trials in (per - 1, per, per + 1):
        chunked, loop = _both(kernel, n, trials, seed=3)
        assert chunked == loop


@pytest.mark.parametrize("per", [1, 2, 3])
@pytest.mark.parametrize("name", list(ORACLE_KERNELS))
def test_chunked_probe_is_the_per_trial_loop_in_small_chunks(monkeypatch, name, per):
    """Chunks of one, two and three designs, patched in through the budget,
    give the loop's report or error bit for bit."""
    kernel, n = ORACLE_KERNELS[name]
    monkeypatch.setattr(certify, "_PROBE_CHUNK_ENTRIES", per * n * n * max(kernel.m, kernel.ell**2))
    assert _per(kernel, n) == per
    for trials in sorted({max(1, per - 1), per, per + 1, 3 * per + 1}):
        for seed in (0, 7):
            chunked, loop = _both(kernel, n, trials, seed)
            assert chunked == loop


def _assert_factor_probe_is_the_gram_loop(kernel, n, trials, seed, box=2.0):
    """The plane-wave probe, which reads its factor, against the Gram loop:
    the same verdict, trial count and first violation, its design bit for
    bit, each lambda_min within 1e-12 max(1, trace) of the Gram's, and the
    Gram form v^H G v of each trial's factor witness, and of the reported
    violation's, within the same bound of the reported lambda_min."""
    rep = probe_strict_pd(kernel, n=n, trials=trials, seed=seed, box=box)
    loop = _probe_loop(kernel, n, trials, seed, box)
    assert (rep.verdict, rep.trials, len(rep.min_eigenvalues)) == (loop.verdict, loop.trials, len(loop.min_eigenvalues))
    assert (rep.violation is None) == (loop.violation is None)
    for t, lo in enumerate(rep.min_eigenvalues):
        points, lo_gram, scale, _, g = _gram_trial(kernel, n, (seed, t), box)
        factor_points, _, _, u = _factor_trial(kernel, n, (seed, t), box)
        assert np.array_equal(factor_points, points)
        bound = 1e-12 * scale
        assert abs(lo - lo_gram) <= bound
        assert abs(np.vdot(u, g @ u).real - lo) <= bound
        if rep.violation is not None and rep.violation.trial == t:
            assert t == loop.violation.trial and np.array_equal(rep.violation.points, loop.violation.points)
            v = rep.violation.witness
            assert abs(np.vdot(v, g @ v).real - rep.violation.min_eigenvalue) <= bound
    return rep


def test_plane_wave_probe_is_the_gram_loop_within_tolerance_at_the_chunk_edges():
    kernel, n = ORACLE_KERNELS["plane_wave"]
    per = _per(kernel, n)
    for trials in (per - 1, per, per + 1):
        rep = _assert_factor_probe_is_the_gram_loop(kernel, n, trials, seed=3)
        # 4 points at ell = 2 against r = 3 columns: singular by rank
        assert rep.verdict == "ViolationFound" and rep.min_eigenvalues == (0.0,) * trials


def _plane_wave_kernel(m, ell, ranks, seed):
    """A plane-wave kernel on R^m whose atom a, at a normal frequency, is
    B B^H for a normal complex B of ranks[a] <= ell columns (rank 0: a zero
    atom, pruned)."""
    rng = np.random.default_rng(seed)
    xis = rng.normal(0.0, 2.0, size=(len(ranks), m))
    gs = np.zeros((len(ranks), ell, ell), dtype=complex)
    for g, r in zip(gs, ranks):
        b = rng.normal(size=(ell, r)) + 1j * rng.normal(size=(ell, r))
        g[...] = b @ b.conj().T
    return plane_wave_kernel(PlaneWaveMeasure(ell, m, xis=xis, gs=gs))


@st.composite
def _plane_wave_probes(draw):
    """A plane-wave kernel of up to four atoms and a probe of it, n ell
    below, at or above r = sum(ranks)."""
    m, ell = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ranks = draw(st.lists(st.integers(0, ell), max_size=4))
    kernel = _plane_wave_kernel(m, ell, ranks, draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max(2, sum(ranks) // ell + 2)))
    return kernel, n, draw(st.integers(1, 6)), draw(st.integers(0, 2**31 - 1)), draw(st.sampled_from([0.5, 2.0, 4.0]))


@given(case=_plane_wave_probes())
@example(case=(_plane_wave_kernel(2, 2, [2, 2, 2], 0), 3, 5, 0, 2.0))  # n ell = r = 6
@example(case=(_plane_wave_kernel(1, 1, [1, 1, 1, 1], 1), 3, 5, 1, 2.0))  # n ell = 3 < r = 4
@example(case=(_plane_wave_kernel(3, 3, [3, 3], 2), 3, 5, 2, 2.0))  # n ell = 9 > r = 6
# n ell = 9 against rank 8: a roundoff eigenvalue > 0 of the rank-2 atom keeps a ninth column
@example(case=(_plane_wave_kernel(3, 3, [3, 2, 3], 2), 3, 5, 2, 2.0))
@example(case=(_plane_wave_kernel(2, 2, [0], 3), 3, 2, 3, 2.0))  # every atom pruned: r = 0
@settings(max_examples=60, deadline=None)
def test_plane_wave_probe_is_the_gram_loop_within_tolerance(case):
    """Over drawn plane-wave measures, atom ranks and designs: the factor
    probe agrees with the Gram loop (_assert_factor_probe_is_the_gram_loop)
    and is its own per-trial factor loop bit for bit. A design with more
    rows n ell than the factor has columns prints 0.0."""
    kernel, n, trials, seed, box = case
    rep = _assert_factor_probe_is_the_gram_loop(kernel, n, trials, seed, box)
    chunked, loop = _both(kernel, n, trials, seed, box)
    assert chunked == loop
    r = certify._atom_factors(kernel.measure)[1].shape[1]
    if n * kernel.ell > r:
        assert rep.min_eigenvalues == (0.0,) * trials


def test_chunked_probe_keeps_a_late_first_violation_and_its_redraws(monkeypatch):
    """The 1-D gaussian of the golden report: its first violation is at
    trial 40, inside the second chunk and not at its start, and some of its
    designs are redrawn inside a chunk. Budgets of 32 and 3 designs per
    chunk give the loop's report."""
    kernel, n = ORACLE_KERNELS["gaussian_line"]
    assert _per(kernel, n) == 32
    redrawn = [t for t in range(70) if _draws(1, n, (3, t)) > 1]
    assert any(t % 32 for t in redrawn)
    rep = probe_strict_pd(kernel, n=n, trials=70, seed=3)
    assert rep.violation.trial == 40
    chunked, loop = _both(kernel, n, 70, seed=3)
    assert chunked == loop
    monkeypatch.setattr(certify, "_PROBE_CHUNK_ENTRIES", 3 * n * n)
    chunked, loop = _both(kernel, n, 70, seed=3)
    assert chunked == loop


class _LineKernel:
    """A kernel-shaped object on the line whose 1 x 1 blocks are f(d)."""

    m, ell = 1, 1

    def __init__(self, f):
        self.f = f

    def eval_diffs(self, diffs):
        with np.errstate(invalid="ignore"):
            return self.f(np.asarray(diffs)[:, 0]).astype(complex)[:, None, None]


def test_probe_raises_the_first_error_in_trial_order():
    """G = 1e308 on the line at n = 30: trial 0 draws a design whose
    eigensolve overflows, and trial 1 of the same chunk never separates.
    The loop raises trial 0's numerical failure, and so must the chunk."""
    kernel = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(1, [(1.0, np.array([[1e308]]))]), 1)
    assert _draws(1, 30, (0, 0)) is not None and _draws(1, 30, (0, 1)) is None
    assert _per(kernel, 30) > 2
    chunked, loop = _both(kernel, 30, 2, seed=0)
    assert chunked == loop == (NumericalFailure, "eigendecomposition: an eigenvalue overflows the float range")


def test_a_stacked_evaluation_that_raises_names_the_first_failing_designs_own_error():
    """omega(3) at scale 4000 on the line: a design whose points lie more
    than 2.5 apart passes OMEGA_T_MAX = 1e4, and the error names its own
    largest w*t. Trial 1 fails and trial 2, in the same chunk, fails at a
    larger w*t, which the chunk's one evaluation would name; the probe
    raises trial 1's own error, as the loop does."""
    kernel = radial_kernel(RadialProfile.omega(3), OperatorMeasure(1, [(4000.0, np.eye(1))]), 1)

    def spread(seed, t):
        return np.ptp(_seeded_design_loop(1, 3, (seed, t), 2.0))

    seed = next(s for s in range(200) if spread(s, 0) <= 2.5 < spread(s, 1) < spread(s, 2))
    chunked, loop = _both(kernel, 3, 3, seed)
    assert chunked == loop
    assert chunked[0] is NumericalFailure and f"{4000.0 * spread(seed, 1):.6g}" in chunked[1]


def test_probe_exits_4_on_the_first_trials_failure(tmp_path, capsys):
    obj = {
        "kernel": {"family": {"kind": "gaussian"}, "ambient_dim": 1,
                   "measure": {"dim": 1, "atoms": [{"omega": 1.0, "G": {"re": [[1e308]]}}]}},
        "n": 30,
        "trials": 2,
    }
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["probe", "--seed", "0", "--input", str(path), "--no-timestamp"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err == "numerical failure: eigendecomposition: an eigenvalue overflows the float range\n"


def _plane_wave_probe(tmp_path, capsys, m, atoms, **fields):
    """Exit code, stdout and stderr of `probe --seed 0` on a plane-wave
    kernel on R^m with the given atoms."""
    dim = len(atoms[0]["G"]["re"])
    obj = {"kernel": {"family": {"kind": "plane_wave"}, "ambient_dim": m, "measure": {"dim": dim, "atoms": atoms}}, **fields}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(obj))
    code = cli.main(["probe", "--seed", "0", "--input", str(path), "--no-timestamp"])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("m, atoms, fields, message", [
    # |x| xi and |x - y| xi both pass the float range at box 1e6: every design overflows, at its points and at
    # its differences alike
    (1, [{"xi": [1e305], "G": {"re": [[1.0]]}}], {"n": 2, "trials": 1, "box": 1e6},
     "plane-wave phase x . xi overflows the float range"),
    (2, [{"xi": [1e305, 0.0], "G": {"re": [[1.0]]}}], {"n": 3, "trials": 3, "box": 1e6},
     "plane-wave phase x . xi overflows the float range"),
    # G = 1e308: the factor's scale ||F||_F^2 = 3e308, the Gram's trace, overflows (the assembled Gram's
    # eigensolve met an eigenvalue that overflows first)
    (1, [{"xi": [1.0], "G": {"re": [[1e308]]}}], {"n": 3, "trials": 2}, "PSD check: the trace overflows the float range"),
])
def test_plane_wave_probe_overflows_exit_4_with_one_line(tmp_path, capsys, m, atoms, fields, message):
    code, out, err = _plane_wave_probe(tmp_path, capsys, m, atoms, **fields)
    assert code == 4 and out == "" and err == f"numerical failure: {message}\n"


def test_pruned_plane_wave_probe_is_singular_by_rank(tmp_path, capsys):
    """A measure whose only atom is zero is pruned: the factor has no
    column, so every design's Gram is 0 and every trial prints 0.0 (exit 3)."""
    atoms = [{"xi": [1.0, 0.5], "G": {"re": [[0.0, 0.0], [0.0, 0.0]]}}]
    code, out, err = _plane_wave_probe(tmp_path, capsys, 2, atoms, n=3, trials=3)
    res = json.loads(out)["result"]
    assert code == 3 and err == ""
    assert res["min_eigenvalues"] == [0.0] * 3 and res["global_min"] == 0.0 and res["violation"]["min_eigenvalue"] == 0.0


@pytest.mark.parametrize("breach, message", [
    ("eigh", "^eigendecomposition reconstruction residual too large$"),
    ("svd", "^singular value decomposition reconstruction residual too large$"),
])
def test_plane_wave_probe_guards_its_atom_eigensolve_and_its_svds(monkeypatch, breach, message):
    """Eigenvalues of the atoms, or singular values of a design's factor,
    off by 1e-3 raise NumericalFailure from the probe."""
    kernel, n = ORACLE_KERNELS["plane_wave"]
    solve = getattr(np.linalg, breach)

    def breached(a, **kwargs):
        out = list(solve(a, **kwargs))
        out[0 if breach == "eigh" else 1] = out[0 if breach == "eigh" else 1] * 1.001
        return tuple(out)

    monkeypatch.setattr(np.linalg, breach, breached)
    with pytest.raises(NumericalFailure, match=message):
        probe_strict_pd(kernel, n=n, trials=2, seed=0)


def test_probe_refuses_non_finite_blocks_in_trial_order():
    """Blocks that are NaN wherever two points are more than 3.5 apart: the
    first trial with such a pair raises InvalidMatrix, as the loop's
    HermitianMatrix does, in chunks of one and of many."""
    kernel = _LineKernel(lambda d: np.where(np.abs(d) > 3.5, np.nan, np.exp(-d * d)))
    outcomes = []
    for seed in range(6):
        chunked, loop = _both(kernel, 4, 5, seed)
        assert chunked == loop
        outcomes.append(loop)
    # some probes refuse at a later trial, some finish
    assert (InvalidMatrix, "matrix has non-finite entries") in outcomes
    assert any(o[0] == "NoViolationFound" for o in outcomes)
    # and one refuses after a first trial whose blocks are finite
    assert any(
        outcomes[s][0] is InvalidMatrix and np.ptp(_seeded_design_loop(1, 4, (s, 0), 2.0)) <= 3.5 for s in range(6)
    )


def test_probe_exits_2_on_non_finite_blocks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        kernel_module.OperatorKernel, "eval_diffs", lambda self, diffs: np.full((len(diffs), 1, 1), np.nan, dtype=complex)
    )
    obj = {"kernel": {"family": {"kind": "gaussian"}, "ambient_dim": 1,
                      "measure": {"dim": 1, "atoms": [{"omega": 1.0, "G": {"re": [[1.0]]}}]}}, "n": 3, "trials": 4}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["probe", "--input", str(path), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == "error: matrix has non-finite entries\n"


def test_stacked_eigen_failure_names_the_first_failing_trial():
    """Two-point designs of blocks 1e308 at d = 0 and where |d| > 1: a design
    with its points at most 1 apart has eigenvalues 1e308 and a trace that
    overflows; one with them farther apart has an eigenvalue that
    overflows. A stacked check meets the eigenvalue first; the probe raises
    what trial 0 alone raises."""
    kernel = _LineKernel(lambda d: np.where((d == 0.0) | (np.abs(d) > 1.0), 1e308, 0.0))

    def gap(seed, t):
        pts = _seeded_design_loop(1, 2, (seed, t), 2.0)
        return abs(pts[0, 0] - pts[1, 0])

    seed = next(s for s in range(100) if gap(s, 0) <= 1.0 < gap(s, 1))
    points, diffs = _seeded_design(kernel, 2, _rngs(seed, range(2)), 2.0)
    with pytest.raises(NumericalFailure, match="an eigenvalue overflows"):
        psd_margin(_hermitian_gram(kernel, points, diffs))
    chunked, loop = _both(kernel, 2, 2, seed)
    assert chunked == loop == (NumericalFailure, "PSD check: the trace overflows the float range")


class _Crowded:
    """A generator whose every draw puts all its points at the origin."""

    def uniform(self, low, high, size):
        return np.zeros(size)


_INJECTED = {
    "crowded": InvalidParameter,  # the failing trial's design never separates
    "nan": InvalidMatrix,  # its blocks are not finite
    "raise": NumericalFailure,  # its evaluation raises
    "eigh": NumericalFailure,  # its eigensolve overflows
}


@given(per=st.integers(1, 6), n=st.integers(3, 6), seed=st.integers(0, 2**31 - 1), data=st.data())
@settings(max_examples=80, deadline=None)
def test_chunked_probe_errors_are_the_per_trial_loops(per, n, seed, data):
    """Chunks of one to six designs, and a failure injected at one drawn
    trial, or at two of different or equal kinds, keyed on the trial's
    generator or on the differences of its design: the chunked probe
    raises the loop's error, class and message, which is the first
    failing trial's own. An evaluation that raises names the injection it
    checks first, so a stacked one can name a later trial."""
    trials = data.draw(st.integers(1, 14))
    failing = data.draw(st.lists(st.integers(0, trials - 1), min_size=1, max_size=2, unique=True))
    kinds = data.draw(st.lists(st.sampled_from(sorted(_INJECTED)), min_size=len(failing), max_size=len(failing)))
    designs = {t: _seeded_design_loop(1, n, (seed, t), 2.0) for t, kind in zip(failing, kinds) if kind != "crowded"}
    assume(all(pts is not None for pts in designs.values()))
    marks = {t: np.abs(pts - pts.T)[~np.eye(n, dtype=bool)] for t, pts in designs.items()}

    def f(d):
        out = np.exp(-d * d)
        for t, kind in zip(failing, kinds):
            hit = np.isin(np.abs(d), marks[t]) if t in marks else False
            if kind == "raise" and np.any(hit):
                raise NumericalFailure(f"kernel evaluation fails on trial {t}")
            out = np.where(hit, np.nan if kind == "nan" else 1e308, out)
        return out

    real_rng = np.random.default_rng
    crowded = [[seed, t] for t, kind in zip(failing, kinds) if kind == "crowded"]

    def rng(seq):
        return _Crowded() if list(seq.entropy) in crowded else real_rng(seq)

    kernel = _LineKernel(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_PROBE_CHUNK_ENTRIES", per * n * n)
        assert _per(kernel, n) == per
        mp.setattr(np.random, "default_rng", rng)
        chunked, loop = _both(kernel, n, trials, seed)
    assert chunked == loop
    assert loop[0] is _INJECTED[kinds[failing.index(min(failing))]]


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_probe_memory_is_flat(kernel):
    """40 trials of 40 points, one design per chunk, peak within 5% of one
    trial."""
    assert _per(kernel, 40) == 1
    probe_strict_pd(kernel, n=40, trials=1, seed=0)  # first-call allocations are not the probe's
    one = _peak(lambda: probe_strict_pd(kernel, n=40, trials=1, seed=0))
    forty = _peak(lambda: probe_strict_pd(kernel, n=40, trials=40, seed=0))
    assert forty <= 1.05 * one


def test_probe_memory_does_not_grow_with_trials():
    """A plane-wave chunk holds at most one difference table and one factor
    (120 rows, with its SVD) of the budget's size, and nothing outlives it."""
    _assert_probe_memory_is_flat(
        plane_wave_kernel(PlaneWaveMeasure(3, 2, [([0.5, -1.0], np.eye(3)), ([-2.0, 0.25], np.diag([1.0, 0.5, 0.0]))]))
    )


def test_probe_gram_memory_does_not_grow_with_trials():
    """A radial chunk holds at most one difference table and one 120-row
    Gram, with its eigensolve, and nothing outlives it."""
    _assert_probe_memory_is_flat(
        radial_kernel(RadialProfile.gaussian(), OperatorMeasure(3, [(1.0, np.eye(3)), (0.4, np.diag([2.0, 0.5, 1.0]))]), 2)
    )


def test_probe_chunks_stay_within_the_budget():
    """At n = 16 on the line a chunk holds 32 designs. 40 trials peak within
    a small multiple of the budget's complex table, and 400 trials no
    higher."""
    kernel, n = ORACLE_KERNELS["gaussian_line"]
    table = 16 * certify._PROBE_CHUNK_ENTRIES
    probe_strict_pd(kernel, n=n, trials=1, seed=0)
    forty = _peak(lambda: probe_strict_pd(kernel, n=n, trials=40, seed=0))
    many = _peak(lambda: probe_strict_pd(kernel, n=n, trials=400, seed=0))
    assert forty <= 12 * table
    assert many <= 1.05 * forty


def test_wide_plane_wave_factors_share_the_chunk_budget(monkeypatch):
    """64 rank-one atoms against 4 points at ell = 1: a factor has r = 64
    columns, wider than the Gram's 4 rows, so a chunk holds 8192 / (4 * 64)
    = 32 designs' factors where 512 Grams would fit."""
    kernel = _plane_wave_kernel(1, 1, [1] * 64, 0)
    shapes = []

    def recorded(f):
        shapes.append(f.shape)
        return factor_margin(f)

    monkeypatch.setattr(certify, "factor_margin", recorded)
    probe_strict_pd(kernel, n=4, trials=40, seed=0)
    assert shapes == [(32, 4, 64), (8, 4, 64)]


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
