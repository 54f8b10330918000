"""Counterexample demos, the random-design probe, and verdict consistency."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opkernel import certify, kernel as kernel_module
from opkernel.certify import (
    MAX_PROBE_N,
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
from opkernel.hermitian import eigen_hermitian
from opkernel.kernel import gram, kernel_eval, pair_diffs, radial_kernel
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
    from opkernel.hermitian import min_eigenvalue, trace

    assert min_eigenvalue(g.matrix) >= -1e-12 * max(1.0, trace(g.matrix))
