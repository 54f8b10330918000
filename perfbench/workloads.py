"""Seeded command schedules for the four benchmark workloads.

A workload is a fixed list of slots. Each slot fixes a command kind and the
sizes that set its cost (family, dimensions, n, trials, atoms, grid); a
cycle draws, from its own generator, the values inside every slot (points,
matrices, scales, frequencies, shifts, probe seeds) and runs the slots in a
seeded order. Every cycle then costs about the same whatever the seed, and
the slots together cover the input ranges of each workload.

Every command's expected exit code (and verdict, where there is one)
follows from how its descriptor was built; `Spec.expect` records it and
`oracles.check` compares the report against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("strictness", "derivatives", "counterexamples", "omega")

# omega_eval at this commit is wrong from about this value of w*t upward;
# recorded as an input property, never used to select inputs
OMEGA_BAD_WT = 369.0

EXIT_OK = 0
EXIT_NEGATIVE = 3


@dataclass
class Spec:
    """One CLI invocation: the subcommand arguments, the descriptor written
    to --input (if any) and what the construction implies about the result."""

    kind: str
    args: list
    descriptor: dict | None
    expect: dict
    csv: bool = False
    props: dict = field(default_factory=dict)
    slot: int = -1  # position in the workload's slot list, the same every cycle


# ----------------------------------------------------------------------
# descriptor pieces
# ----------------------------------------------------------------------


def _cmat(g: np.ndarray) -> dict:
    return {"re": g.real.tolist(), "im": g.imag.tolist()}


def _cvec(v: np.ndarray) -> dict:
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def _unit(rng, ell: int) -> np.ndarray:
    v = rng.normal(size=ell) + 1j * rng.normal(size=ell)
    return v / np.linalg.norm(v)


def _psd(rng, ell: int, rank: int, null=None, floor: float = 0.0) -> np.ndarray:
    """Random PSD matrix B B^H / rank, optionally annihilating `null`."""
    b = rng.normal(size=(ell, rank)) + 1j * rng.normal(size=(ell, rank))
    if null is not None:
        b = b - np.outer(null, null.conj() @ b)
    g = b @ b.conj().T / rank + floor * np.eye(ell)
    return (g + g.conj().T) / 2


def _scale(rng, family: str) -> float:
    if family == "askey":
        return float(rng.uniform(0.2, 0.8))
    return float(rng.uniform(0.3, 2.0))


def radial_measure(rng, family: str, ell: int, natoms: int, strict: bool, scales=None) -> dict:
    """Operator measure whose positive-support total is well conditioned
    (strict) or annihilates a random unit vector (degenerate). A degenerate
    measure may also carry a full-rank atom at omega = 0, which leaves the
    restricted total rank-deficient. Scales are drawn unless given."""
    null = None if strict else _unit(rng, ell)
    atoms = []
    for j in range(natoms):
        rank = int(rng.integers(1, ell + 1))
        floor = 0.3 if (strict and j == 0) else 0.0
        if strict and j == 0:
            rank = ell
        scale = _scale(rng, family) if scales is None else scales[j]
        atoms.append((scale, _psd(rng, ell, rank, null, floor)))
    if not strict and rng.random() < 0.5:
        atoms.append((0.0, _psd(rng, ell, ell, floor=0.3)))
    return {"dim": ell, "atoms": [{"omega": w, "G": _cmat(g)} for w, g in atoms]}


def _frequencies(rng, natoms: int, m: int, min_gap: float = 0.5) -> np.ndarray:
    while True:
        xis = rng.normal(0.0, 2.0, size=(natoms, m))
        gaps = [
            np.linalg.norm(xis[i] - xis[j])
            for i in range(natoms)
            for j in range(i + 1, natoms)
        ]
        if not gaps or min(gaps) >= min_gap:
            return xis


def plane_wave_measure(rng, ell: int, m: int, ranks) -> dict:
    xis = _frequencies(rng, len(ranks), m)
    return {
        "dim": ell,
        "atoms": [
            {"xi": xi.tolist(), "G": _cmat(_psd(rng, ell, r, floor=0.3 if r == ell else 0.0))}
            for xi, r in zip(xis, ranks)
        ],
    }


def kernel(family: str, measure: dict, m: int, param: int | None = None) -> dict:
    fam = {"kind": family}
    if family == "askey":
        fam["ell"] = param
    elif family == "omega":
        fam["m"] = param
    return {"family": fam, "measure": measure, "ambient_dim": m}


def _points(rng, n: int, m: int, half_width: float) -> np.ndarray:
    return rng.uniform(-half_width, half_width, size=(n, m))


def _askey_param(m: int) -> int:
    # askey(l) is positive definite on R^m for m <= 2l - 3
    return (m + 4) // 2


# ----------------------------------------------------------------------
# strictness: classify and probe on gaussian, askey and plane-wave kernels
# ----------------------------------------------------------------------

# Sizes are spread over the slots with different strides so that they vary
# independently of one another.
# n 4-40: small, mid, and beyond the 1-D design limit. At n = 40 a 1-D
# design almost never survives the design sampler's separation retries, so
# those commands fail at their first trial at a steady cost; at n = 32 a
# third of the trials survive, and the cost of a command varied with the seed.
N_LEVELS = (5, 16, 40)
TRIALS = (10, 25, 40)


def _strictness_cycle(rng):
    specs = []
    s = 0
    for command in ("classify", "probe"):
        for family in ("gaussian", "askey"):
            for m in (1, 2, 3):
                for n in N_LEVELS:
                    degenerate = s % 4 == 2  # a quarter of the radial slots
                    ell = 2 + (s // 4) % 2 if degenerate else 1 + (s // 5) % 3
                    natoms = 1 + (s // 2) % 4
                    trials = TRIALS[(s + s // 3) % 3]
                    param = _askey_param(m) if family == "askey" else None
                    measure = radial_measure(rng, family, ell, natoms, not degenerate)
                    kern = kernel(family, measure, m, param)
                    specs.append(_strictness_spec(command, kern, n, trials, not degenerate))
                    s += 1
    for p, (m, n) in enumerate((m, n) for m in (1, 2, 3) for n in (4, 16, 40)):
        ell = 1 + p % 3
        if n == 4:
            # as many full-rank atoms as points: total rank n * ell, strictly PD
            ranks, strict = [ell] * 4, True
        else:
            # total rank <= 4 * ell < n * ell
            ranks, strict = [1 + (p + j) % ell for j in range(1 + p % 4)], False
        kern = kernel("plane_wave", plane_wave_measure(rng, ell, m, ranks), m)
        specs.append(_strictness_spec("probe", kern, n, TRIALS[p % 3], strict))
    return specs


def _strictness_spec(command: str, kern: dict, n: int, trials: int, strict: bool) -> Spec:
    m = kern["ambient_dim"]
    props = {
        "degenerate": not strict,
        "family": kern["family"]["kind"],
        "m": m,
        "n": n,
        "ell": kern["measure"]["dim"],
    }
    rc = EXIT_OK if strict else EXIT_NEGATIVE
    if command == "classify":
        desc = dict(kern, n=n, trials=trials)
        verdict = "StrictlyPD_and_Universal" if strict else "NotStrictlyPD"
        return Spec("classify", ["classify"], desc, {"rc": rc, "verdict": verdict}, props=props)
    desc = {"kernel": kern, "n": n, "trials": trials}
    verdict = "NoViolationFound" if strict else "ViolationFound"
    return Spec("probe", ["probe"], desc, {"rc": rc, "verdict": verdict, "trials": trials}, props=props)


# ----------------------------------------------------------------------
# derivatives: derivative Grams, large Grams, interpolation
# ----------------------------------------------------------------------


def _small_kernel(rng, family: str, m: int, ell: int, natoms: int, param=None, scales=None) -> dict:
    if family == "plane_wave":
        ranks = [1 + j % ell for j in range(natoms)]
        return kernel(family, plane_wave_measure(rng, ell, m, ranks), m)
    return kernel(family, radial_measure(rng, family, ell, natoms, True, scales), m, param)


def _derivatives_cycle(rng):
    specs = []
    s = 0
    for family in ("gaussian", "plane_wave"):
        for m in (1, 2, 3):
            for q in (1, 2):
                for n in (8, 16):  # n 5-20
                    desc = {
                        "kernel": _small_kernel(rng, family, m, ell=1 + (s // 3) % 2, natoms=1 + s % 3),
                        "points": _points(rng, n, m, 2.0).tolist(),
                        "q": q,
                    }
                    csv = bool((s + s // 4) % 2)
                    specs.append(Spec("deriv-gram", ["deriv-gram"], desc, {"rc": EXIT_OK}, csv=csv))
                    s += 1
    for i, n in enumerate((75, 125, 175)):  # n 50-200
        m = 1 + i
        desc = {
            "kernel": _small_kernel(rng, "gaussian", m, ell=2, natoms=1 + i),
            "points": _points(rng, n, m, 3.0).tolist(),
        }
        specs.append(Spec("gram", ["gram"], desc, {"rc": EXIT_OK}))
    for i, n in enumerate((90, 175, 260)):  # n 50-300
        m, ell = (1, 2, 1)[i], (2, 1, 1)[i]
        kern = _small_kernel(rng, "gaussian", m, ell=ell, natoms=1 + i)
        pts = _points(rng, n, m, 3.0)
        desc = {"kernel": kern, "points": pts.tolist(), "targets": _cmat(_smooth_targets(rng, pts, ell))}
        specs.append(Spec("interp", ["interp"], desc, {"rc": EXIT_OK}))
    for m in (1, 2):
        ell = m
        kern = _small_kernel(rng, "gaussian", m, ell=ell, natoms=2)
        alphas = [tuple(int(i == k) for i in range(m)) for k in range(-1, m)]  # |alpha| <= 1
        data = []
        for x in _points(rng, 7, m, 2.0):
            for alpha in alphas:
                tgt = rng.normal(size=ell) + 1j * rng.normal(size=ell)
                data.append({"x": x.tolist(), "alpha": list(alpha), "target": _cvec(tgt)})
        specs.append(Spec("interp-hermite", ["interp"], {"kernel": kern, "data": data}, {"rc": EXIT_OK}))
    specs.append(Spec("interp-sin-cos", ["interp"], {"experiment": "sin-cos"}, {"rc": EXIT_OK}))
    return specs


def _smooth_targets(rng, pts: np.ndarray, ell: int) -> np.ndarray:
    freq = rng.normal(size=(pts.shape[1], ell))
    phase = rng.uniform(0, 2 * np.pi, size=ell)
    arg = pts @ freq + phase
    return np.cos(arg) + 0.5j * np.sin(arg)


# ----------------------------------------------------------------------
# counterexamples: radial-bump and shifted-gaussian demos
# ----------------------------------------------------------------------

# (grid_n, box) centres covering grid_n 256-1024 and box 1.5-6, plus one
# grid-2048 demo per cycle. The cost grows with the square of the number of
# grid points inside the bump support (grid_n / box), so each demo draws
# grid_n and box within 1% of its centre (the 2048 grid exactly): the cost
# of a cycle then varies little from seed to seed. The corner (1024, 1.5),
# whose 680 surviving atoms would take most of a run, is left out.
BUMP_CELLS = (
    (256, 6.0),
    (256, 1.5),
    (384, 3.0),
    (512, 4.5),
    (640, 2.2),
    (768, 6.0),
    (896, 3.8),
    (1024, 5.2),
    (2048, 5.6),
)
SHIFTED_PER_CYCLE = 45


def _bump_spec(rng, cell) -> Spec:
    grid_c, box_c = cell
    grid_n = grid_c if grid_c == 2048 else int(round(grid_c * rng.uniform(0.99, 1.01)))
    box = round(min(6.0, max(1.5, box_c * float(rng.uniform(0.99, 1.01)))), 3)
    args = ["demo", "radial-bump", "--grid-n", str(grid_n), "--box", repr(box)]
    expect = {"rc": EXIT_OK, "grid_n": grid_n, "box": box}
    return Spec("demo-radial-bump", args, None, expect, props={"atoms": bump_atoms(grid_n, box)})


def bump_atoms(grid_n: int, box: float) -> int:
    """Grid points strictly inside the bump support |x| < 1: the atoms of
    the demo's vector measure that survive."""
    x = np.linspace(-box, box, grid_n)
    return int(np.count_nonzero(np.abs(x) < 1.0))


def _shifted_spec(rng, m: int) -> Spec:
    w = rng.uniform(0.3, 1.5, size=m) * rng.choice([-1.0, 1.0], size=m)
    w = [round(float(c), 4) for c in w]
    args = ["demo", "shifted-gaussian", "--w=" + ",".join(repr(c) for c in w)]
    return Spec("demo-shifted-gaussian", args, None, {"rc": EXIT_OK, "w": w}, props={"w": w})


def _counterexamples_cycle(rng):
    specs = [_bump_spec(rng, cell) for cell in BUMP_CELLS]
    specs += [_shifted_spec(rng, 1 + i % 3) for i in range(SHIFTED_PER_CYCLE)]
    return specs


# ----------------------------------------------------------------------
# omega: every command on omega kernels
# ----------------------------------------------------------------------

WT_MAX = 1000.0
WT_STRATA = 6
OMEGA_SCALES = (0.8, 1.25)


def _omega_cycle(rng):
    specs = []
    # w*t over [0, 1000] in six strata, each drawn within 5% of the stratum
    # width around its centre, every source dimension on a low and a high
    # stratum. The series' cost grows steeply with w*t, so wider draws would
    # make the cost of a cycle depend on the seed.
    for k, msrc in enumerate((1, 3, 5, 1, 3, 5)):
        centre = WT_MAX * (k + 0.5) / WT_STRATA
        half = 0.05 * WT_MAX / WT_STRATA
        specs.append(_omega_eval_spec(rng, msrc, centre - half, centre + half))
    # Fixed (source dimension, ambient dimension, n) per slot, covering
    # n 8-24 for gram, 4-6 for classify and 4-8 for deriv-gram, and fixed
    # atom scales OMEGA_SCALES: every pair costs a series evaluation whose
    # length grows with scale x distance, so drawing sizes or scales per
    # seed would make the cost of a cycle depend on the seed.
    for msrc, m, n in ((1, 1, 8), (1, 1, 24), (3, 2, 12), (3, 3, 20), (5, 2, 16), (5, 3, 24)):
        kern = _small_kernel(rng, "omega", m, ell=1 + n % 2, natoms=2, param=msrc, scales=OMEGA_SCALES)
        desc = {"kernel": kern, "points": _points(rng, n, m, 1.5).tolist()}
        specs.append(Spec("gram", ["gram"], desc, {"rc": EXIT_OK}))
    for i, (msrc, m, n, trials) in enumerate(((3, 1, 4, 10), (5, 2, 5, 15), (5, 3, 6, 20))):
        # omega(1) = cos mixes to a finite-rank kernel; only m >= 2 sources
        # give the strictly PD mixtures the classification is about
        strict = i != 1
        desc = kernel("omega", radial_measure(rng, "omega", 2, 2, strict, OMEGA_SCALES), m, msrc)
        desc.update(n=n, trials=trials)
        expect = {
            "rc": EXIT_OK if strict else EXIT_NEGATIVE,
            "verdict": "StrictlyPD_and_Universal" if strict else "NotStrictlyPD",
        }
        specs.append(Spec("classify", ["classify"], desc, expect, props={"degenerate": not strict}))
    for msrc, m, n in ((1, 1, 8), (3, 2, 6), (5, 3, 4)):
        kern = _small_kernel(rng, "omega", m, ell=1 + n % 2, natoms=2, param=msrc, scales=OMEGA_SCALES)
        desc = {"kernel": kern, "points": _points(rng, n, m, 1.5).tolist(), "q": 1}
        specs.append(Spec("deriv-gram", ["deriv-gram"], desc, {"rc": EXIT_OK}))
    return specs


def _omega_eval_spec(rng, msrc: int, lo: float, hi: float) -> Spec:
    ell = int(rng.integers(1, 3))
    t = float(rng.uniform(0.5, 2.0))
    wts = rng.uniform(lo, hi, size=1)
    atoms = [
        {"omega": float(wt / t), "G": _cmat(_psd(rng, ell, int(rng.integers(1, ell + 1))))}
        for wt in wts
    ]
    m = int(rng.integers(1, min(msrc, 3) + 1))
    desc = {"kernel": kernel("omega", {"dim": ell, "atoms": atoms}, m, msrc), "t": t}
    wt_actual = [a["omega"] * t for a in atoms]
    return Spec("eval", ["eval"], desc, {"rc": EXIT_OK}, props={"wt": wt_actual})


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------

_CYCLES = {
    "strictness": _strictness_cycle,
    "derivatives": _derivatives_cycle,
    "counterexamples": _counterexamples_cycle,
    "omega": _omega_cycle,
}


# About the seconds of one cycle at the commit that defined the benchmark, on
# a 2-core x86_64 machine (numpy 2.4 with OpenBLAS). A run measures
# --seconds / NOMINAL_CYCLE_S whole cycles, rounded, so every later commit
# runs the same commands; only a benchmark change may recalibrate these.
NOMINAL_CYCLE_S = {
    "strictness": 3.7,
    "derivatives": 4.4,
    "counterexamples": 7.6,
    "omega": 7.3,
}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def _rng(seed: int, workload: str, *stream: int):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), *stream])


def cycle(workload: str, seed: int, index: int) -> list[Spec]:
    """The commands of cycle `index`, in the order they run."""
    rng = _rng(seed, workload, 0, index)
    specs = _CYCLES[workload](rng)
    for slot, spec in enumerate(specs):
        spec.slot = slot
    order = rng.permutation(len(specs))
    specs = [specs[i] for i in order]
    for spec in specs:
        if spec.kind in ("classify", "probe", "demo-shifted-gaussian"):
            spec.args = spec.args + ["--seed", str(int(rng.integers(0, 2**31)))]
    return specs


def warmup(workload: str) -> list[Spec]:
    """One command of each kind, the first of its kind in slot order (the
    cheapest stratum), run untimed before measuring. The warm-up set is the
    same for every seed, so set-up time measures the same work."""
    chosen: dict[str, Spec] = {}
    for spec in _CYCLES[workload](_rng(0, workload, 1)):
        chosen.setdefault(spec.kind, spec)
    return list(chosen.values())
