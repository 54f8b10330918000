"""Command-line front end.

Subcommands: eval, gram, deriv-gram, classify, demo, interp, monotone,
probe. Inputs are JSON descriptor files (--input); unknown fields are
rejected with exit code 2 and a message naming the offender. Reports are
JSON with sorted keys, embed the parsed input descriptor plus the seed and
effective tolerances, and are byte-identical across reruns with the same
seed under --no-timestamp.

Exit codes: 0 success / affirmative verdict, 2 input error (InputError, or
an OSError reading or writing a file), 3 negative verdict (NotStrictlyPD,
failed monotonicity, probe violation, demo sign pattern not reproduced), 4
numerical failure (NumericalError).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .certify import (
    PROBE_TOL,
    PROJECTION_FLOOR_TOL,
    classify_and_report,
    demo_counterexample_radial_bump,
    demo_counterexample_shifted_gaussian,
    probe_strict_pd,
)
from .errors import InputError, InvalidGrid, NumericalError, SchemaError
from .hermitian import PSD_TOL, eigen_hermitian
from .kernel import (
    DUPLICATE_POINT_TOL,
    PlaneWaveMeasure,
    deriv_gram,
    gram,
    gram_to_csv,
    kernel_eval,
    plane_wave_kernel,
    radial_function_eval,
    radial_kernel,
)
from .measures import OperatorMeasure, measure_from_json
from .profiles import (
    CM_DEFAULT_H,
    RadialProfile,
    completely_monotone_check,
    ell_cm_check,
    williamson_construct,
)
from .rkhs import hermite_interpolate, interpolate, rkhs_eval
from .schema import (
    _fields,
    _float_field,
    _int_field,
    _list_field,
    _point_field,
    _points_field,
    complex_from_json,
    complex_to_json,
    write_report,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_NUMERIC = 4

DEMO_MIXED_TOL = 1e-12
DEMO_RELATIVE_TOL = 1e-6
DEMO_REFERENCE_FLOOR = 1e-4
# Monotonicity checks take time and memory linear in the grid size; a
# 1e5-point grid takes under a second.
MAX_MONOTONE_GRID_NUM = 100_000

# tolerance registry: every CLI-level knob defaults from a module constant
# and lands in the report so pinned numbers stay reproducible
_TOL_DEFAULTS = {
    "psd": PSD_TOL,  # classification / PSD cutoff
    "probe": PROBE_TOL,  # probe violation threshold
    "duplicate": DUPLICATE_POINT_TOL,  # coincident-point rejection in Grams
    "ridge": None,  # interpolation ridge; None = data-scaled default
}


# ----------------------------------------------------------------------
# kernel descriptors
# ----------------------------------------------------------------------


def family_from_json(obj):
    """Parse a family descriptor; returns a RadialProfile, or None for the
    plane-wave family (which carries no radial profile)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("family descriptor needs a 'kind' field")
    kind = obj["kind"]
    if kind == "gaussian":
        _fields(obj, "gaussian family", ("kind",))
        return RadialProfile.gaussian()
    if kind == "askey":
        _fields(obj, "askey family", ("kind", "ell"))
        return RadialProfile.askey(_int_field(obj["ell"], "ell"))
    if kind == "omega":
        _fields(obj, "omega family", ("kind", "m"))
        return RadialProfile.omega(_int_field(obj["m"], "m"))
    if kind == "plane_wave":
        _fields(obj, "plane-wave family", ("kind",))
        return None
    raise SchemaError(f"unknown family kind {kind!r}")


def plane_wave_measure_from_json(obj, m: int) -> PlaneWaveMeasure:
    _fields(obj, "plane-wave measure", ("dim", "atoms"))
    dim = _int_field(obj["dim"], "dim")
    atoms = []
    for i, atom in enumerate(_list_field(obj["atoms"], "atoms")):
        _fields(atom, f"plane-wave atom {i}", ("xi", "G"))
        xi = _point_field(atom["xi"], f"atom {i} 'xi'", m)
        atoms.append((xi, complex_from_json(atom["G"], f"plane-wave atom {i} 'G'")))
    return PlaneWaveMeasure(dim, m, atoms)


def kernel_from_json(obj):
    _fields(obj, "kernel descriptor", ("family", "measure", "ambient_dim"))
    m = _int_field(obj["ambient_dim"], "ambient_dim")
    profile = family_from_json(obj["family"])
    if profile is None:
        return plane_wave_kernel(plane_wave_measure_from_json(obj["measure"], m))
    return radial_kernel(profile, measure_from_json(obj["measure"]), m)


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------


def _parse_tols(pairs) -> dict:
    tols = dict(_TOL_DEFAULTS)
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise SchemaError(f"--tol wants NAME=VALUE, got {pair!r}")
        if name not in tols:
            raise SchemaError(
                f"unknown tolerance {name!r} (known: {sorted(tols)})"
            )
        try:
            tols[name] = float(value)
        except ValueError as exc:
            raise SchemaError(f"--tol {name} needs a numeric value") from exc
        if not math.isfinite(tols[name]) or tols[name] < 0.0:
            raise SchemaError(f"--tol {name} must be finite and >= 0, got {value!r}")
    return tols


def _report(args, command: str, input_obj, result: dict) -> dict:
    rep = {
        "command": command,
        "input": input_obj,
        "seed": args.seed,
        "tolerances": args.tols,
        "version": __version__,
        "result": result,
    }
    if not args.no_timestamp:
        rep["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return rep


def _emit(args, rep: dict) -> None:
    """Write the report to --output or stdout, one row block of each matrix
    at a time; every check has run before the first byte."""
    if args.output:
        with open(args.output, "w") as fh:
            write_report(rep, fh)
    else:
        write_report(rep, sys.stdout)


def _load_input(args):
    if not args.input:
        raise SchemaError("this command requires --input PATH (a JSON descriptor)")
    try:
        with open(args.input, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past 4300 digits
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("input JSON is nested too deeply to parse") from exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_eval(args) -> int:
    obj = _load_input(args)
    _fields(obj, "eval input", ("kernel",), ("x", "y", "t"))
    kernel = kernel_from_json(obj["kernel"])
    if "t" in obj:
        if "x" in obj or "y" in obj:
            raise SchemaError("give either 'x' and 'y' or 't', not both")
        value = radial_function_eval(kernel, _float_field(obj["t"], "t"))
    else:
        for field in ("x", "y"):
            if field not in obj:
                raise SchemaError(f"missing field '{field}' in eval input")
        value = kernel_eval(
            kernel,
            _point_field(obj["x"], "x", kernel.m),
            _point_field(obj["y"], "y", kernel.m),
        )
    _emit(args, _report(args, "eval", obj, {"matrix": complex_to_json(value)}))
    return EXIT_OK


def _gram_layout(g, q=None) -> dict:
    layout = {
        "n_points": int(g.points.shape[0]),
        "ell": g.ell,
        "dim": g.matrix.dim,
        "points": g.points,
    }
    if q is None:
        layout["row_layout"] = "point_index * ell + component"
    else:
        layout["q"] = g.q
        layout["multi_indices"] = [list(a) for a in g.multi_indices]
        layout["row_layout"] = "(point_index * n_indices + index_rank) * ell + component"
    return layout


def cmd_gram(args) -> int:
    """gram, and deriv-gram at the jet order q of its input."""
    obj = _load_input(args)
    if args.command == "deriv-gram":
        _fields(obj, "deriv-gram input", ("kernel", "points", "q"))
        q = _int_field(obj["q"], "q")
    else:
        _fields(obj, "gram input", ("kernel", "points"))
        q = None
    kernel = kernel_from_json(obj["kernel"])
    pts = _points_field(obj["points"], "points", kernel.m)
    if args.format == "csv" and not args.output:
        raise SchemaError("--format csv needs --output PATH for the matrix")
    if q is None:
        g = gram(kernel, pts, tol=args.tols["duplicate"])
    else:
        g = deriv_gram(kernel, pts, q, tol=args.tols["duplicate"])
    lo = float(eigen_hermitian(g.matrix).eigenvalues[0])
    meta = _gram_layout(g, q)
    meta["min_eigenvalue"] = lo
    if args.format == "csv":
        with open(args.output, "w") as fh:
            gram_to_csv(g, fh, q)
        sidecar = _report(args, args.command, obj, meta)
        with open(args.output + ".meta.json", "w") as fh:
            write_report(sidecar, fh)
        sys.stdout.write(
            f"wrote {args.output} and {args.output}.meta.json "
            f"(dim {g.matrix.dim}, min eigenvalue {lo!r})\n"
        )
        return EXIT_OK
    result = dict(meta)
    result["matrix"] = complex_to_json(g.matrix.entries)
    _emit(args, _report(args, args.command, obj, result))
    return EXIT_OK


def cmd_classify(args) -> int:
    obj = _load_input(args)
    _fields(
        obj,
        "classify input",
        ("family", "measure", "ambient_dim"),
        ("n", "trials", "box"),
    )
    profile = family_from_json(obj["family"])
    if profile is None:
        raise SchemaError("classification needs a radial family, not plane_wave")
    measure = measure_from_json(obj["measure"])
    m = _int_field(obj["ambient_dim"], "ambient_dim")
    rep = classify_and_report(
        measure,
        profile,
        m,
        n=_int_field(obj.get("n", 4), "n"),
        trials=_int_field(obj.get("trials", 20), "trials"),
        seed=args.seed,
        box=_float_field(obj.get("box", 2.0), "box"),
        tol=args.tols["psd"],
        probe_tol=args.tols["probe"],
    )
    cls = rep.classification
    result = {
        "verdict": cls.verdict,
        "min_eigenvalue": float(cls.min_eigenvalue),
        "witness": None if cls.witness is None else complex_to_json(cls.witness),
        "family_kind": cls.family_kind,
        "dim": cls.dim,
        "jet_order": rep.jet_order,
        "consistent": rep.consistent,
        "probe": _probe_json(rep.probe),
        "witness_design": None
        if rep.witness_design is None
        else {"min_eigenvalue": rep.witness_design[0], "scale": rep.witness_design[1]},
        "notes": list(rep.notes),
    }
    _emit(args, _report(args, "classify", obj, result))
    return EXIT_OK if cls.verdict == "StrictlyPD_and_Universal" else EXIT_NEGATIVE


def _parse_w(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SchemaError(f"--w wants comma-separated numbers, got {text!r}") from exc


def cmd_demo(args) -> int:
    if args.which == "shifted-gaussian":
        w = _parse_w(args.w)
        r = demo_counterexample_shifted_gaussian(w, seed=args.seed)
        ok = abs(r.mixed_form) <= DEMO_MIXED_TOL and r.projection_floor > PROJECTION_FLOOR_TOL
        descriptor = {"which": args.which, "w": [float(c) for c in w]}
        result = {
            "mixed_form": r.mixed_form,
            "projection_floor": r.projection_floor,
            "params": r.params,
            "reproduced": ok,
            "criteria": {
                "mixed_form_tol": DEMO_MIXED_TOL,
                "projection_floor_tol": PROJECTION_FLOOR_TOL,
            },
        }
    else:
        r = demo_counterexample_radial_bump(grid_n=args.grid_n, box=args.box, m=args.m)
        ref_floor = DEMO_REFERENCE_FLOOR * r.params["reference_scale"]
        ok = r.relative_form <= DEMO_RELATIVE_TOL and r.reference_form > ref_floor
        descriptor = {
            "which": args.which,
            "grid_n": args.grid_n,
            "box": args.box,
            "m": args.m,
        }
        result = {
            "mixed_form": r.mixed_form,
            "reference_form": r.reference_form,
            "relative_form": r.relative_form,
            "params": r.params,
            "reproduced": ok,
            "criteria": {
                "relative_form_tol": DEMO_RELATIVE_TOL,
                "reference_floor": ref_floor,
            },
        }
    _emit(args, _report(args, "demo", descriptor, result))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _sin_cos_experiment(args) -> dict:
    """Interpolate (sin, cos) with the gaussian identity-measure kernel on
    [-1, 1] and report sup-grid errors for n = 5 and n = 20 centers."""
    kernel = radial_kernel(RadialProfile.gaussian(), OperatorMeasure(2, [(1.0, np.eye(2))]), 1)
    grid = np.linspace(-1.0, 1.0, 201)
    errors = {}
    residuals = {}
    ridges = {}
    for n in (5, 20):
        centers = np.linspace(-1.0, 1.0, n).reshape(n, 1)
        targets = np.stack([np.sin(centers[:, 0]), np.cos(centers[:, 0])], axis=1)
        res = interpolate(kernel, centers, targets, ridge=args.tols["ridge"], tol=args.tols["duplicate"])
        val = rkhs_eval(res.element, grid[:, None])
        errors[str(n)] = max(
            float(np.max(np.abs(val[:, 0].real - np.sin(grid)))),
            float(np.max(np.abs(val[:, 1].real - np.cos(grid)))),
        )
        residuals[str(n)] = res.residual
        ridges[str(n)] = res.ridge
    return {
        "experiment": "sin-cos",
        "sup_errors": errors,
        "error_ratio_5_to_20": errors["5"] / errors["20"],
        "residuals": residuals,
        "ridges": ridges,
        "eval_grid": {"start": -1.0, "stop": 1.0, "num": 201},
    }


def cmd_interp(args) -> int:
    obj = _load_input(args)
    if isinstance(obj, dict) and "experiment" in obj:
        _fields(obj, "interp input", ("experiment",))
        if obj["experiment"] != "sin-cos":
            raise SchemaError(f"unknown experiment {obj['experiment']!r}")
        _emit(args, _report(args, "interp", obj, _sin_cos_experiment(args)))
        return EXIT_OK
    if isinstance(obj, dict) and "data" in obj:
        _fields(obj, "interp input", ("kernel", "data"), ("ridge",))
        kernel = kernel_from_json(obj["kernel"])
        data = []
        for i, datum in enumerate(_list_field(obj["data"], "data")):
            _fields(datum, f"datum {i}", ("x", "alpha", "target"))
            x = _point_field(datum["x"], f"datum {i} 'x'", kernel.m)
            alpha_list = _list_field(datum["alpha"], f"datum {i} alpha")
            alpha = tuple(_int_field(a, f"datum {i} alpha") for a in alpha_list)
            tgt = complex_from_json(datum["target"], f"datum {i} 'target'")
            if tgt.shape != (kernel.ell,):
                raise SchemaError(f"target must be a vector of length {kernel.ell}")
            data.append((x, alpha, tgt))
        solve = functools.partial(hermite_interpolate, kernel, data)
    else:
        _fields(obj, "interp input", ("kernel", "points", "targets"), ("ridge",))
        kernel = kernel_from_json(obj["kernel"])
        pts = _points_field(obj["points"], "points", kernel.m)
        targets = complex_from_json(obj["targets"], "'targets'")
        if targets.shape != (pts.shape[0], kernel.ell):
            raise SchemaError(
                f"'targets' must be {pts.shape[0]} x {kernel.ell} (re/im matrices)"
            )
        solve = functools.partial(interpolate, kernel, pts, targets)
    ridge = args.tols["ridge"]
    if ridge is None and "ridge" in obj:
        ridge = _float_field(obj["ridge"], "ridge")
    res = solve(ridge=ridge, tol=args.tols["duplicate"])
    result = {
        "residual": res.residual,
        "ridge": res.ridge,
        "coefficients": [
            {"alpha": alpha, "x": x, "v": complex_to_json(v)}
            for alpha, x, v in zip(res.element.alphas.tolist(), res.element.points, res.element.vectors)
        ],
    }
    _emit(args, _report(args, "interp", obj, result))
    return EXIT_OK


_NAMED_FUNCTIONS = {
    "exp-neg": lambda t: np.exp(-t),
    "inv-1p": lambda t: 1.0 / (1.0 + t),
    "two-plus-sin": lambda t: 2.0 + np.sin(t),
}


def cmd_monotone(args) -> int:
    obj = _load_input(args)
    _fields(
        obj,
        "monotone input",
        ("function", "mode"),
        ("grid", "nmax", "h", "ell"),
    )
    spec = obj["function"]
    ell_from_fn = None
    if isinstance(spec, str):
        if spec not in _NAMED_FUNCTIONS:
            raise SchemaError(
                f"unknown function {spec!r} (known: {sorted(_NAMED_FUNCTIONS)})"
            )
        fn = _NAMED_FUNCTIONS[spec]
    else:
        _fields(spec, "'function'", ("williamson",))
        w = spec["williamson"]
        _fields(w, "williamson descriptor", ("atoms", "ell"))
        ell_from_fn = _int_field(w["ell"], "ell")
        if not isinstance(w["atoms"], list) or not w["atoms"]:
            raise SchemaError("williamson 'atoms' must be a nonempty list")
        atoms = []
        for i, pair in enumerate(w["atoms"]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"williamson atom {i} must be a [r, lambda] pair")
            atoms.append((_float_field(pair[0], "r"), _float_field(pair[1], "lambda")))
        fn = williamson_construct(atoms, ell_from_fn)

    grid_spec = obj.get("grid", {"start": 0.5, "stop": 5.0, "num": 10})
    _fields(grid_spec, "'grid'", ("start", "stop", "num"))
    num = _int_field(grid_spec["num"], "num")
    if num < 1:
        raise InvalidGrid(f"grid 'num' must be >= 1, got {num}")
    if num > MAX_MONOTONE_GRID_NUM:
        raise InvalidGrid(f"grid 'num' must be <= {MAX_MONOTONE_GRID_NUM}, got {num}")
    grid = np.linspace(
        _float_field(grid_spec["start"], "start"),
        _float_field(grid_spec["stop"], "stop"),
        num,
    )
    h = _float_field(obj.get("h", CM_DEFAULT_H), "h")

    mode = obj["mode"]
    if mode == "cm":
        nmax = _int_field(obj.get("nmax", 6), "nmax")
        res = completely_monotone_check(fn, grid, nmax=nmax, h=h)
        result = {
            "mode": "cm",
            "ok": res.ok,
            "violation": None
            if res.violation is None
            else {"n": res.violation[0], "t": res.violation[1]},
            "tolerance": res.tolerance,
            "nmax": nmax,
        }
        ok = res.ok
    elif mode == "ell-cm":
        ell = obj.get("ell", ell_from_fn)
        if ell is None:
            raise SchemaError("mode 'ell-cm' needs an 'ell' field")
        ell = _int_field(ell, "ell")
        res = ell_cm_check(fn, ell, grid, h=h)
        result = {
            "mode": "ell-cm",
            "ok": res.ok,
            "failed_checks": list(res.failed_checks),
            "tolerance": res.tolerance,
            "notes": res.notes,
            "ell": ell,
        }
        ok = res.ok
    else:
        raise SchemaError(f"unknown mode {mode!r} (want 'cm' or 'ell-cm')")
    result["grid"] = {
        "start": float(grid[0]),
        "stop": float(grid[-1]),
        "num": int(grid.size),
    }
    result["h"] = h
    _emit(args, _report(args, "monotone", obj, result))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _probe_json(rep) -> dict:
    out = {
        "verdict": rep.verdict,
        "trials": rep.trials,
        "n": rep.n,
        "box": rep.box,
        "seed": rep.seed,
        "tol": rep.tol,
        "min_eigenvalues": [float(v) for v in rep.min_eigenvalues],
        "global_min": rep.global_min,
        "violation": None,
    }
    if rep.violation is not None:
        out["violation"] = {
            "trial": rep.violation.trial,
            "points": rep.violation.points,
            "min_eigenvalue": rep.violation.min_eigenvalue,
            "witness": complex_to_json(rep.violation.witness),
        }
    return out


def cmd_probe(args) -> int:
    obj = _load_input(args)
    _fields(obj, "probe input", ("kernel",), ("n", "trials", "box"))
    kernel = kernel_from_json(obj["kernel"])
    rep = probe_strict_pd(
        kernel,
        n=_int_field(obj.get("n", 4), "n"),
        trials=_int_field(obj.get("trials", 20), "trials"),
        seed=args.seed,
        box=_float_field(obj.get("box", 2.0), "box"),
        tol=args.tols["probe"],
    )
    _emit(args, _report(args, "probe", obj, _probe_json(rep)))
    return EXIT_OK if rep.verdict == "NoViolationFound" else EXIT_NEGATIVE


# ----------------------------------------------------------------------
# parser / dispatch
# ----------------------------------------------------------------------


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


class _Parser(argparse.ArgumentParser):
    """Refuses a bad argument as any bad input: one `error: ` line, exit 2."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    common.add_argument("--seed", type=_nonneg_int, default=0, help="seed for randomized steps (default 0)")
    common.add_argument("--no-timestamp", action="store_true", help="omit the timestamp (for byte-identical reruns)")
    common.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help=f"override a tolerance; names: {sorted(_TOL_DEFAULTS)}",
    )
    described = argparse.ArgumentParser(add_help=False, parents=[common])
    described.add_argument("--input", metavar="PATH", help="JSON descriptor file")
    matrix = argparse.ArgumentParser(add_help=False, parents=[described])
    matrix.add_argument("--format", choices=("json", "csv"), default="json", help="output format of the matrix")

    parser = _Parser(
        prog="opkernel",
        description="operator-valued positive definite kernels: evaluation, "
        "Grams, classification, probes, counterexample demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[described], help="evaluate a kernel block at (x, y) or radial t")
    p.set_defaults(func=cmd_eval)
    p = sub.add_parser("gram", parents=[matrix], help="block Gram matrix at a point design")
    p.set_defaults(func=cmd_gram)
    p = sub.add_parser("deriv-gram", parents=[matrix], help="derivative block Gram at jet order q")
    p.set_defaults(func=cmd_gram)
    p = sub.add_parser("classify", parents=[described], help="exact strictness classification plus probe")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("demo", parents=[common], help="reproduce a counterexample")
    p.add_argument("which", choices=("shifted-gaussian", "radial-bump"))
    p.add_argument("--w", default="1", help="shift vector, comma-separated (shifted-gaussian)")
    p.add_argument("--grid-n", type=int, default=512, help="grid size (radial-bump)")
    p.add_argument("--box", type=float, default=4.0, help="half-width of the spatial grid (radial-bump)")
    p.add_argument("--m", type=int, default=1, help="ambient dimension (radial-bump; only 1 is implemented)")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("interp", parents=[described], help="kernel interpolation / the sin-cos experiment")
    p.set_defaults(func=cmd_interp)
    p = sub.add_parser("monotone", parents=[described], help="complete/multiple monotonicity checks")
    p.set_defaults(func=cmd_monotone)
    p = sub.add_parser("probe", parents=[described], help="random-design strictness probe")
    p.set_defaults(func=cmd_probe)
    return parser


# built by the first main() call and shared by later calls in the process;
# each parse_args returns a fresh Namespace, so no call sees another's options
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.tols = _parse_tols(args.tol)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy's names the allocation that failed
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
