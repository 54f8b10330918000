#!/usr/bin/env python3
"""Interpolation convergence sweep for the gaussian identity-measure kernel.

Fits (sin x, cos x) at n uniform centers on [-1, 1] for a range of n and
prints the sup error on a dense grid. Strict positive definiteness shows up
as fast error decay until the Gram's conditioning hits the ridge floor.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from opkernel.errors import IllConditioned
from opkernel.kernel import radial_kernel
from opkernel.measures import OperatorMeasure
from opkernel.profiles import RadialProfile
from opkernel.rkhs import interpolate, rkhs_eval


@dataclass
class Config:
    ns: list[int] = field(default_factory=lambda: [5, 10, 20, 40])
    grid_points: int = 201
    ridge: float | None = None
    json_out: str | None = None


def parse_args(argv=None) -> Config:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ns", default="5,10,20,40", help="comma-separated center counts")
    ap.add_argument("--grid-points", type=int, default=201)
    ap.add_argument("--ridge", type=float, default=None, help="explicit ridge (default: data-scaled)")
    ap.add_argument("--json-out", default=None)
    ns = ap.parse_args(argv)
    return Config(
        ns=[int(p) for p in ns.ns.split(",")],
        grid_points=ns.grid_points,
        ridge=ns.ridge,
        json_out=ns.json_out,
    )


def sup_error(kernel, n: int, grid: np.ndarray, ridge):
    centers = np.linspace(-1.0, 1.0, n).reshape(n, 1)
    targets = np.stack([np.sin(centers[:, 0]), np.cos(centers[:, 0])], axis=1)
    # large n drives the gaussian Gram past float conditioning; back off by
    # growing the ridge until the factorization goes through
    attempt = ridge
    res = None
    for _ in range(4):
        try:
            res = interpolate(kernel, centers, targets, ridge=attempt)
            break
        except IllConditioned as exc:
            last = exc
            attempt = 1e-8 if attempt is None else attempt * 1e3
    if res is None:
        raise last
    val = rkhs_eval(res.element, grid[:, None])
    worst = max(np.max(np.abs(val[:, 0].real - np.sin(grid))), np.max(np.abs(val[:, 1].real - np.cos(grid))))
    return float(worst), res.residual, res.ridge


def main(argv=None) -> int:
    cfg = parse_args(argv)
    measure = OperatorMeasure(2, [(1.0, np.eye(2))])
    kernel = radial_kernel(RadialProfile.gaussian(), measure, 1)
    grid = np.linspace(-1.0, 1.0, cfg.grid_points)

    rows = []
    print(f"{'n':>4}  {'sup error':>12}  {'solve residual':>14}  {'ridge':>10}")
    prev = None
    for n in cfg.ns:
        err, resid, ridge = sup_error(kernel, n, grid, cfg.ridge)
        shrink = "" if prev is None else f"  x{prev / err:.1f}"
        print(f"{n:>4}  {err:>12.3e}  {resid:>14.3e}  {ridge:>10.1e}{shrink}")
        rows.append({"n": n, "sup_error": err, "residual": resid, "ridge": ridge})
        prev = err

    if cfg.json_out:
        with open(cfg.json_out, "w") as fh:
            json.dump({"config": asdict(cfg), "rows": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {cfg.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
