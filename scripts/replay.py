#!/usr/bin/env python3
"""Replay the benchmark's commands on a source tree, and diff two replays.

    python scripts/replay.py run TREE OUT [--seeds 42 43] [--cycles 0 1]
    python scripts/replay.py diff A B

`run` takes the commands of the chosen seeds and cycles, on all four
workloads, from this checkout's perfbench/workloads.py, and writes their
descriptors and builds their argv with perfbench/run.py's Runner, both
loaded read-only, so that every tree replays the commands the benchmark
runs. Runner.invoke runs each command in this process on TREE's
`opkernel.cli.main`, from the command's own directory under OUT with
relative input and output paths and --no-timestamp, so that no output
names a directory or a time. For each command it records in
OUT/records.json the exit code, stdout, stderr (stripped, as Runner.invoke
returns it), the Python warnings and any exception that escaped main();
the descriptor, report, CSV and sidecar stay in
OUT/<workload>/s<seed>c<cycle>/. OUT must be empty or absent. The BLAS
thread setting is the caller's: run once more with OPENBLAS_NUM_THREADS=1
to cover both settings. No bytecode is written.

`diff` lists every command whose record differs between two replays, by
workload and command kind, and then a count per workload and kind. For a
report, CSV or sidecar that differs it names the fields whose text, ints
or booleans changed and gives the largest move of a float of each kind:
relative to max(1, |trace|) for a square matrix, to max(1, max |entry|)
for any other array, and relative (|b - a| / |a|) for a scalar (absolute
from 0). It exits 1 when any
record differs, 0 when none does.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORDS = "records.json"
FIELDS = ("rc", "error", "stdout", "stderr", "warnings")


def _bench():
    """This checkout's perfbench/run.py, loaded without writing bytecode;
    its `wl` is perfbench/workloads.py."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports its siblings from here
    spec = importlib.util.spec_from_file_location("replay_bench", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _cli(tree: Path):
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    from opkernel import cli

    if Path(cli.__file__).resolve().parent != src / "opkernel":
        raise SystemExit(f"error: imported opkernel from {cli.__file__}, not from {src}")
    return cli


class _KeepStdout:
    """TREE's cli, whose main() keeps the stdout that Runner.invoke discards."""

    def __init__(self, cli):
        self.cli = cli
        self.stdout = ""

    def main(self, argv):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                return self.cli.main(argv)
        finally:
            self.stdout = out.getvalue()


def _invoke(runner, argv) -> dict:
    """One Runner.invoke call: exit code, escaped exception, output and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, error, _, stderr = runner.invoke(argv)
    found = [f"{w.category.__name__}: {w.message}" for w in caught]
    return {"rc": rc, "error": error, "stdout": runner.cli.stdout, "stderr": stderr, "warnings": found}


def run(args) -> int:
    bench = _bench()
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"error: {out} is not empty")
    cli = _KeepStdout(_cli(Path(args.tree)))
    records = []
    home = os.getcwd()
    try:
        for workload in bench.wl.WORKLOADS:
            for seed in args.seeds:
                for index in args.cycles:
                    where = Path(workload) / f"s{seed}c{index}"
                    (out / where).mkdir(parents=True)
                    os.chdir(out / where)
                    runner = bench.Runner(cli, Path("."))  # "." keeps every path relative
                    jobs = runner.prepare(bench.wl.cycle(workload, seed, index))
                    for i, (spec, argv, report) in enumerate(jobs):
                        rec = {"workload": workload, "seed": seed, "cycle": index, "index": i, "kind": spec.kind}
                        rec["argv"] = argv
                        rec.update(_invoke(runner, argv))
                        files = bench._output_files(report, spec.csv)
                        rec["files"] = [str(where / f) for f in files if f.exists()]
                        records.append(rec)
                    os.chdir(home)
    finally:
        os.chdir(home)
    (out / RECORDS).write_text(json.dumps(records, indent=1) + "\n")
    failed = sum(r["error"] is not None for r in records)
    print(f"replayed {len(records)} commands into {out} ({failed} raised out of main)")
    return 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------


def _csv_tree(text: str):
    """A CSV report as its comment lines and its matrix of re,im cell pairs."""
    lines = text.splitlines()
    notes = [line for line in lines if line.startswith("#")]
    cells = np.array([[float(c) for c in line.split(",")] for line in lines if not line.startswith("#")])
    matrix = cells[:, 0::2] + 1j * cells[:, 1::2] if cells.size else cells
    return {"comments": notes, "matrix": matrix}


def _array(node):
    """A {"re", "im"} complex array of the reports as a numpy array, else None."""
    if isinstance(node, dict) and "re" in node and set(node) <= {"re", "im"}:
        try:
            re = np.array(node["re"], dtype=float)
            return re + 1j * np.array(node.get("im", np.zeros_like(re)), dtype=float)
        except (TypeError, ValueError):
            return None
    if isinstance(node, np.ndarray):
        return node
    return None


def _walk(a, b, path: str, moves: list, changed: list) -> None:
    """Collect the float moves (move, path, how) and the other changed paths."""
    xa, xb = _array(a), _array(b)
    if xa is not None and xb is not None:
        if xa.shape != xb.shape:
            changed.append(f"{path} (shape {xa.shape} -> {xb.shape})")
        elif xa.tobytes() != xb.tobytes():  # tells -0.0 from 0.0
            square = xa.ndim == 2 and xa.shape[0] == xa.shape[1]
            scale = max(1.0, abs(np.trace(xa))) if square else max(1.0, float(np.max(np.abs(xa), initial=0.0)))
            how = "max(1, |trace|)" if square else "max(1, max |entry|)"
            moves.append((float(np.max(np.abs(xb - xa), initial=0.0)) / scale, path, how))
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                changed.append(f"{path}.{key} ({'added' if key in b else 'removed'})")
            else:
                _walk(a[key], b[key], f"{path}.{key}", moves, changed)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (u, v) in enumerate(zip(a, b)):
            _walk(u, v, f"{path}[{k}]", moves, changed)
    elif type(a) is float and type(b) is float:
        if repr(a) != repr(b):
            moves.append((abs(b - a) / abs(a) if a else abs(b), path, "relative" if a else "absolute, from 0"))
    elif a != b or type(a) is not type(b):
        changed.append(path)


def _file_diff(a: Path, b: Path, name: str) -> str | None:
    if not a.exists() or not b.exists():
        return f"{name} {'missing in A' if b.exists() else 'missing in B'}"
    ta, tb = a.read_bytes(), b.read_bytes()
    if ta == tb:
        return None
    try:
        if name.endswith(".csv"):
            ja, jb = _csv_tree(ta.decode()), _csv_tree(tb.decode())
        else:
            ja, jb = json.loads(ta), json.loads(tb)
    except ValueError:
        return f"{name} differs (not parsed)"
    moves, changed = [], []
    _walk(ja, jb, "", moves, changed)
    parts = []
    if changed:
        shown = ", ".join(changed[:6]) + (f", ... ({len(changed)} in all)" if len(changed) > 6 else "")
        parts.append(f"changed {shown}")
    for how in sorted({how for _, _, how in moves}):
        move, path, _ = max(m for m in moves if m[2] == how)
        parts.append(f"largest move {move:.2e} at {path or '.'} ({how})")
    return f"{name}: " + ("; ".join(parts) or "bytes differ, values equal")


def diff(args) -> int:
    a, b = Path(args.a), Path(args.b)
    ra = {(r["workload"], r["seed"], r["cycle"], r["index"]): r for r in json.loads((a / RECORDS).read_text())}
    rb = {(r["workload"], r["seed"], r["cycle"], r["index"]): r for r in json.loads((b / RECORDS).read_text())}
    counts: dict[tuple, list] = {}
    for key in sorted(set(ra) | set(rb)):
        x, y = ra.get(key), rb.get(key)
        kind = (x or y)["kind"]
        total = counts.setdefault((key[0], kind), [0, 0])
        total[1] += 1
        label = f"{key[0]} {kind} seed {key[1]} cycle {key[2]} #{key[3]}"
        if x is None or y is None or x["argv"] != y["argv"]:
            notes = ["the command is not in both replays or not the same"]
        else:
            notes = [f"{f}: {x[f]!r} -> {y[f]!r}" for f in FIELDS if x[f] != y[f]]
            for name in sorted(set(x["files"]) | set(y["files"])):
                note = _file_diff(a / name, b / name, name)
                if note:
                    notes.append(note)
        if notes:
            total[0] += 1
            print(label)
            for note in notes:
                print(f"  {note}")
    moved = 0
    for (workload, kind), (n, m) in sorted(counts.items()):
        print(f"{workload:16s} {kind:24s} {n:4d} of {m:4d} differ")
        moved += n
    print(f"{moved} of {sum(m for _, m in counts.values())} commands differ")
    return 1 if moved else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="replay the commands on TREE into OUT")
    r.add_argument("tree", help="root of the source tree whose src/opkernel runs the commands")
    r.add_argument("out", help="empty or absent directory for the records and reports")
    r.add_argument("--seeds", type=int, nargs="+", default=[42, 43])
    r.add_argument("--cycles", type=int, nargs="+", default=[0, 1])
    r.set_defaults(func=run)
    d = sub.add_parser("diff", help="list the commands whose records differ between two replays")
    d.add_argument("a")
    d.add_argument("b")
    d.set_defaults(func=diff)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
