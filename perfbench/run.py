"""opkernel benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. A run
writes each cycle's seeded descriptors under perfbench/.work, then calls
`opkernel.cli.main` in-process on them in a closed loop with one client:
every command is timed from the main() call until it returns with its
report written, and is checked afterwards, outside the timing, by the
numpy-only oracles in oracles.py.

A run measures a whole number of cycles: --seconds divided by the
workload's nominal cycle time (workloads.NOMINAL_CYCLE_S), at least one.
Every commit therefore runs the same commands for a given seed, about
--seconds of them at the commit that defined the benchmark.

On a machine shared with other tenants the speed of the processor drifts
by a third over minutes. Before and after each cycle a separate process
(speed.py) times a fixed reference task. On the workloads in SPEED_SCALED
the run reports command times at the reference speed: seconds x
REFERENCE_S / (mean reference time around the cycle); on the others, and
for set-up time, times as measured. The detail line has both figures and
the speed factors.

With --trace 0 the last line reports the end-to-end metrics. With
--trace 1 the run measures half the cycles untraced, then repeats the same
commands with every layer traced (tracer.py); the last line reports the
per-layer metrics per cycle and the tracing overhead, and every report must
be byte-identical to its untraced twin.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
`failed` counts commands whose exit code, verdict or output is not what the
descriptor's construction implies, or that raised out of main; `correct`
is false when the run cannot vouch for its own measurement (a traced report
that differs from its untraced twin). The line before it is a detail
record: sample counts, the tail percentile used, fail_ratio, failures per
command kind, per-slot times, input properties and the environment; it is
also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# set-up time runs from here: it covers importing numpy and the package,
# writing the warm-up descriptors and running them
T0 = time.perf_counter()

import numpy as np  # noqa: E402
import oracles  # noqa: E402  (this file's directory is on sys.path)
import workloads as wl  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# Seconds a reading of speed.py takes on the machine the nominal cycle
# times were measured on; scaled times are reported at this speed.
REFERENCE_S = 0.032
# Workloads whose command times are reported at the reference speed. When
# the machine was busy, scaling cut the run-to-run spread of strictness and
# derivatives times by half to three quarters; when it was quiet, it
# widened it by up to two thirds. Omega and counterexamples commands follow
# the reference only weakly, and scaling widened their spread in most
# ten-run sets.
SPEED_SCALED = ("strictness", "derivatives")
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    if not (SRC / "opkernel" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'opkernel'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from opkernel import cli

    if Path(cli.__file__).resolve().parent != (SRC / "opkernel").resolve():
        raise SystemExit(f"error: imported opkernel from {cli.__file__}, not from {SRC}")
    return cli


# ----------------------------------------------------------------------
# running commands
# ----------------------------------------------------------------------


class Runner:
    """Writes descriptors and invokes the CLI in this process."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.count = 0

    def prepare(self, specs) -> list[tuple]:
        jobs = []
        for spec in specs:
            i = self.count
            self.count += 1
            argv = list(spec.args)
            if spec.descriptor is not None:
                path = self.workdir / f"in{i}.json"
                path.write_text(json.dumps(spec.descriptor))
                argv += ["--input", str(path)]
            out = self.workdir / (f"out{i}.csv" if spec.csv else f"out{i}.json")
            argv += ["--output", str(out), "--no-timestamp"]
            if spec.csv:
                argv += ["--format", "csv"]
            jobs.append((spec, argv, out))
        return jobs

    def invoke(self, argv) -> tuple[int | None, str | None, float, str]:
        """(exit code, escaped exception, seconds, stderr) of one main() call."""
        rc, error = None, None
        sink_out, sink_err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback out of main is a failed command
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        return rc, error, dt, sink_err.getvalue().strip()


def _output_files(out: Path, csv: bool) -> list[Path]:
    return [out, Path(str(out) + ".meta.json")] if csv else [out]


def _input_file(argv) -> list[Path]:
    return [Path(argv[argv.index("--input") + 1])] if "--input" in argv else []


def _digest(files) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for f in files:
        data = f.read_bytes() if f.exists() else b"<missing>"
        size += len(data) if f.exists() else 0
        h.update(data)
    return h.hexdigest(), size


def warm_up(workload: str, runner: Runner) -> None:
    """Write the warm-up descriptors and run each once, untimed."""
    for spec, argv, out in runner.prepare(wl.warmup(workload)):
        runner.invoke(argv)
        for f in _output_files(out, spec.csv) + _input_file(argv):
            f.unlink(missing_ok=True)


class Record:
    __slots__ = ("kind", "slot", "seconds", "speed", "failure", "digest", "size", "rc", "props")

    def __init__(self, spec, seconds, failure, digest, size, rc):
        self.kind, self.slot, self.props = spec.kind, spec.slot, spec.props
        self.seconds, self.failure = seconds, failure
        self.digest, self.size, self.rc = digest, size, rc
        self.speed = 1.0  # REFERENCE_S / reference time around the command's cycle

    def time(self, scaled: bool) -> float:
        """Seconds as measured, or as they would be at the reference speed."""
        return self.seconds * self.speed if scaled else self.seconds


class SpeedProbe:
    """The reference-task process of speed.py, read on demand."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py")],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("error: the speed reference process ended early")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_cycles(workload: str, seed: int, cycles: int, runner: Runner, probe: SpeedProbe,
               tracer=None) -> list[Record]:
    """Run the cycles, timing every command, and record for each cycle the
    reference speed measured just before and just after it."""
    records = []
    before = probe.seconds()
    for index in range(cycles):
        start = len(records)
        for spec, argv, out in runner.prepare(wl.cycle(workload, seed, index)):
            if tracer is not None:
                tracer.current_command = len(records)
            rc, error, dt, stderr = runner.invoke(argv)
            files = _output_files(out, spec.csv)
            failure = oracles.check(spec, rc, error, str(out))
            if failure is not None and stderr:
                failure += f" ({stderr.splitlines()[-1]})"
            digest, size = _digest(files)
            for f in files + _input_file(argv):
                f.unlink(missing_ok=True)
            records.append(Record(spec, dt, failure, digest, size, rc))
        after = probe.seconds()
        speed = REFERENCE_S / ((before + after) / 2)
        for r in records[start:]:
            r.speed = speed
        before = after
    return records


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def slot_medians(records, scaled: bool) -> dict[int, float]:
    """Median seconds of each slot over the run's cycles."""
    times: dict[int, list] = {}
    for r in records:
        times.setdefault(r.slot, []).append(r.time(scaled))
    return {slot: statistics.median(v) for slot, v in sorted(times.items())}


def throughput(records, scaled: bool) -> float:
    """Commands per second of a cycle whose every slot takes its median time.

    Each slot runs once per cycle with inputs of the same size, so the median
    over cycles keeps a burst of load from the machine's other tenants,
    which slows a few commands, from moving the figure."""
    medians = slot_medians(records, scaled)
    return len(medians) / sum(medians.values())


def harrell_davis(sorted_vals, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by a Beta((n+1)p, (n+1)(1-p)) density. It averages the samples
    near the quantile instead of taking one or two, so the estimate does not
    jump when two commands of different cost swap places across the
    quantile from run to run."""
    n = len(sorted_vals)
    if n == 1:
        return float(sorted_vals[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    x = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf)), [0.0]))
    cdf[-1] = cdf[-2]
    cdf /= cdf[-1]
    grid = np.concatenate(([0.0], x, [1.0]))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ np.asarray(sorted_vals, dtype=float))


def tail_percentile(n: int) -> int:
    """p90, or the highest whole percentile with at least TAIL_BEYOND of the
    n samples beyond it, when there are fewer than 100."""
    best = int(100 * (1 - TAIL_BEYOND / n)) if n > TAIL_BEYOND else 50
    return max(50, min(TAIL_PERCENTILE, best))


def end_to_end(records, setup: list[float], peak_rss_mb: float, scaled: bool) -> tuple[dict, dict]:
    n = len(records)
    tail = tail_percentile(n)
    failed = sum(r.failure is not None for r in records)
    figures = {}
    for key, sc in (("unscaled", False), ("scaled", True)):
        times = sorted(r.time(sc) * 1e3 for r in records)
        figures[key] = {
            "cmds_per_s": throughput(records, sc),
            "cmd_p50_ms": harrell_davis(times, 0.5),
            "cmd_p90_ms": harrell_davis(times, tail / 100),
        }
    units = {"cmds_per_s": "1/s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms"}
    reported, other = ("scaled", "unscaled") if scaled else ("unscaled", "scaled")
    metrics = {k: {"value": figures[reported][k], "unit": u} for k, u in units.items()}
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    detail = {
        "cmds_per_s": {"samples": n, "busy_s": sum(r.seconds for r in records)},
        "cmd_p50_ms": {"samples": n},
        "cmd_p90_ms": {"samples": n, "percentile": tail, "name": f"cmd_p{tail}_ms"},
        "fail_ratio": {"value": failed / n, "unit": "ratio", "samples": n},
        "setup_s": {"samples": setup},
        "peak_rss_mb": {"samples": 1},
        "speed": sorted({r.speed for r in records}),
        "speed_scaled": scaled,
        other: figures[other],
    }
    return metrics, detail


def by_kind(records) -> dict:
    """Per command kind: attempts, time spent, and failures grouped by their
    reason with the numbers masked, each group with one full example."""
    out: dict[str, dict] = {}
    for r in records:
        entry = out.setdefault(r.kind, {"attempted": 0, "failed": 0, "busy_s": 0.0, "reasons": {}})
        entry["attempted"] += 1
        entry["busy_s"] += r.seconds
        if r.failure is not None:
            entry["failed"] += 1
            key = re.sub(r"[-+]?\d[\d.e+-]*", "#", r.failure)
            group = entry["reasons"].setdefault(key, {"count": 0, "example": r.failure, "inputs": r.props})
            group["count"] += 1
    return out


def per_slot(records, scaled: bool) -> list[dict]:
    kinds = {r.slot: r.kind for r in records}
    return [
        {"slot": slot, "kind": kinds[slot], "median_ms": sec * 1e3}
        for slot, sec in slot_medians(records, scaled).items()
    ]


def input_properties(records) -> dict:
    """Shares and sizes of the inputs that drive the cost or the outcome."""
    props = {}
    wts = [wt for r in records for wt in r.props.get("wt", ())]
    if wts:
        props["omega_eval_share_wt_ge_369"] = sum(wt >= wl.OMEGA_BAD_WT for wt in wts) / len(wts)
    atoms = [r.props["atoms"] for r in records if "atoms" in r.props]
    if atoms:
        props["bump_atoms_mean"] = sum(atoms) / len(atoms)
        props["bump_atoms_max"] = max(atoms)
    deg = [r.props["degenerate"] for r in records if "degenerate" in r.props]
    if deg:
        props["degenerate_share"] = sum(deg) / len(deg)
    designs = [r.props for r in records if "m" in r.props]
    if designs:
        props["design_1d_share"] = sum(p["m"] == 1 for p in designs) / len(designs)
        props["design_1d_n_ge_28_share"] = sum(p["m"] == 1 and p["n"] >= 28 for p in designs) / len(designs)
    return props


def environment(seed: int, warmup_s: float) -> dict:
    rev = None  # a checkout without git metadata is identified by source_sha256
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "opkernel").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "warmup_s": warmup_s,
        "machine": platform.machine(),
    }


def _setup_in_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a child process failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    cli = _import_package()
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, workdir)
        t_warm = time.perf_counter()
        warm_up(args.workload, runner)
        t_end = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"setup_s": t_end - T0}))
            return 0
        samples = [t_end - T0] + [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        env = environment(args.seed, t_end - t_warm)
        cycles = wl.cycles_for(args.workload, args.seconds)
        probe = SpeedProbe()
        try:
            if args.trace:
                return _traced(args, runner, probe, max(1, round(cycles / 2)), samples, env)
            records = run_cycles(args.workload, args.seed, cycles, runner, probe)
        finally:
            probe.close()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scaled = args.workload in SPEED_SCALED
        metrics, detail = end_to_end(records, samples, peak, scaled)
        failed = sum(r.failure is not None for r in records)
        _emit_detail(args, {
            "workload": args.workload,
            "trace": 0,
            "cycles": cycles,
            "metrics": detail,
            "failures": by_kind(records),
            "slots": per_slot(records, scaled),
            "input_properties": input_properties(records),
            "environment": env,
        })
        print(json.dumps({"correct": True, "attempted": len(records), "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(args, runner, probe, cycles: int, samples, env) -> int:
    scaled = args.workload in SPEED_SCALED
    plain = run_cycles(args.workload, args.seed, cycles, runner, probe)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cycles(args.workload, args.seed, cycles, runner, probe, tracer=tracer)
    finally:
        tracer.uninstall()
    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced)) if (a.digest, a.rc) != (b.digest, b.rc)]
    metrics = tracer.summary(cycles, sum(r.size for r in traced))
    metrics["trace.untraced_cmds_per_s"] = throughput(plain, scaled)
    metrics["trace.traced_cmds_per_s"] = throughput(traced, scaled)
    metrics["trace.overhead_cmds_per_s"] = metrics["trace.untraced_cmds_per_s"] - metrics["trace.traced_cmds_per_s"]
    _emit_detail(args, {
        "workload": args.workload,
        "trace": 1,
        "cycles": cycles,
        "spans": len(tracer.span_name),
        "byte_identical": not mismatched,
        "mismatched_commands": mismatched[:20],
        "failures": by_kind(traced),
        "input_properties": input_properties(traced),
        "environment": env,
        "setup_s_samples": samples,
    }, spans={"names": tracer.names, "roots": tracer.root_spans(), "per_cycle": metrics})
    result = {
        "correct": not mismatched,
        "attempted": len(traced),
        "failed": sum(r.failure is not None for r in traced),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in metric_names()},
    }
    print(json.dumps(result))
    return 0


def _emit_detail(args, detail: dict, spans: dict | None = None) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        (out / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(detail, sort_keys=True))


if __name__ == "__main__":
    raise SystemExit(main())
