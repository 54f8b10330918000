"""Span tracing of opkernel's layers from outside the package.

`Tracer.install` wraps each public function of each layer (module) listed
in LAYERS. A name imported with `from .kernel import gram` is a separate
binding in every importing module, so every module binding that holds the
original object is replaced, and restored by `uninstall`. Classes are
traced through their constructor, and methods on the class itself, so
isinstance checks and method lookups keep working.

Spans (name, parent, command, start, end) are kept in memory in flat
arrays and summarised at the end. Work done to compute counters from call
arguments runs on a paused clock, so it is not charged to any span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np
from workloads import OMEGA_BAD_WT

LAYERS = {
    "cli": ("main", "kernel_from_json", "_emit"),
    "profiles": ("profile_value", "omega_eval", "sjet_derivatives", "jet_for_multi_index", "jet_eval"),
    "measures": ("measure_from_json", "classify_radial", "OperatorMeasure"),
    "kernel": (
        "gram",
        "deriv_gram",
        "OperatorKernel.eval_diffs",
        "kernel_eval",
        "kernel_deriv_eval",
        "radial_function_eval",
        "gram_to_csv",
        "_check_points",
        "PlaneWaveMeasure",
    ),
    "hermitian": ("eigen_hermitian", "is_psd", "cholesky_psd", "solve_cholesky", "HermitianMatrix"),
    "rkhs": (
        "quadratic_form_detail",
        "interpolate",
        "hermite_interpolate",
        "rkhs_eval",
        "rkhs_deriv_eval",
        "VectorAtomMeasure",
    ),
    "certify": (
        "probe_strict_pd",
        "classify_and_report",
        "demo_counterexample_shifted_gaussian",
        "demo_counterexample_radial_bump",
        "_seeded_design",
        "witness_design_mineig",
        "ShiftedPairKernel.eval_diffs",
    ),
}

# counters computed from call arguments, besides calls and self time
COUNTERS = (
    ("kernel.eval_diffs.rows", "count"),
    ("kernel.eval_diffs.unique_ratio", "ratio"),
    ("kernel._check_points.pairs", "count"),
    ("hermitian.eigen_hermitian.dim3_sum", "count"),
    ("hermitian.cholesky_psd.dim3_sum", "count"),
    ("profiles.omega_eval.share_wt_ge_369", "ratio"),
    ("cli.report_bytes", "bytes"),
)


def span_name(layer: str, target: str) -> str:
    """Metric stem: `<layer>.<function>`, a method named without its class."""
    return f"{layer}.{target.rsplit('.', 1)[-1]}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for layer, targets in LAYERS.items():
        for target in targets:
            stem = span_name(layer, target)
            out += [(f"{stem}.calls", "count"), (f"{stem}.self_ms", "ms")]
    out += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    out += list(COUNTERS)
    out += [
        ("trace.untraced_cmds_per_s", "1/s"),
        ("trace.traced_cmds_per_s", "1/s"),
        ("trace.overhead_cmds_per_s", "1/s"),
    ]
    return out


def _dim(a) -> int:
    entries = getattr(a, "entries", a)
    return int(np.shape(entries)[0])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.command = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.paused = 0
        self.current_command = -1
        self.counts = {"rows": 0, "unique": 0, "pairs": 0, "eig3": 0, "chol3": 0, "omega": 0, "omega_bad": 0}
        self._restore: list[tuple[object, str, object]] = []

    def now(self) -> int:
        return time.perf_counter_ns() - self.paused

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name: str, fn, counter=None):
        nid = self._nid(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                t = time.perf_counter_ns()
                counter(args, kwargs)
                tr.paused += time.perf_counter_ns() - t
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.command.append(tr.current_command)
            tr.end.append(0)
            tr.stack.append(idx)
            tr.start.append(tr.now())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[idx] = tr.now()
                tr.stack.pop()

        return traced

    def _counter(self, stem: str):
        c = self.counts
        if stem == "kernel.eval_diffs":
            outer_id = self._nid(stem)

            def count(args, kwargs):
                # the unique-row recursion re-enters eval_diffs; count the
                # rows a caller passed, once
                if self.stack and self.span_name[self.stack[-1]] == outer_id:
                    return
                diffs = np.asarray(args[1], dtype=float)
                c["rows"] += diffs.shape[0]
                c["unique"] += np.unique(diffs, axis=0).shape[0] if diffs.size else 0

            return count
        if stem == "kernel._check_points":
            def count(args, kwargs):
                n = int(np.shape(args[0])[0])
                c["pairs"] += n * (n - 1) // 2

            return count
        if stem in ("hermitian.eigen_hermitian", "hermitian.cholesky_psd"):
            key = "eig3" if stem.endswith("eigen_hermitian") else "chol3"

            def count(args, kwargs):
                c[key] += _dim(args[0]) ** 3

            return count
        if stem == "profiles.omega_eval":
            def count(args, kwargs):
                c["omega"] += 1
                c["omega_bad"] += float(args[1]) >= OMEGA_BAD_WT

            return count
        return None

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"opkernel.{layer}") for layer in LAYERS
        }
        for layer, targets in LAYERS.items():
            mod = modules[layer]
            for target in targets:
                stem = span_name(layer, target)
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(stem, cls.__dict__[meth], self._counter(stem)))
                    continue
                original = getattr(mod, target)
                if isinstance(original, type):
                    self._patch(original, "__init__", self._wrap(stem, original.__dict__["__init__"]))
                    continue
                wrapper = self._wrap(stem, original, self._counter(stem))
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------

    def summary(self, cycles: int, report_bytes: int) -> dict:
        """Per-cycle calls and self time of every span name, per-layer self
        time and the argument counters."""
        n = len(self.span_name)
        names = np.frombuffer(self.span_name, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64) if n else np.zeros(0, np.int64)
        dur = (
            np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
            if n
            else np.zeros(0, np.int64)
        )
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        k = max(1, cycles)
        out: dict[str, float] = {}
        layer_ms = {layer: 0.0 for layer in LAYERS}
        for nid, stem in enumerate(self.names):
            sel = names == nid
            ms = float(self_ns[sel].sum()) / 1e6
            out[f"{stem}.calls"] = float(np.count_nonzero(sel)) / k
            out[f"{stem}.self_ms"] = ms / k
            layer_ms[stem.split(".", 1)[0]] += ms / k
        for layer, ms in layer_ms.items():
            out[f"{layer}.self_ms"] = ms
        c = self.counts
        out["kernel.eval_diffs.rows"] = c["rows"] / k
        out["kernel.eval_diffs.unique_ratio"] = c["unique"] / c["rows"] if c["rows"] else 0.0
        out["kernel._check_points.pairs"] = c["pairs"] / k
        out["hermitian.eigen_hermitian.dim3_sum"] = c["eig3"] / k
        out["hermitian.cholesky_psd.dim3_sum"] = c["chol3"] / k
        out["profiles.omega_eval.share_wt_ge_369"] = c["omega_bad"] / c["omega"] if c["omega"] else 0.0
        out["cli.report_bytes"] = report_bytes / k
        return out

    def root_spans(self) -> list[dict]:
        """One record per traced command: its root span's duration."""
        roots = []
        for i in range(len(self.span_name)):
            if self.parent[i] < 0:
                roots.append(
                    {
                        "command": int(self.command[i]),
                        "name": self.names[self.span_name[i]],
                        "ms": (self.end[i] - self.start[i]) / 1e6,
                    }
                )
        return roots
