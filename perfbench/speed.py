"""The machine's speed at a moment: the time of a fixed reference task.

Run as a child process of the benchmark, which writes one line to its stdin
each time it wants a reading and reads back one line: the median seconds of
REPEATS runs of the task. It exits at the end of its input. Being a process
of its own, it shares no memory, garbage or threads with the program under
test: a change that slows the benchmark's process alone does not slow the
reference, and so is not divided away when times are scaled by it.
"""

from __future__ import annotations

import fractions
import json
import statistics
import sys
import time

import numpy as np

REPEATS = 5


def reference_task() -> None:
    """A fixed mix of the operations the package spends its time in: exact
    rational arithmetic, small complex eigensolves, row-unique passes,
    per-pair Python loops over small vectors and JSON encoding."""
    rng = np.random.default_rng(0)
    x = fractions.Fraction(1)
    for k in range(1, 400):
        x = x * fractions.Fraction(-7, 3 * k + 1) + 1
    a = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    h = a @ a.conj().T
    pts = rng.normal(size=(40, 2))
    for _ in range(40):
        np.linalg.eigh(h)
        np.unique(np.round(rng.normal(size=(300, 2)), 1), axis=0)
    for i in range(40):
        for j in range(i + 1, 40):
            float(np.linalg.norm(pts[i] - pts[j]))
    json.dumps([float(v) for v in rng.normal(size=5000)])


def reading() -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    for _ in sys.stdin:
        print(repr(reading()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
