#!/usr/bin/env python3
"""Time a full recompute of the kernel's similarity columns.

Builds the test shim ``tests/kernel_steps.c`` (the kernel's source with its
static steps exported) with the package's compiler and flags into a
temporary directory, and for each (n, k0, d) below times ``fh_columns`` on
a ``_Run`` whose k0 columns are all stale: every distance term, every exp
and the floor. Prints nanoseconds per similarity entry, the best of 25
calls. Run from anywhere:

    python3 scripts/time_columns.py
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import kernel_steps  # noqa: E402
from oracles import make_state  # noqa: E402

SHAPES = [(1000, 500, 16), (1000, 500, 4), (250, 64, 4)]
REPEATS = 25


def best_ns(lib, n: int, k0: int, d: int) -> float:
    """The best time of ``REPEATS`` full column recomputes, in ns."""
    rng = np.random.default_rng(0)
    values = rng.uniform(size=(n, d))
    state = make_state(values[rng.choice(n, size=k0, replace=False)])
    rows = rng.dirichlet(np.ones(d), size=k0)
    run = kernel_steps.StepRun(values, state, rows, lib)
    best = float("inf")
    for _ in range(REPEATS):
        # NaN stored rows compare unequal to every row: all k0 are stale
        run.stored_centroids.fill(np.nan)
        start = time.perf_counter_ns()
        count = lib.step_columns(run.ref)
        best = min(best, time.perf_counter_ns() - start)
        assert count == k0
    return best


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="time-columns-") as directory:
        lib = kernel_steps.build(Path(directory))
        print(f"{'n':>6} {'k0':>5} {'d':>3} {'ns/entry':>9}")
        for n, k0, d in SHAPES:
            ns = best_ns(lib, n, k0, d) / (n * k0)
            print(f"{n:>6} {k0:>5} {d:>3} {ns:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
