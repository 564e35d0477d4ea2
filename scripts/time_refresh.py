#!/usr/bin/env python3
"""Time the kernel's feature-weight refresh, in full and after one move.

Builds the test shim ``tests/kernel_steps.c`` (the kernel's source with its
static steps exported) with the package's compiler and flags into a
temporary directory, and for each (n, k0, d) below times ``fh_refresh`` on a
``_Run`` whose objects belong to their nearest centroids: once recomputing
every live row (no previous assignments), and once against previous
assignments that differ in one object, so that one live clusterlet's
members changed and only its row is recomputed. Prints nanoseconds per
object, the best of 25 calls each. Run from anywhere:

    python3 scripts/time_refresh.py
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


def best_ns(lib, n: int, k0: int, d: int) -> tuple[float, float]:
    """The best times of ``REPEATS`` full refreshes and of as many
    refreshes after one object moved, in ns."""
    rng = np.random.default_rng(0)
    values = rng.uniform(size=(n, d))
    state = make_state(values[rng.choice(n, size=k0, replace=False)])
    rows = rng.dirichlet(np.ones(d), size=k0)
    run = kernel_steps.StepRun(values, state, rows, lib)
    # each object to its nearest centroid among the first k0 - 1; the last
    # clusterlet owns object 0 alone in the previous assignments
    gaps = ((values[:, None, :] - state.centroids[None, :-1, :]) ** 2).sum(axis=2)
    assignments = gaps.argmin(axis=1)
    previous = assignments.copy()
    previous[0] = k0 - 1

    def timed(now, before) -> int:
        start = time.perf_counter_ns()
        fallbacks = lib.step_refresh(
            run.ref, now.ctypes.data, None if before is None else before.ctypes.data
        )
        elapsed = time.perf_counter_ns() - start
        assert fallbacks >= 0
        return elapsed

    full = moved = float("inf")
    for _ in range(REPEATS):
        full = min(full, timed(assignments, None))
        timed(previous, None)
        moved = min(moved, timed(assignments, previous))
        assert np.count_nonzero(run.redo[np.unique(assignments)]) == 1
    return full, moved


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="time-refresh-") as directory:
        lib = kernel_steps.build(Path(directory))
        print(f"{'n':>6} {'k0':>5} {'d':>3} {'full ns/obj':>12} {'one move ns/obj':>16}")
        for n, k0, d in SHAPES:
            full, moved = best_ns(lib, n, k0, d)
            print(f"{n:>6} {k0:>5} {d:>3} {full / n:>12.2f} {moved / n:>16.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
