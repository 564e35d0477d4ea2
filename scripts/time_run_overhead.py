#!/usr/bin/env python3
"""Time what a ``run_cpl`` call costs outside its kernel call.

For each (n, k0, d) below, runs ``run_cpl`` ``REPEATS`` times on one table of
uniform random values, with the kernel library's ``fh_cpl`` timed around
each call, and prints the median microseconds of a call outside its
``fh_cpl`` call: the seed indices, the run's buffers, the address checks,
the result and its validation. Run from anywhere:

    python3 scripts/time_run_overhead.py
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedhire import _kernel  # noqa: E402
from fedhire.core import DataMatrix  # noqa: E402
from fedhire.cpl import CplConfig, run_cpl  # noqa: E402

SHAPES = [(6, 5, 4), (200, 100, 4), (998, 499, 16)]
REPEATS = 51


def overhead_us(n: int, k0: int, d: int) -> float:
    """The median time of ``REPEATS`` ``run_cpl`` calls outside ``fh_cpl``, in µs."""
    data = DataMatrix(np.random.default_rng(0).uniform(size=(n, d)))
    config = CplConfig(eta=0.05, k0=k0)
    library, kernel_ns = _kernel.library, []
    lib = library()

    class Timed:
        """The kernel library, its ``fh_cpl`` timed."""

        @staticmethod
        def fh_cpl(*args):
            start = time.perf_counter_ns()
            code = lib.fh_cpl(*args)
            kernel_ns.append(time.perf_counter_ns() - start)
            return code

    outside = []
    _kernel.library = lambda: Timed
    try:
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            run_cpl(data, config)
            outside.append(time.perf_counter_ns() - start - kernel_ns[-1])
    finally:
        _kernel.library = library
    return statistics.median(outside) / 1000


def main() -> int:
    print(f"{'n':>6} {'k0':>5} {'d':>3} {'outside fh_cpl us':>18}")
    for n, k0, d in SHAPES:
        print(f"{n:>6} {k0:>5} {d:>3} {overhead_us(n, k0, d):>18.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
