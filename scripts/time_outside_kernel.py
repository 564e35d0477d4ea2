#!/usr/bin/env python3
"""Time what a ``run_one_shot`` call costs outside its kernel calls, by layer.

For each workload shape below (n objects, d features, the clients' k0: an
absolute 64 or the default fraction), with 8 clients, k* = 8 and
``fedhire.synth`` data, runs ``run_one_shot`` ``REPEATS`` times with the
kernel library's ``fh_cpl``, ``fh_kmeans`` and ``fh_ward`` timed around each
call and the layer functions that ``run_one_shot`` looks up timed too. It
prints, per layer, the median milliseconds per call spent outside the
kernel: ``fragment_partition``, ``run_fcpl`` (every client), ``run_mcpl``,
``final_clustering``, and the rest of the call (the plan's range check,
stacking and label propagation). Every name it wraps is put back.
Run from anywhere:

    python3 scripts/time_outside_kernel.py
"""

import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedhire import _kernel, federation, gaussian_mixture  # noqa: E402

# (n, d, the clients' absolute k0 or None for the default fraction)
SHAPES = [(2000, 4, 64), (1200, 4, None), (2000, 16, None)]
CLIENTS = 8
K_STAR = 8
REPEATS = 15
LAYERS = ("fragment_partition", "run_fcpl", "run_mcpl", "final_clustering")
KERNELS = ("fh_cpl", "fh_kmeans", "fh_ward")


def outside_ms(n: int, d: int, k0_absolute: int | None) -> dict[str, float]:
    """Per layer and in total, the median milliseconds of a ``run_one_shot``
    call spent outside the ``KERNELS``, over ``REPEATS`` calls."""
    data = gaussian_mixture(n, d, K_STAR, seed=0)
    config = federation.FederationConfig(
        client_count=CLIENTS, k_star=K_STAR, k0_absolute=k0_absolute,
    )
    lib = _kernel.library()
    # the open layer, and per layer the time outside the kernel in this call
    open_layer = ["rest"]
    spent: dict[str, float] = {}

    def timed_kernel(name):
        kernel = getattr(lib, name)

        def call(*args):
            start = time.perf_counter_ns()
            result = kernel(*args)
            spent[open_layer[0]] -= time.perf_counter_ns() - start
            return result

        return call

    def timed_layer(name, fn):
        def call(*args, **kwargs):
            outer, open_layer[0] = open_layer[0], name
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                spent[name] += elapsed
                spent[outer] -= elapsed
                open_layer[0] = outer

        return call

    # the kernel library with the KERNELS timed; the seeded SplitMix64 draw,
    # fh_choice, is untimed and counts as time outside them
    timed = types.SimpleNamespace(
        fh_choice=lib.fh_choice, **{name: timed_kernel(name) for name in KERNELS}
    )
    library = _kernel.library
    originals = {name: getattr(federation, name) for name in LAYERS}
    samples: dict[str, list[float]] = {name: [] for name in (*LAYERS, "rest", "total")}
    _kernel.library = lambda: timed
    for name, fn in originals.items():
        setattr(federation, name, timed_layer(name, fn))
    try:
        for _ in range(REPEATS):
            spent.update(dict.fromkeys((*LAYERS, "rest"), 0))
            start = time.perf_counter_ns()
            federation.run_one_shot(data, config)
            spent["rest"] += time.perf_counter_ns() - start
            for name, ns in (*spent.items(), ("total", sum(spent.values()))):
                samples[name].append(ns / 1e6)
    finally:
        _kernel.library = library
        for name, fn in originals.items():
            setattr(federation, name, fn)
    return {name: statistics.median(values) for name, values in samples.items()}


def main() -> int:
    columns = (*LAYERS, "rest", "total")
    print(f"{'n':>5} {'d':>3} {'k0':>7}  " + " ".join(f"{c:>18}" for c in columns))
    for n, d, k0 in SHAPES:
        ms = outside_ms(n, d, k0)
        print(f"{n:>5} {d:>3} {k0 or 'default':>7}  "
              + " ".join(f"{ms[c]:>18.3f}" for c in columns))
    print(f"milliseconds per call outside {', '.join(KERNELS)} (medians)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
