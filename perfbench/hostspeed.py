"""The host's speed, measured with a fixed calibration loop.

The benchmark shares a host whose speed drifts: the same call on the same
input runs up to 1.75 times slower for tens of seconds at a time, and every
kind of work slows alike. Wall times taken at different moments are
therefore scaled to one reference speed. Each timed interval is bracketed by
calibration loops, and

    time at reference speed = wall time x REFERENCE_S / calibration time

where the calibration time is the mean of the loops just before and after
the interval. A change to the program cannot change the loop: it uses numpy
only, on inputs of its own.
"""

from __future__ import annotations

import time

import numpy as np

# the loop's median time on the reference machine (2-vCPU Xeon virtual
# machine, Python 3.11, numpy 2.4), so that scaled times read as seconds there
REFERENCE_S = 0.065

# shaped like the program's work: a Python loop of small in-place numpy
# operations on a clusterlet-sized vector (the presentation loop), then a few
# passes over an objects x clusterlets x d similarity block
_SMALL_STEPS = 8000
_BLOCK_PASSES = 10
_rng = np.random.default_rng(0)
_gamma, _weights = _rng.random(64), _rng.random(64)
_inactive = _gamma > 0.9
_scores = np.empty(64)
_block = _rng.random((200, 64, 4))


def calibrate() -> float:
    """Wall time of one pass of the fixed calibration loop, in seconds."""
    start = time.perf_counter()
    for _ in range(_SMALL_STEPS):
        np.multiply(_gamma, _weights, out=_scores)
        _scores[_inactive] = -np.inf
        winner = int(np.argmax(_scores))
        _scores[winner] = -np.inf
        int(np.argmax(_scores))
    for _ in range(_BLOCK_PASSES):
        np.maximum(np.exp(-(_block**2).sum(axis=2)), 1e-300)
    return time.perf_counter() - start


def at_reference(wall_s: float, calibration_s: float) -> float:
    """``wall_s`` scaled to the reference speed."""
    return wall_s * REFERENCE_S / calibration_s
