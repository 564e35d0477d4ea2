"""Scalar reference forms of engine steps, kept for tests only.

Each oracle is the plain, full-width version of a step that the engine runs
in a faster form. Tests drive both from the same state and require equal
results.
"""

import numpy as np

from fedhire.cpl import SIMILARITY_FLOOR, _squash_scalar, compute_gamma


def presentation_epoch(values, state, m, eta):
    """One epoch of presentations over all k columns; returns the winners.

    The n x k x d similarity block covers every clusterlet, inactive ones are
    masked to -inf per object, and win counts increment live. Mutates
    ``state`` like the engine does.
    """
    n, d = values.shape
    scaled = d * m.entries
    diff = scaled[None, :, :] * (values[:, None, :] - state.centroids[None, :, :])
    sims = np.maximum(np.exp(-(diff**2).sum(axis=2)), SIMILARITY_FLOOR)
    gamma = compute_gamma(state.win_counts)

    assignments = np.full(n, -1, dtype=np.int64)
    inactive = ~state.active
    raw = state.raw_weights
    weights = state.weights
    win_counts = state.win_counts
    scores = np.empty(state.k)
    for i in range(n):
        np.multiply(gamma, weights, out=scores)
        scores *= sims[i]
        scores[inactive] = -np.inf
        v = int(scores.argmax())
        assignments[i] = v
        raw[v] += eta
        weights[v] = _squash_scalar(raw[v])
        win_counts[v] += 1
        scores[v] = -np.inf
        r = int(scores.argmax())
        raw[r] -= eta * sims[i, r] / sims[i, v]
        weights[r] = _squash_scalar(raw[r])
    return assignments
