"""Scalar reference forms of engine steps, kept for tests only.

Each oracle is the plain, full-width version of a step that the engine runs
in a faster form. Tests drive both from the same state and require equal
results.
"""

import numpy as np

from fedhire.cpl import SIMILARITY_FLOOR, _squash_scalar, compute_gamma


def dissimilarities(values, centroids, scaled):
    """n x k squared relative-weighted distances by one n x k x d broadcast.

    numpy sums the last axis in its own pairwise order; the engine's
    ``_dissimilarities`` must reproduce that order bit for bit.
    """
    return ((scaled[None] * (values[:, None] - centroids[None])) ** 2).sum(axis=2)


def presentation_epoch(values, state, m, eta):
    """One epoch of presentations over all k columns; returns the winners.

    The n x k x d similarity block covers every clusterlet, inactive ones are
    masked to -inf per object, and win counts increment live. Mutates
    ``state`` like the engine does.
    """
    n, d = values.shape
    dist = dissimilarities(values, state.centroids, d * m.entries)
    sims = np.maximum(np.exp(-dist), SIMILARITY_FLOOR)
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
