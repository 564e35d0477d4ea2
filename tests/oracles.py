"""Scalar reference forms of engine steps, and the probes that drive the engine.

Each oracle is the plain, full-width or scalar version of a step that the
engine runs in a faster form. Tests drive both from the same state and
require equal results. The probes reach one formula of the engine, such as a
single presentation or one feature's Hellinger distance, through the engine
functions that really run it.
"""

import math

import numpy as np
from scipy.integrate import quad

from fedhire.core import (
    AffiliationMatrix,
    ClusterletState,
    DataMatrix,
    feature_cluster_matrix_client,
)
from fedhire.cpl import (
    SIMILARITY_FLOOR,
    _ColumnCache,
    _presentation_epoch,
    _squash_scalar,
    compute_gamma,
)


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


def make_state(centroids, raw=None, wins=None, active=None):
    """A ClusterletState with the given raw weights, win counts and mask."""
    centroids = np.asarray(centroids, dtype=np.float64)
    state = ClusterletState.initial(centroids)
    if raw is not None:
        state.raw_weights = np.asarray(raw, dtype=np.float64)
        state.weights = np.array([_squash_scalar(r) for r in state.raw_weights])
    if wins is not None:
        state.win_counts = np.asarray(wins, dtype=np.int64)
    if active is not None:
        state.active = np.asarray(active, dtype=bool)
    return state


def present_one(x, state, m, eta=0.05):
    """Present one object through the engine's epoch loop; returns its winner.

    Runs ``_presentation_epoch`` on the single object ``x`` and requires the
    same winner and the same raw weights, weights and win counts as
    ``presentation_epoch`` gives from a copy of ``state``. Mutates ``state``.
    """
    values = np.atleast_2d(np.asarray(x, dtype=np.float64))
    oracle = state.copy()
    (winner,) = _presentation_epoch(_ColumnCache(values, state.k), state, m, eta)
    assert winner == presentation_epoch(values, oracle, m, eta)[0]
    np.testing.assert_array_equal(state.raw_weights, oracle.raw_weights)
    np.testing.assert_array_equal(state.weights, oracle.weights)
    np.testing.assert_array_equal(state.win_counts, oracle.win_counts)
    return int(winner)


def feature_weight_ratio(inside, outside, centroid):
    """m_00 / m_01 of ``feature_cluster_matrix_client`` over two features.

    Cluster 0 holds the rows ``inside``, with the given centroid; cluster 1
    holds the rows ``outside``. The ratio is α_00 β_00 / (α_01 β_01): a test
    that fixes one factor on both features reads the other.
    """
    inside = np.asarray(inside, dtype=np.float64)
    outside = np.asarray(outside, dtype=np.float64)
    assignments = np.repeat([0, 1], [len(inside), len(outside)])
    centroids = np.vstack([centroid, outside.mean(axis=0)])
    m = feature_cluster_matrix_client(
        DataMatrix(np.vstack([inside, outside])),
        AffiliationMatrix(assignments, k=2),
        centroids,
    )
    return m.entries[0, 0] / m.entries[0, 1]


def hellinger_quadrature(mu, var, mu_bar, var_bar):
    """Hellinger distance of two Gaussians by numerical integration."""
    var = max(var, 1e-12)
    var_bar = max(var_bar, 1e-12)

    def sqrt_prod(x):
        p = math.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        q = math.exp(-((x - mu_bar) ** 2) / (2 * var_bar)) / math.sqrt(
            2 * math.pi * var_bar
        )
        return math.sqrt(p * q)

    lo = min(mu, mu_bar) - 12 * math.sqrt(max(var, var_bar))
    hi = max(mu, mu_bar) + 12 * math.sqrt(max(var, var_bar))
    bc, _ = quad(sqrt_prod, lo, hi, limit=200)
    return math.sqrt(max(0.0, 1.0 - bc))


def scalar_feature_weights(values, assignments, centroids, k):
    """Scalar form of the client feature weights m_jz = α_jz β_jz / Σ_t α_jt β_jt."""
    n, d = values.shape
    out = np.zeros((k, d))
    for j in range(k):
        members = values[assignments == j]
        others = values[assignments != j]
        products = []
        for z in range(d):
            mu = members[:, z].mean()
            mu_bar = others[:, z].mean()
            var = members[:, z].var(ddof=1) if members.shape[0] > 1 else 0.0
            var_bar = others[:, z].var(ddof=1) if others.shape[0] > 1 else 0.0
            var = max(var, 1e-12)
            var_bar = max(var_bar, 1e-12)
            bc = math.sqrt(
                2 * math.sqrt(var) * math.sqrt(var_bar) / (var + var_bar)
            ) * math.exp(-((mu - mu_bar) ** 2) / (4 * (var + var_bar)))
            alpha = math.sqrt(max(0.0, 1 - bc))
            beta = (
                math.sqrt(
                    sum(
                        math.exp(-0.5 * (x - centroids[j][z]) ** 2)
                        for x in members[:, z]
                    )
                )
                / members.shape[0]
            )
            products.append(alpha * beta)
        total = sum(products)
        out[j] = [p / total for p in products] if total > 0 else [1.0 / d] * d
    return out


def scalar_level_weights(codes, assignments, level_ks, k):
    """Scalar form of the server level weights u = αβ / Σ αβ."""
    n, depth = codes.shape
    out = np.zeros((k, depth))
    for j in range(k):
        members = codes[assignments == j]
        others = codes[assignments != j]
        products = []
        for delta in range(depth):
            inside = members[:, delta]
            outside = others[:, delta]
            total = 0.0
            for v in range(1, int(level_ks[delta]) + 1):
                fi = (inside == v).sum() / len(inside)
                fo = (outside == v).sum() / len(outside)
                total += (fi - fo) ** 2
            alpha = math.sqrt(total) / math.sqrt(2)
            beta = sum(
                (inside == code).sum() / len(inside) for code in inside
            ) / len(inside)
            products.append(alpha * beta)
        s = sum(products)
        out[j] = [p / s for p in products] if s > 0 else [1.0 / depth] * depth
    return out
