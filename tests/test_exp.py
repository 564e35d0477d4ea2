"""The kernel's exp (``fexp`` of ``_kernel.c``): its accuracy against libm's,
and bitwise equality with its numpy transcription ``oracles.exp``.

``fexp`` has no export of its own. The similarity columns of a ``_Run`` reach
it as the floored exp(-D), with D = x * x on one feature, a centroid at 0.0
and M row 1. The squash reaches its tail: below z = 10 (raw + 5) = -37 the
exp e is under 2^-53, so e / (1 + e) is e itself. The feature-weight
refresh takes it over the compactness terms of all objects at once.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhire.core import ClusterletState
from fedhire.cpl import SIMILARITY_FLOOR, _Run, _squash_scalar
from oracles import engine_refresh, exp, refresh_feature_weights, similarity_columns, squash
from test_cpl import KERNEL_LANE, bits, refresh_case

# the largest D whose exp(-D) is not floored in the columns
COLUMN_RANGE = -math.log(SIMILARITY_FLOOR)
# the squash is its own exp below this z
SQUASH_TAIL = -37.0
CLAMP = -708.0


def column_exps(distances):
    """The columns' floored exp(-D) for each D, and the D the kernel formed."""
    x = np.sqrt(np.asarray(distances, dtype=np.float64))
    run = _Run(x[:, None], ClusterletState.initial(np.zeros((2, 1))), np.ones((2, 1)))
    assert run.refresh_columns() == 2
    return x * x, run.sims[:, 0].copy()


def squash_exps(arguments):
    """The squash's exp(z) for each z below SQUASH_TAIL, and the z it formed."""
    raws = np.asarray(arguments, dtype=np.float64) / 10.0 - 5.0
    z = 10.0 * (raws + 5.0)
    assert (z < SQUASH_TAIL).all()
    return z, np.array([_squash_scalar(r) for r in raws])


def ulps(got, want):
    """The distance in units in the last place between positive floats."""
    return np.abs(bits(got).astype(np.int64) - bits(want).astype(np.int64))


def libm(arguments):
    return np.array([math.exp(a) for a in arguments])


class TestAccuracy:
    def test_columns_within_one_ulp_on_a_dense_grid(self):
        distances, got = column_exps(np.linspace(0.0, COLUMN_RANGE, 200_001))
        assert ulps(got, libm(-distances)).max() <= 1

    def test_squash_tail_within_one_ulp_on_a_dense_grid(self):
        z, got = squash_exps(np.linspace(CLAMP, SQUASH_TAIL - 1.0, 100_001))
        assert ulps(got, libm(np.maximum(z, CLAMP))).max() <= 1

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, -CLAMP))
    def test_within_one_ulp_anywhere_on_the_domain(self, distance):
        if distance <= COLUMN_RANGE:
            (distance,), (got,) = column_exps([distance])
        else:
            (z,), (got,) = squash_exps([-distance])
            distance = -z
        assert ulps([got], [math.exp(max(-distance, CLAMP))])[0] <= 1

    def test_edges(self):
        # -0.0 (a zero distance), NaN, and below the clamp the value at -708
        _, got = column_exps([0.0, np.nan])
        assert got[0] == 1.0 and np.isnan(got[1])
        assert np.isnan(_squash_scalar(np.nan))
        at_clamp = _squash_scalar(-1000.0)
        assert ulps([at_clamp], [math.exp(CLAMP)])[0] <= 1
        for raw in (-75.81, -1e300, -np.inf):
            assert _squash_scalar(raw) == at_clamp
        assert _squash_scalar(-75.79) > at_clamp
        # +0.0 reaches no exp of the kernel; the transcription agrees on it
        assert exp(0.0) == exp(-0.0) == 1.0


class TestTranscription:
    def test_columns_equal_the_numpy_form_bit_for_bit(self):
        distances, got = column_exps(np.linspace(0.0, 1.5 * COLUMN_RANGE, 50_001))
        want = np.maximum(exp(-distances), SIMILARITY_FLOOR)
        np.testing.assert_array_equal(bits(got), bits(want))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(max_value=0.0) | st.just(math.nan))
    def test_squash_branches_equal_the_numpy_form(self, z):
        # both branches, from subnormal arguments to -inf
        raw = z / 10.0 - 5.0
        assert bits([_squash_scalar(raw)]) == bits([squash(raw)])
        assert bits([_squash_scalar(-raw - 10.0)]) == bits([squash(-raw - 10.0)])


# the objects end on a partial block of the columns, and at d = 1, 4 and 17
# their n d compactness terms on a partial vector of the refresh's exps
BLOCK_OBJECTS = [1, KERNEL_LANE - 1, 2 * KERNEL_LANE + 3, 4 * KERNEL_LANE + 7]


@pytest.mark.parametrize("d", [1, 4, 16, 17])
@pytest.mark.parametrize("n", BLOCK_OBJECTS)
class TestBlocks:
    def test_columns(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        values = rng.normal(size=(n, d)) * 3.0
        k = 11
        state = ClusterletState.initial(rng.normal(size=(k, d)) * 3.0)
        rows = rng.dirichlet(np.ones(d), size=k)
        run = _Run(values, state, rows)
        assert run.refresh_columns() == k
        np.testing.assert_array_equal(
            bits(run.sims), bits(similarity_columns(values, state.centroids, rows))
        )

    def test_refresh(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        values, assignments, state, rows = refresh_case(rng, n, d, 9, 7, 5, "spread")
        want = rows.copy()
        refresh_feature_weights(values, assignments, state, want)
        engine_refresh(values, assignments, state, rows)
        np.testing.assert_array_equal(bits(rows), bits(want))
