"""Unit and oracle tests for repro.tsp.matching.

The in-house blossom matching must return *the same* matching as
networkx's (the oracle in ``tests/oracles.py``), ties included, so the
Christofides tours built on it stay bitwise identical.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.experiments.config import reduced_settings
from repro.experiments.instances import make_instances
from repro.geometry.distance import pairwise_distances
from repro.tsp.matching import min_weight_perfect_matching
from repro.utils.errors import InvalidParameterError
from tests.oracles import networkx_matching


def _perfect_matchings(vertices):
    """Every perfect matching of *vertices*, as lists of pairs."""
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for i, other in enumerate(rest):
        for tail in _perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def _cost(mate, cost):
    return sum(cost[v, w] for v, w in enumerate(mate) if v < w)


class TestBasics:
    def test_empty(self):
        assert min_weight_perfect_matching(np.zeros((0, 0))).size == 0

    def test_two_vertices(self):
        mate = min_weight_perfect_matching(np.array([[0.0, 3.0],
                                                     [3.0, 0.0]]))
        np.testing.assert_array_equal(mate, [1, 0])

    def test_picks_the_cheap_pairs(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [1.0, 0.0], [101.0, 0.0]])
        mate = min_weight_perfect_matching(pairwise_distances(pts))
        np.testing.assert_array_equal(mate, [2, 3, 0, 1])

    @pytest.mark.parametrize("seed", range(6))
    def test_minimum_over_all_perfect_matchings(self, seed):
        rng = np.random.default_rng(seed)
        k = 2 * int(rng.integers(1, 5))
        cost = pairwise_distances(rng.uniform(0, 100, (k, 2)))
        mate = min_weight_perfect_matching(cost)
        np.testing.assert_array_equal(mate[mate], np.arange(k))
        best = min(sum(cost[a, b] for a, b in m)
                   for m in _perfect_matchings(list(range(k))))
        assert _cost(mate, cost) == pytest.approx(best, abs=1e-9)

    def test_reads_only_the_upper_triangle(self, rng):
        cost = pairwise_distances(rng.uniform(0, 100, (6, 2)))
        scrambled = cost.copy()
        scrambled[np.tril_indices(6)] = -7.0
        np.testing.assert_array_equal(
            min_weight_perfect_matching(scrambled),
            min_weight_perfect_matching(cost))


class TestErrorHandling:
    def test_non_square_rejected(self):
        with pytest.raises(InvalidParameterError):
            min_weight_perfect_matching(np.zeros((2, 3)))

    def test_odd_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            min_weight_perfect_matching(np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameterError):
            min_weight_perfect_matching(np.array([[0.0, np.nan],
                                                  [np.nan, 0.0]]))


@st.composite
def cost_matrices(draw):
    """Even-sized cost matrices: planar distances, optionally snapped to a
    coarse grid (many equal costs), or small integers (massive ties)."""
    k = 2 * draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["points", "grid", "integers"]))
    if kind == "integers":
        return rng.integers(0, 4, (k, k)).astype(float)
    pts = rng.uniform(0, 100, (k, 2))
    if kind == "grid":
        pts = np.round(pts / 25.0) * 25.0
    return pairwise_distances(pts)


class TestMatchesNetworkx:
    @given(cost=cost_matrices())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_mate(self, cost):
        np.testing.assert_array_equal(min_weight_perfect_matching(cost),
                                      networkx_matching(cost))

    def test_odd_vertices_of_the_reduced_seeds(self):
        """The matchings the fig3-/fig4-reduced baselines solve: the
        odd-degree spanning-tree vertices of every instance (the 16
        fig3-reduced instances are the first 16 of these 20)."""
        config = reduced_settings().scaled(n_instances=20)
        for net in make_instances(config):
            dist = pairwise_distances(
                np.vstack([net.depot[None, :], net.positions]))
            shifted = dist + max(1.0, float(dist.max()))
            np.fill_diagonal(shifted, 0.0)
            mst = minimum_spanning_tree(shifted).toarray()
            odd = np.flatnonzero(((mst + mst.T) > 0).sum(axis=1) % 2 == 1)
            sub = dist[np.ix_(odd, odd)]
            np.testing.assert_array_equal(min_weight_perfect_matching(sub),
                                          networkx_matching(sub))

    def test_all_equal_costs(self):
        """Every perfect matching ties: the choice is networkx's."""
        for k in (4, 10, 16):
            cost = np.ones((k, k))
            np.testing.assert_array_equal(min_weight_perfect_matching(cost),
                                          networkx_matching(cost))

