"""Unit tests for repro.tsp.christofides."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry.distance import pairwise_distances
from repro.tsp.christofides import christofides_tour
from repro.tsp.exact import held_karp
from repro.tsp.length import tour_length_matrix, validate_tour
from repro.utils.errors import InvalidParameterError
from tests.oracles import networkx_christofides


class TestBasics:
    def test_is_permutation(self, rng):
        dist = pairwise_distances(rng.uniform(0, 100, (12, 2)))
        tour = christofides_tour(dist)
        validate_tour(tour, 12)
        assert len(tour) == 12

    def test_starts_at_start(self, rng):
        dist = pairwise_distances(rng.uniform(0, 100, (8, 2)))
        assert christofides_tour(dist, start=5)[0] == 5

    def test_single_node(self):
        tour = christofides_tour(np.zeros((1, 1)))
        np.testing.assert_array_equal(tour, [0])

    def test_two_nodes(self, rng):
        dist = pairwise_distances(rng.uniform(0, 10, (2, 2)))
        np.testing.assert_array_equal(christofides_tour(dist), [0, 1])

    def test_three_nodes(self, rng):
        dist = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        tour = christofides_tour(dist)
        assert sorted(tour) == [0, 1, 2]

    def test_subset(self, rng):
        dist = pairwise_distances(rng.uniform(0, 100, (10, 2)))
        tour = christofides_tour(dist, start=2, nodes=np.array([2, 4, 6, 8]))
        assert sorted(tour) == [2, 4, 6, 8]
        assert tour[0] == 2


class TestErrorHandling:
    def test_asymmetric_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            christofides_tour(d)

    def test_negative_rejected(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            christofides_tour(d)

    def test_start_outside_subset_rejected(self, rng):
        dist = pairwise_distances(rng.uniform(0, 10, (5, 2)))
        with pytest.raises(InvalidParameterError):
            christofides_tour(dist, start=0, nodes=np.array([1, 2]))

    def test_duplicate_nodes_rejected(self, rng):
        dist = pairwise_distances(rng.uniform(0, 10, (5, 2)))
        with pytest.raises(InvalidParameterError):
            christofides_tour(dist, start=1, nodes=np.array([1, 1, 2]))

    def test_nonfinite_rejected(self):
        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(InvalidParameterError):
            christofides_tour(d)


class TestApproximationGuarantee:
    @pytest.mark.parametrize("seed", range(8))
    def test_within_1_5_of_optimal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 11))
        dist = pairwise_distances(rng.uniform(0, 100, (n, 2)))
        _, opt = held_karp(dist)
        ch_len = tour_length_matrix(christofides_tour(dist), dist)
        assert ch_len <= 1.5 * opt + 1e-9

    def test_collinear_points(self):
        # Degenerate metric: points on a line; optimal tour is out-and-back.
        pts = np.array([[float(i), 0.0] for i in range(6)])
        dist = pairwise_distances(pts)
        ch_len = tour_length_matrix(christofides_tour(dist), dist)
        assert ch_len <= 1.5 * 10.0 + 1e-9

    def test_duplicate_points(self):
        # Zero-distance pairs must not break the matching stage.
        pts = np.array([[0, 0], [0, 0], [3, 0], [3, 0], [0, 4]], dtype=float)
        dist = pairwise_distances(pts)
        tour = christofides_tour(dist)
        validate_tour(tour, 5)
        assert len(tour) == 5


@st.composite
def tour_problems(draw):
    """``(dist, start, nodes)``: n = 1-60 points, optionally snapped onto a
    coarse grid (co-located points) and with some points on point 0 (the
    depot of the baseline), toured from a random start over all nodes or
    a random subset."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(0, 500, (n, 2))
    if draw(st.booleans()):
        pts = np.round(pts / 100.0) * 100.0
    on_depot = draw(st.integers(0, n - 1))
    pts[rng.choice(np.arange(1, n), size=on_depot, replace=False)] = pts[0]
    nodes = None
    pool = np.arange(n)
    if draw(st.booleans()):
        size = draw(st.integers(1, n))
        pool = np.sort(rng.choice(n, size=size, replace=False))
        nodes = pool
    start = int(pool[draw(st.integers(0, len(pool) - 1))])
    return pairwise_distances(pts), start, nodes


class TestMatchesNetworkx:
    """The in-house matching and Euler walk give networkx's tour."""

    @given(problem=tour_problems())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bitwise_equal_tours(self, problem):
        dist, start, nodes = problem
        np.testing.assert_array_equal(
            christofides_tour(dist, start=start, nodes=nodes),
            networkx_christofides(dist, start=start, nodes=nodes))
