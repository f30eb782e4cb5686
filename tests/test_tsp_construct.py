"""Unit tests for repro.tsp.construct."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxgraph import W2Costs
from repro.geometry.distance import pairwise_distances
from repro.orienteering._vector import all_insertion_deltas
from repro.orienteering.problem import DenseCosts
from repro.tsp.construct import (
    best_insertion,
    cheapest_insertion_tour,
    insertion_delta,
    nearest_neighbor_tour,
    repair_insertion_cache,
)
from repro.tsp.length import tour_length_matrix, validate_tour
from repro.utils.errors import InvalidParameterError
from tests.oracles import full_insertion_deltas


@pytest.fixture
def pts(rng):
    return rng.uniform(0, 100, (9, 2))


@pytest.fixture
def dist(pts):
    return pairwise_distances(pts)


class TestNearestNeighbor:
    def test_is_permutation(self, dist):
        tour = nearest_neighbor_tour(dist, start=0)
        validate_tour(tour, len(dist))
        assert len(tour) == len(dist)

    def test_starts_at_start(self, dist):
        assert nearest_neighbor_tour(dist, start=4)[0] == 4

    def test_single_node(self):
        tour = nearest_neighbor_tour(np.zeros((1, 1)))
        np.testing.assert_array_equal(tour, [0])

    def test_empty(self):
        assert len(nearest_neighbor_tour(np.zeros((0, 0)))) == 0

    def test_bad_start_rejected(self, dist):
        with pytest.raises(InvalidParameterError):
            nearest_neighbor_tour(dist, start=99)

    def test_greedy_step_property(self, dist):
        # The second node must be the nearest unvisited neighbour of start.
        tour = nearest_neighbor_tour(dist, start=0)
        row = dist[0].copy()
        row[0] = np.inf
        assert tour[1] == np.argmin(row)


class TestInsertionDelta:
    def test_empty_tour(self, dist):
        delta, pos = insertion_delta(np.empty(0, dtype=int), dist, 3)
        assert delta == 0.0

    def test_singleton_tour(self, dist):
        delta, pos = insertion_delta(np.array([0]), dist, 3)
        assert delta == pytest.approx(2 * dist[0, 3])

    def test_delta_matches_actual_length_change(self, dist):
        tour = np.array([0, 2, 5, 7])
        before = tour_length_matrix(tour, dist)
        delta, _ = insertion_delta(tour, dist, 4)
        after = tour_length_matrix(best_insertion(tour, dist, 4), dist)
        assert after - before == pytest.approx(delta)

    def test_delta_is_minimum_over_positions(self, dist):
        tour = np.array([0, 2, 5, 7])
        delta, _ = insertion_delta(tour, dist, 4)
        for pos in range(1, len(tour) + 1):
            cand = np.insert(tour, pos, 4)
            manual = (tour_length_matrix(cand, dist)
                      - tour_length_matrix(tour, dist))
            assert delta <= manual + 1e-9

    def test_metric_delta_non_negative(self, dist):
        # In a metric space an insertion can never shorten the tour.
        tour = np.array([0, 2, 5])
        delta, _ = insertion_delta(tour, dist, 1)
        assert delta >= -1e-9


class TestBestInsertion:
    def test_inserts_node(self, dist):
        out = best_insertion(np.array([0, 1]), dist, 5)
        assert 5 in out and len(out) == 3

    def test_into_empty(self, dist):
        np.testing.assert_array_equal(
            best_insertion(np.empty(0, dtype=int), dist, 5), [5])


class TestCheapestInsertionTour:
    def test_is_permutation(self, dist):
        tour = cheapest_insertion_tour(dist, start=0)
        validate_tour(tour, len(dist))
        assert len(tour) == len(dist)
        assert tour[0] == 0

    def test_subset_of_nodes(self, dist):
        tour = cheapest_insertion_tour(dist, start=0, nodes=[0, 3, 6])
        assert sorted(tour) == [0, 3, 6]

    def test_start_not_in_pool_rejected(self, dist):
        with pytest.raises(InvalidParameterError):
            cheapest_insertion_tour(dist, start=0, nodes=[1, 2])

    def test_duplicate_pool_rejected(self, dist):
        with pytest.raises(InvalidParameterError):
            cheapest_insertion_tour(dist, start=1, nodes=[1, 1, 2])

    def test_reasonable_quality(self, rng):
        # Cheapest insertion should beat a random permutation handily.
        pts = rng.uniform(0, 100, (15, 2))
        dist = pairwise_distances(pts)
        ci = tour_length_matrix(cheapest_insertion_tour(dist), dist)
        rand_tours = [rng.permutation(15) for _ in range(20)]
        rand_best = min(tour_length_matrix(t, dist) for t in rand_tours)
        assert ci <= rand_best


class TestRepairInsertionCache:
    """The repair settles a destroyed edge's candidates a new edge beats."""

    def test_settles_strictly_beaten_and_returns_the_rest(self):
        # Edge e = 1 is destroyed; candidates 0-3 had it as their best.
        deltas = np.array([5.0, 3.0, 2.0, 1.0, 1.0, 2.0])
        edges = np.array([1, 1, 1, 1, 0, 3])
        via = (np.array([4.0, 3.5, 2.0, 1.5, 1.0, 2.5]),
               np.array([4.5, 2.0, 2.0, 1.5, 3.0, 2.0]))
        rescan = repair_insertion_cache(deltas, edges, 1, via)
        # 0 and 1 are beaten strictly (on new edge 1 and 2), 2 ties its
        # old best on both new edges and 3 is not beaten: 2 and 3 go to
        # the rescan.  4 keeps edge 0 on a tie; 5's edge 3 shifts to 4,
        # and it ties new edge 2, the lower index, which it takes.
        np.testing.assert_array_equal(rescan, [2, 3])
        np.testing.assert_array_equal(deltas[[0, 1, 4, 5]],
                                      [4.0, 2.0, 1.0, 2.0])
        np.testing.assert_array_equal(edges[[0, 1, 4, 5]], [1, 2, 0, 2])

    def test_tied_dead_candidate_is_rescanned(self):
        deltas, edges = np.array([7.0]), np.array([2])
        rescan = repair_insertion_cache(
            deltas, edges, 2, (np.array([7.0]), np.array([9.0])))
        np.testing.assert_array_equal(rescan, [0])

    def test_nothing_dead_nothing_returned(self):
        deltas, edges = np.array([1.0, 2.0]), np.array([0, 4])
        rescan = repair_insertion_cache(
            deltas, edges, 2, (np.array([0.5, 3.0]), np.array([0.5, 3.0])))
        assert len(rescan) == 0
        np.testing.assert_array_equal(deltas, [0.5, 2.0])
        np.testing.assert_array_equal(edges, [2, 5])

    @staticmethod
    def _costs(rng, n, kind, cost_kind):
        if kind == "lattice":
            # Integer lattice points (co-located and collinear nodes) and
            # integer hover energies: many exact ties, on dead edges too.
            pts = rng.integers(0, 5, (n, 2)).astype(float) * 10.0
            w1 = rng.integers(0, 3, n).astype(float) * 10.0
        else:
            pts = rng.uniform(0, 100, (n, 2))
            w1 = rng.uniform(0, 40, n)
        if cost_kind == "dense":
            return DenseCosts(pairwise_distances(pts))
        return W2Costs(pts, w1, float(rng.choice([0.5, 1.0, 3.0])))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
           kind=st.sampled_from(["random", "lattice"]),
           cost_kind=st.sampled_from(["dense", "w2"]),
           start_len=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_repair_plus_rescan_is_a_full_scan(self, seed, n, kind,
                                               cost_kind, start_len):
        """After every insertion, the repair plus a rescan of exactly
        the returned candidates is bitwise a fresh first-minimum scan."""
        rng = np.random.default_rng(seed)
        costs = self._costs(rng, n, kind, cost_kind)
        order = rng.permutation(n)
        tour, cols = order[:start_len], np.sort(order[start_len:])
        deltas, positions = all_insertion_deltas(tour, costs, cols)
        edges = positions - 1
        while len(cols):
            # Half the steps insert the cheapest candidate, as the
            # planners do, half a random one.
            i = (int(np.argmin(deltas)) if rng.random() < 0.5
                 else int(rng.integers(len(cols))))
            v, e = int(cols[i]), int(edges[i])
            tour = np.concatenate((tour[:e + 1], [v], tour[e + 1:]))
            keep = np.arange(len(cols)) != i
            cols, deltas, edges = cols[keep], deltas[keep], edges[keep]
            a, b = int(tour[e]), int(tour[(e + 2) % len(tour)])
            via = costs.block([a, v, b], cols)
            edge = costs.pair(np.array([a, v]), np.array([v, b]))
            rescan = repair_insertion_cache(
                deltas, edges, e, (via[0] + via[1] - edge[0],
                                   via[1] + via[2] - edge[1]))
            rescanned, positions = all_insertion_deltas(tour, costs,
                                                        cols[rescan])
            deltas[rescan] = rescanned
            edges[rescan] = positions - 1
            full_d, full_p = full_insertion_deltas(tour, costs)
            assert deltas.tobytes() == full_d[cols].tobytes()
            np.testing.assert_array_equal(edges, full_p[cols] - 1)
