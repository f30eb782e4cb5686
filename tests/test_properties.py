"""Property-based tests (hypothesis) for core data structures and invariants.

These cover the claims the paper proves analytically:

* Lemma 1 — the auxiliary graph ``G_s`` is metric,
* Eq. 4 monotonicity — partial awards grow with the sojourn fraction,
* tour-energy decomposition — w2 edge sums equal hover + travel energy,
* conservation through forwarding,
* geometric invariants of the grid/coverage substrates,
* Christofides validity on arbitrary point sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.auxgraph import build_auxiliary_graph
from repro.core.hovering import build_hovering_sites
from repro.energy.model import EnergyModel
from repro.geometry.coverage import coverage_matrix, coverage_sets_bruteforce
from repro.geometry.distance import pairwise_distances, tour_length
from repro.geometry.grid import GridPartition
from repro.geometry.region import Region
from repro.network.forwarding import aggregate_volumes, assign_forwarding
from repro.network.sensor_network import SensorNetwork
from repro.radio.link import RadioModel
from repro.tsp.christofides import christofides_tour
from repro.tsp.improve import or_opt, two_opt
from repro.tsp.length import tour_length_matrix, validate_tour

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
coords = st.floats(min_value=0.0, max_value=500.0,
                   allow_nan=False, allow_infinity=False)


def points_strategy(min_n=3, max_n=12):
    return arrays(np.float64, st.tuples(st.integers(min_n, max_n),
                                        st.just(2)),
                  elements=coords)


volumes_elem = st.floats(min_value=0.0, max_value=1000.0,
                         allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------- #
# Geometry invariants
# ---------------------------------------------------------------------- #
class TestGeometryProperties:
    @given(points_strategy())
    @settings(max_examples=50, deadline=None)
    def test_pairwise_metric(self, pts):
        d = pairwise_distances(pts)
        assert (d >= 0).all()
        assert np.allclose(d, d.T)
        n = len(pts)
        # Triangle inequality on every triple.
        for i in range(n):
            lhs = d[i][None, :]                    # d(i, k)
            rhs = d[i][:, None] + d                # d(i, j) + d(j, k)
            assert (lhs <= rhs + 1e-6).all()

    @given(points_strategy(), st.floats(min_value=5.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_coverage_matrix_matches_bruteforce(self, pts, radius):
        cands, sensors = pts[: len(pts) // 2 + 1], pts[len(pts) // 2:]
        mat = coverage_matrix(cands, sensors, radius)
        ref = coverage_sets_bruteforce(cands, sensors, radius)
        for row, r in zip(mat, ref):
            np.testing.assert_array_equal(np.flatnonzero(row), r)

    @given(st.floats(min_value=1.0, max_value=120.0),
           points_strategy(min_n=1, max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_grid_flat_index_roundtrip(self, delta, pts):
        grid = GridPartition(Region.square(500.0), delta)
        idx = grid.flat_index(pts)
        centers = grid.center_of(idx)
        # A point is within half a square diagonal of its square's centre
        # (points inside the region; strategy guarantees that).
        half_diag = delta * np.sqrt(2) / 2
        d = np.linalg.norm(centers - np.atleast_2d(pts), axis=1)
        assert (d <= half_diag + 1e-6).all()

    @given(points_strategy(min_n=2, max_n=10))
    @settings(max_examples=50, deadline=None)
    def test_tour_length_rotation_reversal_invariant(self, pts):
        base = tour_length(pts)
        assert tour_length(np.roll(pts, 3, axis=0)) == pytest.approx(
            base, abs=1e-6)
        assert tour_length(pts[::-1]) == pytest.approx(base, abs=1e-6)


# ---------------------------------------------------------------------- #
# TSP invariants
# ---------------------------------------------------------------------- #
class TestTspProperties:
    @given(points_strategy(min_n=3, max_n=11))
    @settings(max_examples=30, deadline=None)
    def test_christofides_valid_permutation(self, pts):
        d = pairwise_distances(pts)
        tour = christofides_tour(d)
        validate_tour(tour, len(pts))
        assert len(tour) == len(pts)
        assert tour[0] == 0

    @given(points_strategy(min_n=4, max_n=11), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_local_search_never_lengthens(self, pts, seed):
        d = pairwise_distances(pts)
        rng = np.random.default_rng(seed)
        tour = rng.permutation(len(pts))
        base = tour_length_matrix(tour, d)
        assert tour_length_matrix(two_opt(tour, d), d) <= base + 1e-6
        assert tour_length_matrix(or_opt(tour, d), d) <= base + 1e-6


# ---------------------------------------------------------------------- #
# Paper-specific invariants
# ---------------------------------------------------------------------- #
def _make_network(pts, volumes):
    return SensorNetwork(positions=pts, volumes=volumes[: len(pts)],
                         depot=[250.0, 250.0],
                         region=Region.square(500.0))


class TestAuxGraphProperties:
    @given(points_strategy(min_n=2, max_n=8),
           arrays(np.float64, st.integers(12, 12), elements=volumes_elem),
           st.floats(min_value=20.0, max_value=60.0))
    @settings(max_examples=30, deadline=None)
    def test_lemma1_metricity(self, pts, volumes, delta):
        net = _make_network(pts, volumes)
        radio = RadioModel(bandwidth=150.0, transmission_range=60.0,
                           altitude=0.0)
        energy = EnergyModel(capacity=1e5, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        sites = build_hovering_sites(net, radio, delta)
        graph = build_auxiliary_graph(sites, energy)
        n = graph.n_nodes
        c = graph.w2.rows(np.arange(n))
        # Exhaustive triangle check (n is small under this strategy).
        for j in range(n):
            lhs = c                                  # c(i, k)
            rhs = c[:, j][:, None] + c[j, :][None, :]
            assert (lhs <= rhs + 1e-6).all()

    @given(points_strategy(min_n=2, max_n=8),
           arrays(np.float64, st.integers(12, 12), elements=volumes_elem))
    @settings(max_examples=30, deadline=None)
    def test_tour_energy_decomposition(self, pts, volumes):
        net = _make_network(pts, volumes)
        radio = RadioModel(bandwidth=150.0, transmission_range=60.0,
                           altitude=0.0)
        energy = EnergyModel(capacity=1e5, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        sites = build_hovering_sites(net, radio, 40.0)
        graph = build_auxiliary_graph(sites, energy)
        if graph.n_nodes < 3:
            return
        tour = np.arange(min(graph.n_nodes, 5))
        edge_sum = graph.tour_energy(tour)
        hover = graph.hover_energies[tour].sum()
        travel = tour_length(graph.points[tour]) * energy.travel_cost_per_meter
        assert edge_sum == pytest.approx(hover + travel, rel=1e-9, abs=1e-6)


class TestPartialAwardProperties:
    @given(arrays(np.float64, st.integers(1, 10), elements=volumes_elem),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_eq4_monotone_in_k(self, volumes, K):
        # P(s_{j,1}) <= P(s_{j,2}) <= ... <= P(s_{j,K}) = full award.
        bandwidth = 150.0
        t_full = volumes.max() / bandwidth if len(volumes) else 0.0
        awards = []
        for k in range(1, K + 1):
            tau = k * t_full / K
            awards.append(np.minimum(volumes, bandwidth * tau).sum())
        for a, b in zip(awards, awards[1:]):
            assert b >= a - 1e-9
        assert awards[-1] == pytest.approx(volumes.sum(), rel=1e-9, abs=1e-9)


class TestForwardingProperties:
    @given(points_strategy(min_n=1, max_n=8),
           points_strategy(min_n=1, max_n=8),
           st.floats(min_value=10.0, max_value=400.0))
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, aggregates, devices, comm_range):
        rng = np.random.default_rng(0)
        own = rng.uniform(0, 100, len(aggregates))
        dev = rng.uniform(0, 100, len(devices))
        assignment = assign_forwarding(devices, aggregates, comm_range)
        total = aggregate_volumes(own, dev, assignment,
                                  n_aggregates=len(aggregates))
        reachable = dev[assignment >= 0].sum()
        assert total.sum() == pytest.approx(own.sum() + reachable, rel=1e-9)
        assert (total >= own - 1e-9).all()

    @given(points_strategy(min_n=1, max_n=8),
           points_strategy(min_n=1, max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_nearest_assignment_in_range(self, aggregates, devices):
        comm_range = 120.0
        assignment = assign_forwarding(devices, aggregates, comm_range)
        for i, a in enumerate(assignment):
            if a >= 0:
                d = np.linalg.norm(np.atleast_2d(devices)[i]
                                   - np.atleast_2d(aggregates)[a])
                assert d <= comm_range + 1e-9
