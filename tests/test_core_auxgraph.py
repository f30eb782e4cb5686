"""Unit tests for repro.core.auxgraph (G_s construction, Lemma 1)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxgraph import W2Costs, build_auxiliary_graph, overlap_conflicts
from repro.core.hovering import build_hovering_sites
from repro.geometry.region import Region
from repro.network.sensor_network import SensorNetwork
from repro.tsp.length import tour_length_matrix
from repro.utils.errors import InvalidParameterError
from tests.oracles import dense_overlap_conflicts, dense_w2


@pytest.fixture
def graph(small_net, radio, energy):
    sites = build_hovering_sites(small_net, radio, delta=30.0)
    return build_auxiliary_graph(sites, energy)


class TestStructure:
    def test_depot_is_node_zero(self, graph, small_net):
        np.testing.assert_allclose(graph.points[0], small_net.depot)
        assert graph.awards[0] == 0.0
        assert graph.hover_energies[0] == 0.0

    def test_node_count(self, graph):
        assert graph.n_nodes == graph.sites.n_sites + 1

    def test_costs_symmetric_zero_diagonal(self, graph):
        c = graph.w2.rows(np.arange(graph.n_nodes))
        np.testing.assert_array_equal(c, c.T)
        np.testing.assert_array_equal(np.diag(c), 0.0)

    def test_w1_is_hover_time_times_power(self, graph, energy):
        np.testing.assert_allclose(
            graph.hover_energies, graph.hover_times * energy.hover_power)

    def test_edge_weight_formula(self, graph, energy):
        # Eq. 9 spot check on a few random pairs.
        rng = np.random.default_rng(0)
        n = graph.n_nodes
        for _ in range(10):
            i, j = rng.choice(n, 2, replace=False)
            dist = np.linalg.norm(graph.points[i] - graph.points[j])
            expected = (0.5 * (graph.hover_energies[i] + graph.hover_energies[j])
                        + dist * energy.travel_cost_per_meter)
            assert graph.w2.pair(i, j) == pytest.approx(expected)

    def test_rejects_non_energy_model(self, small_net, radio):
        sites = build_hovering_sites(small_net, radio, delta=30.0)
        with pytest.raises(InvalidParameterError):
            build_auxiliary_graph(sites, "not a model")


class TestMetricity:
    def test_lemma1_exhaustive_small(self, tiny_net, radio, energy):
        sites = build_hovering_sites(tiny_net, radio, delta=40.0)
        graph = build_auxiliary_graph(sites, energy)
        n = graph.n_nodes
        c = graph.w2.rows(np.arange(n))
        for i, j, k in itertools.permutations(range(n), 3):
            assert c[i, k] <= c[i, j] + c[j, k] + 1e-9

    def test_verify_metric_sampled(self, graph):
        assert graph.verify_metric(n_samples=500)

    def test_verify_metric_detects_violation(self, graph):
        # Lemma 1 needs w1 >= 0: a hugely negative hover energy makes
        # every detour through that node "cheaper" than the direct edge.
        broken = graph
        broken.hover_energies[[3, 4, 5]] = -1e9
        assert not broken.verify_metric(n_samples=5000)


class TestTourEnergy:
    def test_closed_tour_energy_decomposition(self, graph, energy):
        # Sum of w2 edges along a closed tour = total hover + travel energy.
        tour = np.array([0, 3, 1, 5])
        edge_sum = graph.tour_energy(tour)
        hover = graph.hover_energies[tour].sum()
        travel = 0.0
        for a, b in zip(tour, np.roll(tour, -1)):
            travel += np.linalg.norm(graph.points[a] - graph.points[b])
        expected = hover + travel * energy.travel_cost_per_meter
        assert edge_sum == pytest.approx(expected)

    def test_trivial_tours_zero(self, graph):
        assert graph.tour_energy([0]) == 0.0
        assert graph.tour_energy([]) == 0.0


class TestW2Costs:
    """The on-demand operator is bitwise the dense Eq. 9 build."""

    @given(seed=st.integers(0, 2**32 - 1),
           n=st.one_of(st.integers(1, 24), st.just(600)),
           coincident=st.booleans(),
           zero_hover=st.floats(0.0, 1.0),
           scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
           rate=st.sampled_from([0.0, 0.37, 10.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_rows_pairs_tours_match_dense(self, seed, n, coincident,
                                          zero_hover, scale, rate):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-scale, scale, (n, 2))
        if coincident and n > 1:
            # Several distinct sites stacked on the same centres.
            points[rng.integers(0, n, n // 2)] = points[0]
        w1 = rng.uniform(0.0, 1e4, n)
        w1[0] = 0.0                                   # the depot
        w1[rng.random(n) < zero_hover] = 0.0          # zero-hover sites
        ops = W2Costs(points, w1, rate)
        ops.check()
        dense = dense_w2(points, w1, rate)
        assert dense.tobytes() == dense.T.tobytes()   # exactly symmetric

        idx = rng.integers(0, n, min(3 * n, 700))     # repeats included
        assert ops.rows(idx).tobytes() == dense[idx].tobytes()
        again = ops.rows(idx[::-1])                   # served from cache
        assert again.tobytes() == dense[idx[::-1]].tobytes()
        again += 1.0                                  # a fresh copy
        assert ops.rows(idx).tobytes() == dense[idx].tobytes()

        i = rng.integers(0, n, 500)
        j = np.where(rng.random(500) < 0.1, i, rng.integers(0, n, 500))
        assert ops.pair(i, j).tobytes() == dense[i, j].tobytes()
        for _ in range(5):
            tour = rng.permutation(n)[:rng.integers(0, n + 1)]
            assert ops.tour_cost(tour) == tour_length_matrix(tour, dense)

    def test_depot_only_graph(self, radio, energy):
        empty = SensorNetwork(positions=np.empty((0, 2)), volumes=[],
                              depot=[50.0, 50.0],
                              region=Region.square(100.0))
        graph = build_auxiliary_graph(
            build_hovering_sites(empty, radio, 20.0), energy)
        assert graph.n_nodes == 1
        graph.w2.check()
        np.testing.assert_array_equal(graph.w2.rows([0]), [[0.0]])
        assert graph.w2.tour_cost([0]) == 0.0
        for lists in (overlap_conflicts(graph.sites),
                      dense_overlap_conflicts(graph.sites)):
            assert len(lists) == 1 and len(lists[0]) == 0

    @pytest.mark.parametrize("fault", [
        "nan-point", "inf-point", "nan-w1", "negative-w1", "overflow"])
    def test_check_rejects_bad_inputs(self, fault):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        w1 = np.array([0.0, 1.0, 2.0])
        if fault == "nan-point":
            points[1, 0] = np.nan
        elif fault == "inf-point":
            points[2, 1] = np.inf
        elif fault == "nan-w1":
            w1[1] = np.nan
        elif fault == "negative-w1":
            w1[2] = -1e-12
        else:
            points[2] = [1e308, -1e308]
        with pytest.raises(InvalidParameterError):
            W2Costs(points, w1, 1.0).check()

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
    def test_check_rejects_bad_rate(self, rate):
        ops = W2Costs(np.zeros((2, 2)), np.zeros(2), rate)
        with pytest.raises(InvalidParameterError):
            ops.check()


class TestOverlapConflicts:
    """Sparse-gram conflict lists equal the dense overlap-matrix rows."""

    @pytest.mark.parametrize("delta", [15.0, 25.0, 40.0])
    @pytest.mark.parametrize("prune", [True, False])
    def test_matches_dense_reference(self, clustered_net, radio, delta,
                                     prune):
        sites = build_hovering_sites(clustered_net, radio, delta,
                                     prune=prune)
        lists = overlap_conflicts(sites)
        ref = dense_overlap_conflicts(sites)
        assert len(lists) == len(ref) == sites.n_sites + 1
        for got, want in zip(lists, ref):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
