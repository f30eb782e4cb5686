"""Unit tests for repro.core.algorithm1 (orienteering reduction)."""

import numpy as np
import pytest

from repro.core.algorithm1 import plan_algorithm1
from repro.core.auxgraph import build_auxiliary_graph
from repro.core.hovering import build_hovering_sites
from repro.core.planner import plan_tour
from repro.core.tour import validate_tour_feasibility
from repro.utils.errors import InvalidParameterError


class TestFeasibility:
    @pytest.mark.parametrize("seed", range(3))
    def test_feasible_on_random_nets(self, generator, radio, energy, seed):
        net = generator.uniform(15, seed=seed)
        tour = plan_algorithm1(net, energy, radio, delta=30.0, seed=0,
                               n_restarts=2)
        report = validate_tour_feasibility(tour, radio=radio)
        assert report.feasible

    def test_depot_first(self, small_net, radio, energy):
        tour = plan_algorithm1(small_net, energy, radio, delta=30.0, seed=0,
                               n_restarts=2)
        np.testing.assert_allclose(tour.points[0], small_net.depot)

    def test_tiny_budget_collects_nothing(self, small_net, radio):
        from repro.energy.model import EnergyModel
        tiny = EnergyModel(capacity=1.0, hover_power=150.0,
                           travel_power=100.0, speed=10.0)
        tour = plan_algorithm1(small_net, tiny, radio, delta=30.0, seed=0)
        assert tour.collected_volume == 0.0
        assert tour.total_energy <= 1.0

    def test_huge_budget_collects_everything(self, small_net, radio,
                                             roomy_energy):
        tour = plan_algorithm1(small_net, roomy_energy, radio, delta=30.0,
                               seed=0, n_restarts=2)
        # With conflict mode, disjointness may leave sensors on the table
        # only if no conflict-free cover exists; with delta <= R0 a cover
        # always exists for isolated sensors, but overlapping clusters can
        # block 100 % collection.  Require at least 60 % here and exact
        # totals in the overlap="ignore" test below.
        assert tour.collected_volume >= 0.6 * small_net.total_volume

    def test_ignore_mode_huge_budget_collects_everything(
            self, small_net, radio, roomy_energy):
        tour = plan_algorithm1(small_net, roomy_energy, radio, delta=30.0,
                               overlap="ignore", seed=0, n_restarts=2)
        assert tour.collected_volume == pytest.approx(small_net.total_volume)


class TestOverlapModes:
    def test_conflict_mode_visits_disjoint_sites(self, clustered_net, radio,
                                                 roomy_energy):
        from repro.core.hovering import build_hovering_sites
        tour = plan_algorithm1(clustered_net, roomy_energy, radio,
                               delta=25.0, overlap="conflict", seed=0,
                               n_restarts=2)
        # Recover which sensors each visited hover point covers and check
        # pairwise disjointness.
        sites = build_hovering_sites(clustered_net, radio, 25.0)
        covered_sets = []
        for p, s in zip(tour.points[1:], tour.sojourns[1:]):
            d = np.linalg.norm(sites.network.positions - p, axis=1)
            covered_sets.append(set(np.flatnonzero(d <= radio.coverage_radius)))
        for i in range(len(covered_sets)):
            for j in range(i + 1, len(covered_sets)):
                assert not (covered_sets[i] & covered_sets[j])

    def test_conflict_award_equals_volume(self, small_net, radio, energy):
        tour = plan_algorithm1(small_net, energy, radio, delta=30.0,
                               overlap="conflict", seed=0, n_restarts=2)
        # No double counting: orienteering award == true collected volume.
        assert tour.meta["orienteering_award"] == pytest.approx(
            tour.collected_volume)

    def test_ignore_mode_award_at_least_volume(self, clustered_net, radio,
                                               energy):
        tour = plan_algorithm1(clustered_net, energy, radio, delta=25.0,
                               overlap="ignore", seed=0, n_restarts=2)
        assert tour.meta["orienteering_award"] >= tour.collected_volume - 1e-6

    def test_invalid_mode_rejected(self, small_net, radio, energy):
        with pytest.raises(InvalidParameterError):
            plan_algorithm1(small_net, energy, radio, delta=30.0,
                            overlap="sometimes")

    def test_delta_above_r0_rejected(self, small_net, radio, energy):
        with pytest.raises(InvalidParameterError):
            plan_algorithm1(small_net, energy, radio, delta=60.0)


class TestQuality:
    def test_beats_or_matches_benchmark(self, generator, radio, energy):
        from repro.core.benchmark_alg import plan_benchmark
        net = generator.uniform(20, seed=42)
        alg1 = plan_algorithm1(net, energy, radio, delta=30.0, seed=0,
                               n_restarts=3)
        bench = plan_benchmark(net, energy, radio)
        # The paper's headline: Algorithm 1 dominates the baseline.
        assert alg1.collected_volume >= bench.collected_volume - 1e-6

    def test_exact_solver_on_tiny_instance(self, generator, radio, energy):
        # 3 sensors keep the candidate-site count within the exact DP limit.
        net = generator.uniform(3, seed=1)
        tour = plan_algorithm1(net, energy, radio, delta=50.0,
                               solver="exact")
        report = validate_tour_feasibility(tour, radio=radio)
        assert report.feasible

    def test_deterministic_given_seed(self, small_net, radio, energy):
        a = plan_algorithm1(small_net, energy, radio, delta=30.0, seed=3,
                            n_restarts=2)
        b = plan_algorithm1(small_net, energy, radio, delta=30.0, seed=3,
                            n_restarts=2)
        np.testing.assert_allclose(a.points, b.points)
        assert a.collected_volume == b.collected_volume

    def test_meta_fields(self, small_net, radio, energy):
        tour = plan_algorithm1(small_net, energy, radio, delta=30.0, seed=0,
                               n_restarts=2)
        assert tour.method == "algorithm1"
        assert tour.meta["n_candidates"] > 0
        assert tour.meta["delta"] == 30.0
        assert tour.meta["n_visited"] == tour.n_hovers


class TestPrebuiltGraphValidation:
    """A supplied auxiliary graph is validated like any instance."""

    @pytest.mark.parametrize("fault", ["nan", "negative", "asymmetric"])
    def test_corrupt_graph_costs_rejected(self, small_net, radio, energy,
                                          fault):
        sites = build_hovering_sites(small_net, radio, 30.0)
        graph = build_auxiliary_graph(sites, energy)
        value = {"nan": np.nan, "negative": -1.0,
                 "asymmetric": graph.costs[1, 2] * 2.0 + 1.0}[fault]
        graph.costs[1, 2] = value
        with pytest.raises(InvalidParameterError, match="costs must be"):
            plan_tour(small_net, energy, radio, method="algorithm1",
                      delta=30.0, graph=graph, seed=0, n_restarts=2)
