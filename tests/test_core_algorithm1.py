"""Unit tests for repro.core.algorithm1 (orienteering reduction)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.algorithm1 import plan_algorithm1
from repro.core.auxgraph import build_auxiliary_graph
from repro.core.hovering import build_hovering_sites
from repro.core.planner import plan_tour
from repro.core.tour import validate_tour_feasibility
from repro.experiments.config import reduced_settings
from repro.experiments.instances import make_instances
from repro.orienteering.grasp import GRASP_STAT_NAMES
from repro.utils.errors import InvalidParameterError
from tests.oracles import dense_auxgraph


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


class TestPerfShape:
    def test_meta_perf_counts_only(self, small_net, radio, energy):
        # Engine plus GRASP's work counters; no wall-clock key.
        tour = plan_algorithm1(small_net, energy, radio, delta=30.0,
                               solver="grasp", seed=0, n_restarts=2)
        perf = tour.meta["perf"]
        assert set(perf) == {"engine", "grasp"}
        assert perf["engine"] == "scalar"
        assert set(perf["grasp"]) == set(GRASP_STAT_NAMES)
        assert all(type(v) is int for v in perf["grasp"].values())


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
    """A supplied auxiliary graph's inputs are validated on every call."""

    @pytest.mark.parametrize("fault", ["nan", "negative", "nan-point",
                                       "inf-point", "nan-award"])
    def test_corrupt_graph_costs_rejected(self, small_net, radio, energy,
                                          fault):
        sites = build_hovering_sites(small_net, radio, 30.0)
        graph = build_auxiliary_graph(sites, energy)
        if fault == "nan":
            graph.hover_energies[2] = np.nan
        elif fault == "negative":
            graph.hover_energies[2] = -1.0
        elif fault == "nan-point":
            graph.points[1, 0] = np.nan
        elif fault == "inf-point":
            graph.points[2, 1] = np.inf
        else:
            graph.awards[3] = np.nan
        with pytest.raises(InvalidParameterError, match="must be finite"):
            plan_tour(small_net, energy, radio, method="algorithm1",
                      delta=30.0, graph=graph, seed=0, n_restarts=2)


def _same_plan(a, b):
    for field in ("points", "sojourns", "collected"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    for key in ("orienteering_award", "orienteering_cost", "n_visited",
                "orienteering_method"):
        assert a.meta[key] == b.meta[key]
    assert a.meta["perf"] == b.meta["perf"]


class TestDenseOracle:
    """Tours over the on-demand w2 equal tours over the dense matrix."""

    @pytest.mark.parametrize("solver", ["grasp", "greedy", "auto"])
    @pytest.mark.parametrize("net_name", ["small_net", "clustered_net"])
    def test_solvers_match_dense_instance(self, request, radio, energy,
                                          solver, net_name):
        net = request.getfixturevalue(net_name)
        kwargs = dict(delta=25.0, solver=solver, seed=5, n_restarts=4)
        tour = plan_algorithm1(net, energy, radio, **kwargs)
        with dense_auxgraph():
            dense = plan_algorithm1(net, energy, radio, **kwargs)
        _same_plan(tour, dense)

    @pytest.mark.parametrize("solver", ["exact", "auto"])
    def test_exact_dp_matches_dense_instance(self, generator, radio, energy,
                                             solver):
        net = generator.uniform(4, seed=2)
        tour = plan_algorithm1(net, energy, radio, delta=50.0, solver=solver)
        assert tour.meta["orienteering_method"] == "exact-dp"
        with dense_auxgraph():
            dense = plan_algorithm1(net, energy, radio, delta=50.0,
                                    solver=solver)
        _same_plan(tour, dense)

    def test_warm_nodes_match_dense_instance(self, small_net, radio, energy):
        kwargs = dict(delta=25.0, seed=1, n_restarts=2,
                      warm_nodes=np.arange(1, 40, 3))
        tour = plan_algorithm1(small_net, energy, radio, **kwargs)
        assert tour.meta["perf"]["grasp"]["warm_starts"] == 1
        with dense_auxgraph():
            dense = plan_algorithm1(small_net, energy, radio, **kwargs)
        _same_plan(tour, dense)

    @pytest.mark.parametrize("overlap", ["conflict", "ignore"])
    def test_safe_reduction_matches_dense_instance(self, clustered_net,
                                                   radio, energy, overlap):
        kwargs = dict(delta=20.0, seed=2, n_restarts=3,
                      site_reduction="safe", overlap=overlap)
        tour = plan_algorithm1(clustered_net, energy, radio, **kwargs)
        with dense_auxgraph():
            dense = plan_algorithm1(clustered_net, energy, radio, **kwargs)
        _same_plan(tour, dense)


class TestImplicitCostMemory:
    def test_peak_far_below_dense_matrix(self):
        # ~2100 candidate sites: the dense w2 matrix alone would take
        # (m+1)^2 * 8 bytes, about 36 MB.
        config = reduced_settings().scaled(n_nodes=80, seed=3)
        net = make_instances(config)[0]
        radio = config.radio_model()
        sites = build_hovering_sites(net, radio, 15.0)
        m = sites.n_sites
        assert 1500 <= m <= 2500
        dense_bytes = (m + 1) ** 2 * 8
        tracemalloc.start()
        try:
            tour = plan_algorithm1(net, config.energy_model(), radio, 15.0,
                                   sites=sites, seed=0, n_restarts=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tour.n_hovers > 0
        assert peak < dense_bytes / 4, (peak, dense_bytes)
