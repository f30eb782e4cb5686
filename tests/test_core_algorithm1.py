"""Unit tests for repro.core.algorithm1 (orienteering reduction)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core.algorithm1 import plan_algorithm1
from repro.core.auxgraph import build_auxiliary_graph, overlap_conflicts
from repro.core.hovering import build_hovering_sites
from repro.core.planner import plan_tour
from repro.core.tour import validate_tour_feasibility
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.config import reduced_settings
from repro.experiments.fig3 import run_fig3
from repro.experiments.instances import make_instances
from repro.orienteering import problem
from repro.orienteering.grasp import GRASP_STAT_NAMES
from repro.orienteering.problem import ConflictLists
from repro.utils.errors import InvalidParameterError
from tests.oracles import dense_auxgraph, rescan_construction


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


class TestConflictValidation:
    """The overlap relation is validated once per (instance, δ); raw
    conflict lists are validated on every call."""

    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
    def test_validator_calls_in_run_fig3(self, cache):
        config = reduced_settings().scaled(n_nodes=30, n_instances=1)
        net = make_instances(config)[0]
        with mock.patch.object(problem, "_conflict_lists",
                               wraps=problem._conflict_lists) as validator:
            result = run_fig3(config, [net], validate=False, cache=cache)
        # One δ: the cache validates once; without it every Algorithm 1
        # cell (one per capacity) builds and validates its own lists.
        cells = len(config.capacity_sweep)
        assert validator.call_count == (1 if cache else cells)
        assert len(result.series("Algorithm 1")) == cells

    def test_cached_lists_are_a_sequence_plan_tour_takes(self, small_net,
                                                         radio, energy):
        cache = ArtifactCache()
        lists = cache.conflict_neighbors(small_net, radio, 30.0)
        assert isinstance(lists, ConflictLists)
        assert cache.conflict_neighbors(small_net, radio, 30.0) is lists
        sites = cache.sites(small_net, radio, 30.0)
        assert len(lists) == sites.n_sites + 1
        assert sum(len(nb) for nb in lists) % 2 == 0
        kwargs = dict(method="algorithm1", delta=30.0, seed=0, n_restarts=2)
        tour = plan_tour(small_net, energy, radio, sites=sites,
                         conflict_neighbors=lists, **kwargs)
        _same_plan(tour, plan_tour(small_net, energy, radio, **kwargs))

    def test_raw_lists_plan_like_the_container(self, small_net, radio,
                                               energy):
        sites = build_hovering_sites(small_net, radio, 30.0)
        raw = [nb.tolist() for nb in overlap_conflicts(sites)]
        kwargs = dict(delta=30.0, seed=0, n_restarts=2, sites=sites)
        _same_plan(plan_algorithm1(small_net, energy, radio,
                                   conflict_neighbors=raw, **kwargs),
                   plan_algorithm1(small_net, energy, radio, **kwargs))

    @pytest.mark.parametrize("fault, match", [
        ("asymmetric", r"^conflict neighbors not symmetric: 1 lists 2 but "
                       r"not vice versa$"),
        ("self-loop", r"^node 2 lists itself as a conflict neighbor$"),
        ("out-of-range", r"^conflict neighbor index out of range$"),
        ("fraction", r"^conflict neighbor entries must be integers, "
                     r"got 2\.7$"),
        ("nan", r"^conflict neighbor entries must be integers, got nan$"),
        ("inf", r"^conflict neighbor entries must be integers, got inf$")])
    def test_raw_lists_rejected(self, small_net, radio, energy, fault,
                                match):
        sites = build_hovering_sites(small_net, radio, 30.0)
        raw = [[] for _ in range(sites.n_sites + 1)]
        if fault == "asymmetric":
            raw[1] = [2]
        elif fault == "self-loop":
            raw[2] = [2]
        elif fault == "out-of-range":
            raw[1] = [sites.n_sites + 1]
        else:
            # Symmetric once truncated: 2.7 used to be read as node 2.
            entry = {"fraction": 2.7, "nan": float("nan"),
                     "inf": float("inf")}[fault]
            raw[1], raw[2] = [entry], [1]
        with pytest.raises(InvalidParameterError, match=match):
            plan_algorithm1(small_net, energy, radio, delta=30.0, seed=0,
                            n_restarts=2, sites=sites,
                            conflict_neighbors=raw)


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


class TestRescanConstructionOracle:
    """Plans with the cached GRASP construction equal the full rescan's."""

    @pytest.fixture(scope="class")
    def reduced(self):
        config = reduced_settings().scaled(n_instances=1, seed=11)
        return config, make_instances(config)[0]

    @pytest.mark.parametrize("delta", [10.0, 15.0, 25.0])
    def test_plans_match_on_reduced_instance(self, reduced, delta):
        config, net = reduced
        radio = config.radio_model()
        for capacity in config.capacity_sweep:
            energy = config.energy_model(capacity)
            kwargs = dict(method="algorithm1", delta=delta, n_restarts=3,
                          seed=0)
            tour = plan_tour(net, energy, radio, **kwargs)
            with rescan_construction():
                oracle = plan_tour(net, energy, radio, **kwargs)
            for field in ("points", "sojourns", "collected"):
                assert (getattr(tour, field).tobytes()
                        == getattr(oracle, field).tobytes())
            assert tour.meta == oracle.meta
            assert tour.meta["perf"]["grasp"]["restarts"] == 3
