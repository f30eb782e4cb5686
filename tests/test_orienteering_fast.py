"""GRASP's RNG tape, reduction-aware seeding, and warm-start contracts.

Every randomised restart replays one row of a pre-drawn RNG tape through
the index-sorted RCL pick, so restarts are replayable one at a time and
a ``safe`` site reduction (a pure renumbering of survivors) cannot
change a tour.  The plan-level tests pin Algorithm 1's reduction-aware
tape sizing and its ``meta["perf"]`` contract, and the warm-start tests
pin the strict-improvement acceptance the δ-continuation mode relies on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.algorithm1 import plan_algorithm1
from repro.core.planner import plan_tour
from repro.energy.model import EnergyModel
from repro.geometry.distance import pairwise_distances
from repro.geometry.region import Region
from repro.network.sensor_network import SensorNetwork
from repro.orienteering._vector import draw_rng_tape
from repro.orienteering.grasp import (GRASP_STAT_NAMES, better_solution,
                                      solve_grasp, warm_tour_from_nodes)
from repro.orienteering.greedy import randomized_construct, solve_greedy
from repro.orienteering.problem import OrienteeringInstance, make_solution
from repro.orienteering.solver import solve_orienteering
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError

RADIO = RadioModel(bandwidth=150.0, transmission_range=60.0, altitude=0.0)


def make_instance(seed, n=12, budget=None, conflicts=False):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, (n, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, n)
    awards[0] = 0.0
    if budget is None:
        budget = float(rng.uniform(100, 500))
    groups = None
    if conflicts and n >= 5:
        groups = [np.array([1, 2]), np.array([3, 4])]
    return OrienteeringInstance(costs=costs, awards=awards, budget=budget,
                                depot=0, conflict_groups=groups)


def make_network(seed, n=10):
    rng = np.random.default_rng(seed)
    region = Region.square(300.0)
    return SensorNetwork(positions=region.sample_uniform(n, rng),
                         volumes=rng.uniform(10.0, 500.0, n),
                         depot=region.center, region=region)


ENERGY = EnergyModel(capacity=3e4, hover_power=150.0, travel_power=100.0,
                     speed=10.0)


class TestBitwiseEquivalence:
    @given(seed=st.integers(0, 5_000), n=st.integers(2, 14),
           n_restarts=st.integers(1, 6), grasp_seed=st.integers(0, 1_000))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_restarts_replay_their_tape_rows(self, seed, n, n_restarts,
                                             grasp_seed):
        """Restart 0 is the greedy; restart r replays tape row r - 1."""
        inst = make_instance(seed, n=n)
        tape = draw_rng_tape(np.random.default_rng(grasp_seed), n_restarts,
                             inst.n_nodes)
        tours = [solve_greedy(inst).tour] + [
            randomized_construct(inst, rcl_size=3, tape=tape[r - 1])
            for r in range(1, n_restarts)]
        best = None
        for tour in tours:
            sol = make_solution(inst, tour, "construct")
            if better_solution(sol, best):
                best = sol
        grasp = solve_grasp(inst, n_restarts=n_restarts, rcl_size=3,
                            seed=grasp_seed, local_search=False)
        np.testing.assert_array_equal(grasp.tour, best.tour)
        assert grasp.stats["restarts"] == n_restarts
        distinct = len({t.astype(np.int64).tobytes() for t in tours})
        assert grasp.stats["constructions"] == distinct

    def test_solver_facade_dispatch(self):
        inst = make_instance(3, n=10)
        direct = solve_grasp(inst, seed=1)
        facade = solve_orienteering(inst, method="grasp", seed=1)
        np.testing.assert_array_equal(direct.tour, facade.tour)
        assert direct.stats == facade.stats
        with pytest.raises(InvalidParameterError):
            solve_orienteering(inst, method="nope")


class TestAlgorithm1Engines:
    def test_safe_reduction_invariant_per_engine(self):
        """Reduction-aware tape: safe renumbering never changes the tour."""
        net = make_network(11)
        cold = plan_algorithm1(net, ENERGY, RADIO, 30.0, n_restarts=5,
                               seed=2)
        red = plan_algorithm1(net, ENERGY, RADIO, 30.0, n_restarts=5,
                              seed=2, site_reduction="safe")
        np.testing.assert_array_equal(cold.points, red.points)
        assert cold.collected_volume == red.collected_volume

    def test_meta_perf_grasp_stats_contract(self):
        net = make_network(5)
        tour = plan_algorithm1(net, ENERGY, RADIO, 30.0, n_restarts=3,
                               seed=0)
        assert tour.meta["perf"]["engine"] == "scalar"
        stats = tour.meta["perf"]["grasp"]
        assert set(stats) == set(GRASP_STAT_NAMES)
        assert list(stats) == sorted(stats)      # sorted-key emission
        assert stats["restarts"] == 3
        assert stats["constructions"] >= 1
        assert all(isinstance(v, int) and v >= 0 for v in stats.values())

    def test_check_engine_rejects_unknown(self):
        """Algorithm 1 has one engine; a stale ``engine=`` is named."""
        net = make_network(1)
        with pytest.raises(InvalidParameterError, match="'engine'"):
            plan_tour(net, ENERGY, RADIO, method="algorithm1", delta=30.0,
                      engine="nope")


class TestWarmStarts:
    @given(seed=st.integers(0, 3_000), n=st.integers(3, 14),
           hint_seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_warm_tour_from_nodes_always_feasible(self, seed, n, hint_seed):
        inst = make_instance(seed, n=n, conflicts=True)
        rng = np.random.default_rng(hint_seed)
        hints = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        tour = warm_tour_from_nodes(inst, hints)
        if tour is not None:
            assert inst.is_feasible(tour)
            assert inst.conflicts_ok(tour)
            assert set(tour) <= set(hints) | {0}

    def test_warm_tour_from_nodes_validates_range(self):
        inst = make_instance(0, n=8)
        with pytest.raises(InvalidParameterError):
            warm_tour_from_nodes(inst, [99])
        assert warm_tour_from_nodes(inst, np.empty(0, dtype=int)) is None

    @given(seed=st.integers(0, 3_000), n=st.integers(2, 12))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_non_improving_warm_tour_leaves_result_unchanged(self, seed, n):
        """Strict-improvement acceptance: the winner's own tour as a warm
        start can never displace it, so the solution stays bitwise
        identical (only the warm-start counters move)."""
        inst = make_instance(seed, n=n)
        cold = solve_grasp(inst, n_restarts=3, seed=0)
        warm = solve_grasp(inst, n_restarts=3, seed=0, warm_tour=cold.tour)
        np.testing.assert_array_equal(cold.tour, warm.tour)
        assert cold.award == warm.award
        assert warm.stats["warm_starts"] == 1
        assert warm.stats["warm_improved"] == 0

    def test_improving_warm_tour_wins(self):
        """A warm tour strictly better than every restart is kept."""
        inst = make_instance(42, n=12, budget=1e9)
        best = solve_grasp(inst, n_restarts=6, seed=0)
        # With an enormous budget the polish collects everything, so
        # force a weak baseline: single restart, no local search.
        weak = solve_grasp(inst, n_restarts=1, seed=0, local_search=False)
        if best.award > weak.award:
            warm = solve_grasp(inst, n_restarts=1, seed=0,
                               local_search=False, warm_tour=best.tour)
            assert warm.award >= best.award
            assert warm.stats["warm_improved"] == 1
