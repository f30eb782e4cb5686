"""GRASP's RNG tape and Algorithm 1's ``meta["perf"]`` contract.

Every randomised restart replays one row of a pre-drawn RNG tape through
the index-sorted RCL pick, so restarts are replayable one at a time.
The plan-level tests pin Algorithm 1's ``meta["perf"]`` contract.
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
                                      solve_grasp)
from repro.orienteering.greedy import randomized_construct, solve_greedy
from repro.orienteering.problem import OrienteeringInstance, make_solution
from repro.orienteering.solver import solve_orienteering
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError

RADIO = RadioModel(bandwidth=150.0, transmission_range=60.0, altitude=0.0)


def make_instance(seed, n=12):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, (n, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, n)
    awards[0] = 0.0
    budget = float(rng.uniform(100, 500))
    return OrienteeringInstance(costs=costs, awards=awards, budget=budget,
                                depot=0)


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

