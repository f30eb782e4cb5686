"""Property-based tests over the planners themselves.

For arbitrary (small) random instances, every planner must produce a tour
that (a) passes the first-principles validator, (b) survives independent
execution, (c) stays under the analytical upper bound, and (d) responds
monotonically to battery capacity.  These are the system-level invariants
the unit tests check pointwise; hypothesis hunts the corners.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import plan_algorithm3
from repro.core.benchmark_alg import plan_benchmark
from repro.core.bounds import collection_upper_bound
from repro.core.planner import PLANNERS as METHODS, plan_tour
from repro.core.tour import validate_tour_feasibility
from repro.energy.model import EnergyModel
from repro.experiments.artifacts import ArtifactCache
from repro.geometry.region import Region
from repro.network.sensor_network import SensorNetwork
from repro.radio.link import RadioModel
from repro.sim.validate import cross_validate
from repro.utils.errors import InvalidParameterError

RADIO = RadioModel(bandwidth=150.0, transmission_range=60.0, altitude=0.0)

network_strategy = st.builds(
    lambda seed, n: _make_net(seed, n),
    seed=st.integers(0, 10_000),
    n=st.integers(2, 12))


def _make_net(seed: int, n: int) -> SensorNetwork:
    rng = np.random.default_rng(seed)
    region = Region.square(400.0)
    return SensorNetwork(
        positions=region.sample_uniform(n, rng),
        volumes=rng.uniform(10.0, 800.0, n),
        depot=region.center, region=region)


capacity_strategy = st.floats(min_value=500.0, max_value=1e5,
                              allow_nan=False, allow_infinity=False)

PLANNERS = [
    ("algorithm2", lambda net, e: plan_algorithm2(net, e, RADIO, 40.0)),
    ("algorithm3", lambda net, e: plan_algorithm3(net, e, RADIO, 40.0, 3)),
    ("benchmark", lambda net, e: plan_benchmark(net, e, RADIO)),
]


class TestPlannerInvariants:
    @pytest.mark.parametrize("name,planner", PLANNERS,
                             ids=[p[0] for p in PLANNERS])
    @given(net=network_strategy, capacity=capacity_strategy)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_feasible_and_executable(self, name, planner, net, capacity):
        energy = EnergyModel(capacity=capacity, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        tour = planner(net, energy)
        assert validate_tour_feasibility(tour, radio=RADIO).feasible
        assert cross_validate(tour, RADIO).ok

    @pytest.mark.parametrize("name,planner", PLANNERS,
                             ids=[p[0] for p in PLANNERS])
    @given(net=network_strategy, capacity=capacity_strategy)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_below_upper_bound(self, name, planner, net, capacity):
        energy = EnergyModel(capacity=capacity, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        tour = planner(net, energy)
        bound = collection_upper_bound(net, energy, RADIO, delta=40.0)
        assert tour.collected_volume <= bound.value + 1e-6

    @given(net=network_strategy,
           cap_lo=st.floats(min_value=1e3, max_value=3e4),
           factor=st.floats(min_value=1.2, max_value=5.0))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_algorithm2_monotone_in_capacity(self, net, cap_lo, factor):
        lo = EnergyModel(capacity=cap_lo, hover_power=150.0,
                         travel_power=100.0, speed=10.0)
        hi = EnergyModel(capacity=cap_lo * factor, hover_power=150.0,
                         travel_power=100.0, speed=10.0)
        v_lo = plan_algorithm2(net, lo, RADIO, 40.0).collected_volume
        v_hi = plan_algorithm2(net, hi, RADIO, 40.0).collected_volume
        assert v_hi >= v_lo - 1e-6

    @given(net=network_strategy, capacity=capacity_strategy,
           k=st.integers(1, 5))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_algorithm3_full_or_partial_sensors_consistent(self, net,
                                                           capacity, k):
        energy = EnergyModel(capacity=capacity, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        tour = plan_algorithm3(net, energy, RADIO, 40.0, k)
        # Collected never exceeds stored, per sensor.
        assert (tour.collected <= net.volumes + 1e-9).all()
        # Hover time is enough to explain the per-sensor uploads.
        assert tour.collected_volume <= \
            RADIO.bandwidth * tour.hover_time * net.n_nodes + 1e-6


@st.composite
def degenerate_problems(draw):
    """``(network, energy)`` at the corners of the input space: 0, 1 or a
    few sensors; co-located, on the depot, or out of reach in the far
    corner; a centre or corner depot; zero volumes; a battery from
    1e-9 J up."""
    n = draw(st.sampled_from([0, 1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    region = Region.square(400.0)
    corner = draw(st.booleans())
    depot = np.zeros(2) if corner else region.center
    layout = draw(st.sampled_from(["uniform", "colocated", "on_depot",
                                   "far"]))
    positions = region.sample_uniform(n, rng)
    if layout == "colocated":
        positions[:] = positions[:1]
    elif layout == "on_depot":
        positions[:(n + 1) // 2] = depot
    elif layout == "far":
        positions = 400.0 - rng.uniform(0.0, 5.0, (n, 2))
    volumes = (np.zeros(n) if draw(st.booleans())
               else rng.uniform(10.0, 800.0, n))
    capacity = draw(st.sampled_from([1e-9, 2e3, 2e4, 2e5]))
    net = SensorNetwork(positions=positions, volumes=volumes, depot=depot,
                        region=region)
    energy = EnergyModel(capacity=capacity, hover_power=150.0,
                         travel_power=100.0, speed=10.0)
    return net, energy


#: Per-method options of the degenerate-input probe.
PROBE_KWARGS = {"algorithm1": {"n_restarts": 2, "seed": 0},
                "algorithm3": {"K": 3}}


class TestDegenerateInputs:
    """Every planner, called directly or with the sweep's cached
    artifacts, returns a valid (possibly empty) tour or raises
    :class:`InvalidParameterError` — never anything else."""

    @given(problem=degenerate_problems())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_valid_tour_or_invalid_parameter(self, problem):
        net, energy = problem
        for method in METHODS:
            kwargs = {"delta": 40.0, **PROBE_KWARGS.get(method, {})}
            for cached in (False, True):
                try:
                    call = (ArtifactCache().augment_kwargs(
                        net, energy, RADIO, method, kwargs)
                        if cached else kwargs)
                    tour = plan_tour(net, energy, RADIO, method=method,
                                     **call)
                except InvalidParameterError:
                    continue
                assert validate_tour_feasibility(tour, radio=RADIO).feasible
                assert cross_validate(tour, RADIO).ok
