"""Unit tests for repro.core.benchmark_alg (Christofides + prune baseline)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import benchmark_alg
from repro.core.benchmark_alg import baseline_tour, plan_benchmark
from repro.core.kernel import PruneCache
from repro.core.tour import validate_tour_feasibility
from repro.energy.model import EnergyModel
from repro.experiments.config import paper_settings, reduced_settings
from repro.experiments.instances import make_instances
from repro.geometry.distance import pairwise_distances
from repro.geometry.region import Region
from repro.network.generator import NetworkGenerator
from repro.network.sensor_network import SensorNetwork
from repro.radio.link import RadioModel
from repro.sim.validate import cross_validate
from repro.tsp.length import tour_length_matrix
from repro.utils.errors import InvalidParameterError
from tests.oracles import fresh_sum_benchmark
from tests.strategies import networks


class TestFeasibility:
    @pytest.mark.parametrize("seed", range(4))
    def test_feasible(self, generator, radio, energy, seed):
        net = generator.uniform(18, seed=seed)
        tour = plan_benchmark(net, energy, radio)
        assert validate_tour_feasibility(tour, radio=radio).feasible

    def test_cross_validates(self, small_net, radio, energy):
        tour = plan_benchmark(small_net, energy, radio)
        assert cross_validate(tour, radio).ok

    def test_huge_budget_visits_all(self, small_net, radio, roomy_energy):
        tour = plan_benchmark(small_net, roomy_energy, radio)
        assert tour.meta["removals"] == 0
        assert tour.n_hovers == small_net.n_nodes
        assert tour.collected_volume == pytest.approx(small_net.total_volume)

    def test_tiny_budget_depot_only(self, small_net, radio):
        from repro.energy.model import EnergyModel
        tiny = EnergyModel(capacity=1.0, hover_power=150.0,
                           travel_power=100.0, speed=10.0)
        tour = plan_benchmark(small_net, tiny, radio)
        assert tour.collected_volume == 0.0
        assert len(tour.points) == 1

    def test_empty_network(self, generator, radio, energy):
        net = generator.uniform(0, seed=0)
        tour = plan_benchmark(net, energy, radio)
        assert tour.collected_volume == 0.0


    def test_zero_saving_sensors_still_pruned(self, radio):
        # Two zero-volume sensors on one spot: neither removal saves
        # energy on its own, yet the tour must come down to the battery.
        net = SensorNetwork(positions=np.full((2, 2), [254.8, 16.4]),
                            volumes=np.zeros(2), depot=[200.0, 200.0],
                            region=Region.square(400.0))
        tiny = EnergyModel(capacity=1e-9, hover_power=150.0,
                           travel_power=100.0, speed=10.0)
        tour = plan_benchmark(net, tiny, radio)
        assert validate_tour_feasibility(tour, radio=radio).feasible
        assert len(tour.points) == 1 and tour.meta["removals"] == 2


class TestPrebuiltTour:
    def test_same_tour_as_building_it(self, small_net, radio, energy):
        built = plan_benchmark(small_net, energy, radio)
        given = plan_benchmark(small_net, energy, radio,
                               tour=baseline_tour(small_net))
        np.testing.assert_array_equal(given.points, built.points)
        np.testing.assert_array_equal(given.collected, built.collected)
        assert given.meta == built.meta

    def test_read_only_tour_accepted(self, small_net, radio, energy):
        tour = baseline_tour(small_net)
        tour.flags.writeable = False
        plan_benchmark(small_net, energy, radio, tour=tour)

    def test_empty_network(self, generator, radio, energy):
        net = generator.uniform(0, seed=0)
        np.testing.assert_array_equal(baseline_tour(net), [0])
        tour = plan_benchmark(net, energy, radio, tour=[0])
        assert tour.collected_volume == 0.0

    @pytest.mark.parametrize("bad", [
        "short", "long", "not_at_depot", "repeat", "out_of_range",
        "float", "2d"])
    def test_invalid_tour_rejected(self, small_net, radio, energy, bad):
        n = small_net.n_nodes
        tour = {
            "short": np.arange(n),
            "long": np.arange(n + 2),
            "not_at_depot": np.roll(np.arange(n + 1), 1),
            "repeat": np.r_[0, np.ones(n, dtype=int)],
            "out_of_range": np.r_[np.arange(n), n + 1],
            "float": np.arange(n + 1, dtype=float),
            "2d": np.arange(n + 1)[None, :],
        }[bad]
        with pytest.raises(InvalidParameterError, match="permutation"):
            plan_benchmark(small_net, energy, radio, tour=tour)


class TestPruning:
    def test_removals_decrease_with_budget(self, small_net, radio):
        from repro.energy.model import EnergyModel
        removals = []
        for cap in (5e3, 1e4, 2e4, 5e4):
            e = EnergyModel(capacity=cap, hover_power=150.0,
                            travel_power=100.0, speed=10.0)
            removals.append(plan_benchmark(small_net, e, radio).meta["removals"])
        assert all(b <= a for a, b in zip(removals, removals[1:]))

    def test_collected_monotone_in_budget(self, small_net, radio):
        from repro.energy.model import EnergyModel
        volumes = []
        for cap in (5e3, 1e4, 2e4, 5e4):
            e = EnergyModel(capacity=cap, hover_power=150.0,
                            travel_power=100.0, speed=10.0)
            volumes.append(plan_benchmark(small_net, e, radio).collected_volume)
        assert all(b >= a - 1e-6 for a, b in zip(volumes, volumes[1:]))

    def test_hover_above_each_kept_sensor(self, small_net, radio, energy):
        # The baseline hovers exactly on sensor positions.
        tour = plan_benchmark(small_net, energy, radio)
        for p, s in zip(tour.points[1:], tour.sojourns[1:]):
            d = np.linalg.norm(small_net.positions - p, axis=1)
            assert d.min() < 1e-9

    def test_sojourn_is_exact_drain_time(self, small_net, radio, energy):
        tour = plan_benchmark(small_net, energy, radio)
        for p, s in zip(tour.points[1:], tour.sojourns[1:]):
            v = int(np.argmin(np.linalg.norm(small_net.positions - p, axis=1)))
            assert s == pytest.approx(small_net.volumes[v] / radio.bandwidth)

    def test_meta_fields(self, small_net, radio, energy):
        tour = plan_benchmark(small_net, energy, radio)
        assert tour.method == "benchmark"
        assert tour.meta["initial_nodes"] == small_net.n_nodes
        assert tour.meta["n_visited"] + tour.meta["removals"] == \
            small_net.n_nodes


# --------------------------------------------------------------------- #
# The running tour energy against the fresh sum (tests/oracles.py).
# --------------------------------------------------------------------- #

def _assert_same_plan(a, b) -> None:
    assert a.points.tobytes() == b.points.tobytes()
    assert a.sojourns.tobytes() == b.sojourns.tobytes()
    assert a.collected.tobytes() == b.collected.tobytes()
    assert a.meta == b.meta


def _fresh_sums(network, energy, radio):
    """``plan_benchmark`` and how many fresh tour-energy sums it took."""
    with mock.patch.object(benchmark_alg, "tour_length_matrix",
                           wraps=benchmark_alg.tour_length_matrix) as spy:
        tour = plan_benchmark(network, energy, radio)
    return tour, spy.call_count


def _prune_energies(network, energy, radio):
    """Per tour of a full prune-down: the fresh sum ``F`` and the running
    value ``R`` (``F`` of the first tour minus each splice saving)."""
    tours, savings = [], []
    real_remove = PruneCache.remove

    def remove(cache, i):
        tours.append(list(cache.tour))
        savings.append(cache.saving(i))
        return real_remove(cache, i)

    with mock.patch.object(PruneCache, "remove", remove):
        fresh_sum_benchmark(network, energy.with_capacity(1e-12), radio)
    dist = pairwise_distances(np.vstack([network.depot, network.positions]))
    hover_times = network.volumes / radio.bandwidth

    def fresh(order):
        travel = tour_length_matrix(np.array(order, dtype=int), dist)
        hover = sum(hover_times[v - 1] for v in order if v != 0)
        return (hover * energy.hover_power
                + travel * energy.travel_cost_per_meter)

    running = [fresh(tours[0])]
    for saving in savings[:-1]:
        running.append(running[-1] - saving)
    return [fresh(t) for t in tours], running


class TestFreshSumOracle:
    """plan_benchmark equals tests/oracles.py::fresh_sum_benchmark: tours,
    sojourns, collected volumes and meta (removals, ratios_rescored)."""

    @settings(max_examples=60, deadline=None)
    @given(net=networks(),
           capacity=st.sampled_from([1e-9, 5e2, 3e3, 1e4, 3e4, 1e6]),
           literal=st.booleans())
    def test_matches_fresh_sum(self, net, capacity, literal):
        radio = RadioModel(bandwidth=150.0, transmission_range=50.0,
                           altitude=0.0)
        energy = EnergyModel(capacity=capacity, hover_power=150.0,
                             travel_power=100.0, speed=10.0,
                             distance_based_travel=literal)
        tour, sums = _fresh_sums(net, energy, radio)
        _assert_same_plan(tour, fresh_sum_benchmark(net, energy, radio))
        assert sums <= 1 + tour.meta["removals"]

    @pytest.mark.parametrize("preset", ["reduced", "paper"])
    def test_sweeps(self, preset):
        """Every Fig. 3/5 capacity (and the default) on preset instances;
        the initial sum is the only fresh one."""
        config = (reduced_settings() if preset == "reduced"
                  else paper_settings().scaled(n_instances=1))
        radio = config.radio_model()
        for net in make_instances(config):
            tour = baseline_tour(net)
            for capacity in (*config.capacity_sweep, config.capacity):
                energy = config.energy_model(capacity=capacity)
                with mock.patch.object(
                        benchmark_alg, "tour_length_matrix",
                        wraps=benchmark_alg.tour_length_matrix) as spy:
                    got = plan_benchmark(net, energy, radio, tour=tour)
                assert spy.call_count == 1
                _assert_same_plan(got, fresh_sum_benchmark(
                    net, energy, radio, tour=tour))

    def test_fallback_branch(self, radio):
        """Zero-volume sensors stacked on one spot: no removal saves
        energy on its own, so the loop takes the least-data fallback."""
        net = SensorNetwork(positions=np.vstack([np.full((3, 2), 254.8),
                                                 [[120.0, 30.0]]]),
                            volumes=[0.0, 0.0, 0.0, 300.0],
                            depot=[200.0, 200.0],
                            region=Region.square(400.0))
        energy = EnergyModel(capacity=1e-9, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        answers = []
        real_best = PruneCache.best

        def best(cache):
            answers.append(real_best(cache))
            return answers[-1]

        with mock.patch.object(PruneCache, "best", best):
            tour = plan_benchmark(net, energy, radio)
        assert answers.count(-1) == 2
        _assert_same_plan(tour, fresh_sum_benchmark(net, energy, radio))
        assert tour.meta["removals"] == 4 and len(tour.points) == 1

    def test_running_value_inside_the_margin(self, radio):
        """A limit between the running value and the fresh sum of one
        tour of the prune-down: only the fresh sum decides it right."""
        for seed in range(20):
            net = NetworkGenerator(Region.square(400.0),
                                   volume_range=(50.0, 500.0)
                                   ).uniform(25, seed=seed)
            energy = EnergyModel(capacity=1.0, hover_power=150.0,
                                 travel_power=100.0, speed=10.0)
            fresh, running = _prune_energies(net, energy, radio)
            split = [t for t, (f, r) in enumerate(zip(fresh, running))
                     if f != r and t > 0]
            if split:
                break
        assert split, "no tour whose running value differs from its sum"
        t = split[0]
        limit = min(fresh[t], running[t])
        capacity = limit - 1e-9
        for _ in range(64):                  # land the limit exactly
            if capacity + 1e-9 == limit:
                break
            capacity = np.nextafter(
                capacity, np.inf if capacity + 1e-9 < limit else 0.0)
        assert capacity + 1e-9 == limit
        energy = energy.with_capacity(float(capacity))
        tour, sums = _fresh_sums(net, energy, radio)
        _assert_same_plan(tour, fresh_sum_benchmark(net, energy, radio))
        assert sums >= 2
        # The fresh sum exceeds the limit only where the running value
        # does not, so the plan stops after t or after t + 1 removals.
        assert tour.meta["removals"] == t + (fresh[t] > limit)
