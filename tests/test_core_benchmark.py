"""Unit tests for repro.core.benchmark_alg (Christofides + prune baseline)."""

import numpy as np
import pytest

from repro.core.benchmark_alg import baseline_tour, plan_benchmark
from repro.core.tour import validate_tour_feasibility
from repro.energy.model import EnergyModel
from repro.geometry.region import Region
from repro.network.sensor_network import SensorNetwork
from repro.sim.validate import cross_validate
from repro.utils.errors import InvalidParameterError


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
