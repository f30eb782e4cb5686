"""Tests for repro.core.batch (column-stacked Algorithm 2/3 planner).

The batch planner's contract is *bitwise identity*: planning a capacity
column in one stacked call must reproduce, per variant, exactly the
tour the per-cell kernel path (and the dense oracle) builds —
same points, sojourns, collected volumes, iteration counts — for any
column grouping.  These tests pin that contract on every seeded
scenario, plus the validation and diagnostics surface.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import plan_algorithm3
from repro.core.batch import plan_algorithm2_batch, plan_algorithm3_batch
from repro.energy.model import EnergyModel
from repro.experiments.config import reduced_settings
from repro.experiments.runner import AlgoSpec, batchable_column
from repro.geometry.region import Region
from repro.network.generator import NetworkGenerator
from repro.network.scenarios import SCENARIOS, make_scenario
from repro.utils.errors import InvalidParameterError
from tests.oracles import kernel_and_dense

CAPACITIES = (2e4, 5e4, 1e5, 3e5, 8e5)


def _energies(capacities=CAPACITIES):
    return [EnergyModel(capacity=c, hover_power=150.0,
                        travel_power=100.0, speed=10.0)
            for c in capacities]


def assert_same_tour(a, b):
    """Bitwise tour equality (points, sojourns, collected, counts)."""
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.sojourns, b.sojourns)
    assert np.array_equal(a.collected, b.collected)
    assert a.meta["n_visited"] == b.meta["n_visited"]
    assert a.meta["iterations"] == b.meta["iterations"]


class TestAlgorithm2Equivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_kernel_and_dense_on_scenarios(self, name, radio):
        net = make_scenario(name, seed=2, n=30)
        energies = _energies()
        column = plan_algorithm2_batch(net, energies, radio, delta=30.0)
        for energy, batch in zip(energies, column):
            for single in kernel_and_dense(plan_algorithm2, net, energy,
                                           radio, delta=30.0):
                assert_same_tour(batch, single)

    @pytest.mark.parametrize("scoring", ["ratio", "award"])
    @pytest.mark.parametrize("polish", [True, False])
    def test_scoring_and_polish_variants(self, small_net, radio,
                                         scoring, polish):
        energies = _energies()
        column = plan_algorithm2_batch(small_net, energies, radio,
                                       delta=25.0, scoring=scoring,
                                       polish=polish)
        for energy, batch in zip(energies, column):
            single = plan_algorithm2(small_net, energy, radio, delta=25.0,
                                     scoring=scoring, polish=polish)
            assert_same_tour(batch, single)

    def test_engine_batch_dispatch_single(self, small_net, radio, energy):
        """A one-variant column is the per-cell plan, labelled batch."""
        (batch,) = plan_algorithm2_batch(small_net, [energy], radio,
                                         delta=25.0)
        kernel = plan_algorithm2(small_net, energy, radio, delta=25.0)
        assert_same_tour(batch, kernel)
        assert batch.meta["perf"]["engine"] == "batch"
        assert kernel.meta["perf"]["engine"] == "kernel"

    def test_empty_network(self, generator, radio, energy):
        net = generator.uniform(0, seed=0)
        (tour,) = plan_algorithm2_batch(net, [energy], radio, delta=25.0)
        assert tour.collected_volume == 0.0
        assert len(tour.points) == 1

    def test_max_iterations_cap(self, small_net, radio, roomy_energy):
        column = plan_algorithm2_batch(small_net, [roomy_energy], radio,
                                       delta=25.0, max_iterations=3)
        single = plan_algorithm2(small_net, roomy_energy, radio,
                                 delta=25.0, max_iterations=3)
        assert_same_tour(column[0], single)
        assert column[0].meta["iterations"] <= 3


class TestAlgorithm3Equivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("K", [1, 3])
    def test_matches_kernel_and_dense_on_scenarios(self, name, K, radio):
        net = make_scenario(name, seed=5, n=30)
        energies = _energies()
        column = plan_algorithm3_batch(net, energies, radio,
                                       delta=30.0, K=K)
        for energy, batch in zip(energies, column):
            for single in kernel_and_dense(plan_algorithm3, net, energy,
                                           radio, delta=30.0, K=K):
                assert_same_tour(batch, single)

    def test_engine_batch_dispatch_single(self, small_net, radio, energy):
        """A one-variant column is the per-cell plan, labelled batch."""
        (batch,) = plan_algorithm3_batch(small_net, [energy], radio,
                                         delta=25.0, K=2)
        kernel = plan_algorithm3(small_net, energy, radio, delta=25.0, K=2)
        assert_same_tour(batch, kernel)
        assert batch.meta["perf"]["engine"] == "batch"
        assert kernel.meta["perf"]["engine"] == "kernel"


class TestGroupingInvariance:
    """Any column grouping yields identical tours AND perf snapshots."""

    def test_column_vs_singletons(self, small_net, radio):
        energies = _energies()
        column = plan_algorithm2_batch(small_net, energies, radio,
                                       delta=25.0)
        for energy, grouped in zip(energies, column):
            (alone,) = plan_algorithm2_batch(small_net, [energy], radio,
                                             delta=25.0)
            assert_same_tour(grouped, alone)
            assert grouped.meta["perf"] == alone.meta["perf"]

    def test_split_column_halves(self, small_net, radio):
        energies = _energies()
        column = plan_algorithm3_batch(small_net, energies, radio,
                                       delta=25.0, K=2)
        halves = (plan_algorithm3_batch(small_net, energies[:2], radio,
                                        delta=25.0, K=2)
                  + plan_algorithm3_batch(small_net, energies[2:], radio,
                                          delta=25.0, K=2))
        for grouped, split in zip(column, halves):
            assert_same_tour(grouped, split)


class TestValidation:
    def test_christofides_batch_rejected(self):
        """The Christofides mode has no stacked formulation: a column
        using it never reaches the batch planner."""
        config = reduced_settings()
        spec = AlgoSpec("Algorithm 2", "algorithm2",
                        {"delta": 25.0, "tsp_mode": "christofides"})
        assert not batchable_column(
            config, spec, config.capacity_sweep,
            lambda cfg, value: cfg.energy_model(capacity=value),
            lambda cfg, value, s: dict(s.kwargs))
        spec = AlgoSpec("Algorithm 2", "algorithm2", {"delta": 25.0})
        assert batchable_column(
            config, spec, config.capacity_sweep,
            lambda cfg, value: cfg.energy_model(capacity=value),
            lambda cfg, value, s: dict(s.kwargs))

    def test_mismatched_rates_rejected(self, small_net, radio):
        energies = [
            EnergyModel(capacity=2e4, hover_power=150.0,
                        travel_power=100.0, speed=10.0),
            EnergyModel(capacity=5e4, hover_power=175.0,
                        travel_power=100.0, speed=10.0),
        ]
        with pytest.raises(InvalidParameterError, match="rates"):
            plan_algorithm2_batch(small_net, energies, radio, delta=25.0)

    def test_empty_column_rejected(self, small_net, radio):
        with pytest.raises(InvalidParameterError):
            plan_algorithm2_batch(small_net, [], radio, delta=25.0)

    def test_bad_scoring_rejected(self, small_net, radio, energy):
        with pytest.raises(InvalidParameterError, match="scoring"):
            plan_algorithm2_batch(small_net, [energy], radio, delta=25.0,
                                  scoring="vibes")


class TestDiagnostics:
    def test_perf_snapshot_shape(self, small_net, radio):
        (tour,) = plan_algorithm2_batch(small_net, _energies((5e4,)),
                                        radio, delta=25.0)
        perf = tour.meta["perf"]
        # Counts only: phase time lives in the kernel.batch.* spans.
        counters = {"insertions", "drains", "tour_flushes",
                    "deltas_recomputed"}
        assert set(perf) == {"engine"} | counters
        assert perf["engine"] == "batch"
        for key in counters:
            assert type(perf[key]) is int


class _Nets:
    """Lazily-built networks shared across hypothesis examples."""

    def __init__(self):
        self._cache = {}

    def get(self, seed, n):
        key = (seed, n)
        if key not in self._cache:
            gen = NetworkGenerator(Region.square(400.0),
                                   volume_range=(50.0, 500.0))
            self._cache[key] = gen.uniform(n, seed=seed)
        return self._cache[key]


_NETS = _Nets()


class TestEngineEquivalenceProperty:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 20), n=st.integers(5, 18),
           caps=st.lists(st.sampled_from([1e4, 3e4, 8e4, 2e5, 6e5]),
                         min_size=1, max_size=4))
    def test_alg2_all_engines_agree(self, radio, seed, n, caps):
        net = _NETS.get(seed, n)
        energies = _energies(caps)
        column = plan_algorithm2_batch(net, energies, radio, delta=30.0)
        for energy, batch in zip(energies, column):
            for single in kernel_and_dense(plan_algorithm2, net, energy,
                                           radio, delta=30.0):
                assert_same_tour(batch, single)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10), n=st.integers(5, 15),
           K=st.integers(1, 3),
           caps=st.lists(st.sampled_from([1e4, 3e4, 8e4, 2e5]),
                         min_size=1, max_size=3))
    def test_alg3_all_engines_agree(self, radio, seed, n, K, caps):
        net = _NETS.get(seed, n)
        energies = _energies(caps)
        column = plan_algorithm3_batch(net, energies, radio,
                                       delta=30.0, K=K)
        for energy, batch in zip(energies, column):
            for single in kernel_and_dense(plan_algorithm3, net, energy,
                                           radio, delta=30.0, K=K):
                assert_same_tour(batch, single)
