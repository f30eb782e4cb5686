"""Unit tests for repro.core.algorithm3 (partial collection)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import RatioTable, plan_algorithm3
from repro.core.kernel import PlannerKernel
from repro.core.tour import validate_tour_feasibility
from repro.energy.model import EnergyModel
from repro.geometry.region import Region
from repro.network.generator import NetworkGenerator
from repro.radio.link import RadioModel
from repro.sim.validate import cross_validate
from repro.utils.errors import InvalidParameterError
from tests.oracles import dense_selection


class TestFeasibility:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_feasible_all_k(self, small_net, radio, energy, k):
        tour = plan_algorithm3(small_net, energy, radio, delta=25.0, K=k)
        assert validate_tour_feasibility(tour, radio=radio).feasible

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_validates(self, generator, radio, energy, seed):
        net = generator.uniform(16, seed=seed)
        tour = plan_algorithm3(net, energy, radio, delta=25.0, K=3)
        assert cross_validate(tour, radio).ok

    def test_tiny_budget_depot_only(self, small_net, radio):
        from repro.energy.model import EnergyModel
        tiny = EnergyModel(capacity=1.0, hover_power=150.0,
                           travel_power=100.0, speed=10.0)
        tour = plan_algorithm3(small_net, tiny, radio, delta=25.0, K=2)
        assert tour.collected_volume == 0.0

    def test_huge_budget_collects_everything(self, small_net, radio,
                                             roomy_energy):
        tour = plan_algorithm3(small_net, roomy_energy, radio, delta=25.0, K=2)
        assert tour.collected_volume == pytest.approx(small_net.total_volume)

    def test_k_validated(self, small_net, radio, energy):
        with pytest.raises(InvalidParameterError):
            plan_algorithm3(small_net, energy, radio, delta=25.0, K=0)


class TestPartialSemantics:
    def test_partial_collection_happens_under_tight_budget(
            self, generator, radio):
        # With a budget too small to fully drain any cluster, Algorithm 3
        # should still collect *something* partial from some sensor.
        from repro.energy.model import EnergyModel
        net = generator.clustered(12, n_clusters=2, spread=15.0, seed=2)
        e = EnergyModel(capacity=6e3, hover_power=150.0,
                        travel_power=100.0, speed=10.0)
        tour = plan_algorithm3(net, e, radio, delta=25.0, K=4)
        partial = (tour.collected > 1e-6) & (
            tour.collected < net.volumes - 1e-6)
        assert tour.collected_volume > 0
        # At least one sensor is partially (not fully) drained, which the
        # full-collection planners can never do.
        assert partial.any()

    def test_k1_matches_algorithm2_unpolished(self, small_net, radio, energy):
        # The paper: DCM is the K = 1 special case of PDCM.
        a2 = plan_algorithm2(small_net, energy, radio, delta=25.0,
                             polish=False)
        a3 = plan_algorithm3(small_net, energy, radio, delta=25.0, K=1,
                             polish=False)
        assert a3.collected_volume == pytest.approx(a2.collected_volume,
                                                    rel=0.02)

    def test_collected_never_exceeds_stored(self, small_net, radio, energy):
        tour = plan_algorithm3(small_net, energy, radio, delta=25.0, K=3)
        assert (tour.collected <= small_net.volumes + 1e-9).all()

    def test_one_hover_entry_per_site(self, small_net, radio, energy):
        # Lemma 2: upgrades extend an existing hover, never duplicate it.
        tour = plan_algorithm3(small_net, energy, radio, delta=25.0, K=4)
        unique = np.unique(tour.points, axis=0)
        assert len(unique) == len(tour.points)

    def test_monotone_in_budget(self, small_net, radio):
        from repro.energy.model import EnergyModel
        volumes = []
        for cap in (5e3, 1e4, 2e4, 4e4):
            e = EnergyModel(capacity=cap, hover_power=150.0,
                            travel_power=100.0, speed=10.0)
            volumes.append(plan_algorithm3(small_net, e, radio, delta=25.0,
                                           K=2).collected_volume)
        assert all(b >= a - 1e-6 for a, b in zip(volumes, volumes[1:]))


class TestKBehaviour:
    def test_larger_k_never_much_worse(self, generator, radio, energy):
        # The paper reports larger K collects (slightly) more; greedy noise
        # can flip tiny gaps, so assert K=4 is within 2 % of K=1.
        net = generator.uniform(18, seed=8)
        v1 = plan_algorithm3(net, energy, radio, delta=25.0, K=1).collected_volume
        v4 = plan_algorithm3(net, energy, radio, delta=25.0, K=4).collected_volume
        assert v4 >= 0.98 * v1

    def test_meta_records_k(self, small_net, radio, energy):
        tour = plan_algorithm3(small_net, energy, radio, delta=25.0, K=3)
        assert tour.meta["K"] == 3
        assert tour.meta["n_virtual_candidates"] == \
            3 * tour.meta["n_candidates"]

    def test_polish_never_hurts(self, generator, radio, energy):
        net = generator.uniform(18, seed=9)
        raw = plan_algorithm3(net, energy, radio, delta=25.0, K=2,
                              polish=False)
        polished = plan_algorithm3(net, energy, radio, delta=25.0, K=2,
                                   polish=True)
        assert polished.collected_volume >= raw.collected_volume - 1e-6

    def test_iteration_limit_respected(self, small_net, radio, energy):
        tour = plan_algorithm3(small_net, energy, radio, delta=25.0, K=2,
                               max_iterations=3)
        assert tour.meta["iterations"] <= 3


RADIO = RadioModel(bandwidth=150.0, transmission_range=50.0, altitude=0.0)


def _assert_bitwise(a, b):
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.sojourns, b.sojourns)
    np.testing.assert_array_equal(a.collected, b.collected)
    assert a.meta == b.meta


@st.composite
def _networks(draw):
    """Uniform, clustered, or lattice networks with equal volumes."""
    seed = draw(st.integers(0, 10_000))
    side = draw(st.sampled_from([100.0, 200.0, 400.0]))
    gen = NetworkGenerator(Region.square(side), volume_range=(50.0, 500.0))
    shape = draw(st.sampled_from(["uniform", "clustered", "lattice"]))
    if shape == "lattice":
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        net = gen.grid(rows, cols, seed=seed)
        # Equal volumes on a lattice give exact ratio ties.
        return net.with_volumes(np.full(net.n_nodes, 200.0))
    n = draw(st.integers(1, 40))
    if shape == "clustered":
        return gen.clustered(n, n_clusters=draw(st.integers(1, 4)),
                             spread=30.0, seed=seed)
    return gen.uniform(n, seed=seed)


class TestRatioTableOracle:
    """The cached ratio table against the every-pair-every-round oracle."""

    @settings(max_examples=80, deadline=None)
    @given(net=_networks(),
           capacity=st.floats(2.0, 6.0).map(lambda x: 10.0 ** x),
           delta=st.sampled_from([10.0, 20.0, 40.0]),
           K=st.integers(1, 8), polish=st.booleans(),
           max_iterations=st.one_of(st.none(), st.integers(1, 30)))
    def test_matches_dense_selection(self, net, capacity, delta, K, polish,
                                     max_iterations):
        energy = EnergyModel(capacity=capacity, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        args = (net, energy, RADIO, delta, K)
        kwargs = dict(polish=polish, max_iterations=max_iterations)
        table = plan_algorithm3(*args, **kwargs)
        with dense_selection():
            dense = plan_algorithm3(*args, **kwargs)
        _assert_bitwise(table, dense)

    def test_every_path_runs(self, generator, radio):
        """The over-budget rescan, the row-only refresh and the full
        refresh after the polish each run on one seeded plan."""
        net = generator.uniform(20, seed=0)
        energy = EnergyModel(capacity=1e4, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        refreshes = []
        real_refresh = RatioTable.refresh

        def spy_refresh(table, rows, *args):
            # (full table?, polish flushes so far) at call time.
            refreshes.append((rows is None,
                              table.kern.counters["tour_flushes"]))
            return real_refresh(table, rows, *args)

        with mock.patch.object(RatioTable, "refresh", autospec=True,
                               side_effect=spy_refresh), \
                mock.patch.object(RatioTable, "mask_over_budget",
                                  autospec=True,
                                  side_effect=RatioTable.mask_over_budget
                                  ) as rescan:
            tour = plan_algorithm3(net, energy, radio, delta=25.0, K=4)
        assert rescan.call_count >= 1
        assert (False, 0) in refreshes          # row-only, before polish
        assert (True, 1) in refreshes           # full, after polish
        with dense_selection():
            dense = plan_algorithm3(net, energy, radio, delta=25.0, K=4)
        _assert_bitwise(tour, dense)

    def test_upgrade_rounds_skip_insertion_state(self, small_net, radio,
                                                 energy):
        """Only rounds after a tour change read the insertion cache."""
        with mock.patch.object(PlannerKernel, "insertion_state",
                               autospec=True,
                               side_effect=PlannerKernel.insertion_state
                               ) as spy:
            tour = plan_algorithm3(small_net, energy, radio, delta=25.0,
                                   K=4)
        perf = tour.meta["perf"]
        assert spy.call_count <= perf["insertions"] + perf["tour_flushes"] + 1
        assert spy.call_count < tour.meta["iterations"]
