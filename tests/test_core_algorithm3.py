"""Unit tests for repro.core.algorithm3 (partial collection)."""

import collections
import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import RatioTable, plan_algorithm3, round_bound
from repro.core.hovering import build_hovering_sites
from repro.core.kernel import PlannerKernel
from repro.core.tour import validate_tour_feasibility
from repro.energy.model import EnergyModel
from repro.experiments.config import reduced_settings
from repro.experiments.instances import make_instances
from repro.geometry.region import Region
from repro.network.generator import NetworkGenerator
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import Tracer, activated
from repro.radio.link import RadioModel
from repro.sim.validate import cross_validate
from repro.utils.errors import InvalidParameterError
from tests.oracles import dense_selection, stepwise_chains


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

    @pytest.mark.parametrize("polish", [False, True],
                             ids=["no-polish", "polish"])
    def test_k1_matches_algorithm2(self, generator, radio, polish):
        # The paper: DCM is the K = 1 special case of PDCM.  Here the two
        # planners take bitwise the same tours.
        for seed, n, delta in itertools.product(range(3), (6, 20, 40),
                                                (10.0, 25.0)):
            net = generator.uniform(n, seed=seed)
            sites = build_hovering_sites(net, radio, delta)
            for capacity in (5e3, 2e4, 5e5):
                energy = EnergyModel(capacity=capacity, hover_power=150.0,
                                     travel_power=100.0, speed=10.0)
                a2 = plan_algorithm2(net, energy, radio, delta,
                                     polish=polish, sites=sites)
                a3 = plan_algorithm3(net, energy, radio, delta, K=1,
                                     polish=polish, sites=sites)
                np.testing.assert_array_equal(a3.points, a2.points)
                np.testing.assert_array_equal(a3.sojourns, a2.sojourns)
                np.testing.assert_array_equal(a3.collected, a2.collected)

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


class TestIterationBound:
    """The default ``max_iterations`` never truncates a run."""

    @staticmethod
    def _three_sensors():
        """m = 9 at δ = 40: a one-sensor chain needs ≈ K·ln(r/1e-9)
        rounds, more than the old default 2·K·(m + 1) = 40 at K = 2."""
        net = SensorNetwork(
            positions=np.array([[88.1, 190.9], [100.0, 85.0],
                                [124.0, 199.0]]),
            volumes=np.array([3000.0, 1500.0, 300.0]),
            depot=np.array([100.0, 100.0]), region=Region(0, 200, 0, 200))
        radio = RadioModel(bandwidth=150.0, transmission_range=50.0,
                           altitude=0.0)
        energy = EnergyModel(capacity=1e6, hover_power=97.0,
                             travel_power=100.0, speed=10.0)
        return net, energy, radio

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_default_collects_everything(self, K):
        net, energy, radio = self._three_sensors()
        tour = plan_algorithm3(net, energy, radio, 40.0, K=K)
        assert tour.meta["n_candidates"] == 9
        assert tour.collected_volume == 4800.0
        _assert_bitwise(tour, plan_algorithm3(net, energy, radio, 40.0, K=K,
                                              max_iterations=100_000))
        assert plan_algorithm2(net, energy, radio, 40.0).collected_volume \
            == 4800.0

    def test_k2_needs_more_than_the_old_default(self):
        net, energy, radio = self._three_sensors()
        tour = plan_algorithm3(net, energy, radio, 40.0, K=2)
        assert tour.meta["iterations"] == 43 > 2 * 2 * (9 + 1)
        assert tour.meta["iterations"] <= round_bound(net.volumes, 2)

    @settings(max_examples=40, deadline=None)
    @given(net=_networks(),
           capacity=st.floats(3.0, 7.0).map(lambda x: 10.0 ** x),
           delta=st.sampled_from([10.0, 20.0, 40.0]),
           K=st.integers(1, 8), polish=st.booleans())
    def test_uncapped_runs_fit_the_bound(self, net, capacity, delta, K,
                                         polish):
        energy = EnergyModel(capacity=capacity, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        uncapped = plan_algorithm3(net, energy, RADIO, delta, K,
                                   polish=polish, max_iterations=10**9)
        assert uncapped.meta["iterations"] <= round_bound(net.volumes, K)
        _assert_bitwise(uncapped, plan_algorithm3(net, energy, RADIO, delta,
                                                  K, polish=polish))


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


class TestChainOracle:
    """The one-pass replay of tied one-sensor chains against the
    round-by-round loop (:func:`tests.oracles.stepwise_chains`)."""

    @settings(max_examples=80, deadline=None)
    @given(net=_networks(),
           capacity=st.floats(2.0, 6.0).map(lambda x: 10.0 ** x),
           delta=st.sampled_from([10.0, 20.0, 40.0]),
           K=st.integers(1, 8), polish=st.booleans(),
           max_iterations=st.one_of(st.none(), st.integers(1, 30)))
    def test_matches_stepwise(self, net, capacity, delta, K, polish,
                              max_iterations):
        energy = EnergyModel(capacity=capacity, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        args = (net, energy, RADIO, delta, K)
        kwargs = dict(polish=polish, max_iterations=max_iterations)
        chained = plan_algorithm3(*args, **kwargs)
        with stepwise_chains():
            stepwise = plan_algorithm3(*args, **kwargs)
        _assert_bitwise(chained, stepwise)

    def test_reduced_sweep_matches_stepwise(self):
        """4 reduced instances x 5 δ x K ∈ {2, 4} x 4 capacities."""
        config = reduced_settings()
        radio = config.radio_model()
        replayed = 0
        for net in make_instances(config, 4):
            for delta in config.delta_sweep:
                sites = build_hovering_sites(net, radio, delta)
                for K, capacity in itertools.product(
                        config.k_values, config.capacity_sweep):
                    energy = config.energy_model(capacity)
                    tracer = Tracer()
                    with activated(tracer):
                        chained = plan_algorithm3(net, energy, radio, delta,
                                                  K, sites=sites)
                    with stepwise_chains():
                        stepwise = plan_algorithm3(net, energy, radio,
                                                   delta, K, sites=sites)
                    _assert_bitwise(chained, stepwise)
                    replayed += sum(r["attrs"]["rounds"]
                                    for r in tracer.records()
                                    if r["name"] == "alg3.chain")
        assert replayed > 30_000                    # most rounds replayed

    @staticmethod
    def _chains(net, energy, radio, delta, K, **kwargs):
        """``(rounds, stop)`` of every chain pass of one plan, after
        checking the plan against the round-by-round loop."""
        tracer = Tracer()
        with activated(tracer):
            chained = plan_algorithm3(net, energy, radio, delta, K,
                                      polish=False, **kwargs)
        with stepwise_chains():
            stepwise = plan_algorithm3(net, energy, radio, delta, K,
                                       polish=False, **kwargs)
        _assert_bitwise(chained, stepwise)
        records = [r for r in tracer.records() if r["name"] == "alg3.chain"]
        assert (sum(r["attrs"]["rounds"] for r in records)
                + sum(r["name"] == "alg3.round" for r in tracer.records())
                == chained.meta["iterations"])
        return [(r["attrs"]["rounds"], r["attrs"]["stop"]) for r in records]

    def test_ties_go_to_the_lower_row(self):
        """Sites covering v with j's exact ratio: a lower one cuts the
        pass at once, higher ones never do (first maximum)."""
        net = SensorNetwork(positions=np.array([[100.0, 100.0]]),
                            volumes=np.array([300.0]),
                            depot=np.array([0.0, 0.0]),
                            region=Region.square(200.0))
        sites = build_hovering_sites(net, RADIO, 20.0)
        energy = EnergyModel(capacity=1e6, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        kern = PlannerKernel(sites, energy, RADIO, volume_tol=1e-9)
        fractions = np.arange(1, 5) / 4
        t_max, tau, p_partial = kern.partial_scores(fractions)
        table = RatioTable(kern, energy, 4)       # every delta 0: on tour
        table.refresh(None, t_max > 0.0, tau, p_partial)
        rows = sites.csr.sites_of(0)
        assert len(rows) >= 2
        taus, stop = table.chain(int(rows[1]), 0, fractions, 0.0, 0.0, 10**4)
        assert (taus, stop) == ([], "rival")
        taus, stop = table.chain(int(rows[0]), 0, fractions, 0.0, 0.0, 10**4)
        assert stop in ("dust", "drained") and len(taus) > 10

    def test_every_exit_runs(self):
        """Each way a chain pass stops runs on a seeded plan."""
        stops = collections.Counter()
        # A tight budget: a site covering v outranks j, and j's pair
        # runs over budget.
        net = NetworkGenerator(Region.square(200.0),
                               volume_range=(50.0, 500.0)).uniform(20, seed=23)
        energy = EnergyModel(capacity=2e3, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        for max_iterations in (None, 150):
            for rounds, stop in self._chains(net, energy, RADIO, 20.0, 6,
                                             max_iterations=max_iterations):
                stops[stop] += 1
        # Two on-tour sites with one sensor each: with B != eta_h their
        # ratios differ in the last bits, and the site off v's rows
        # (over the depot) wins part-way through the chain.
        net = SensorNetwork(positions=np.array([[90.0, 30.0], [110.0, 30.0],
                                                [100.0, 145.0]]),
                            volumes=np.array([2000.0, 1000.0, 300.0]),
                            depot=np.array([100.0, 100.0]),
                            region=Region.square(200.0))
        radio = dataclasses.replace(RADIO, bandwidth=130.0)
        energy = EnergyModel(capacity=1e6, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        chains = self._chains(net, energy, radio, 40.0, 4)
        assert any(rounds > 0 and stop == "outside" for rounds, stop in chains)
        stops.update(stop for _, stop in chains)
        assert set(stops) == {"outside", "rival", "budget", "dust",
                              "drained", "limit"}
