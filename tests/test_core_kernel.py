"""The incremental planner kernel: equivalence, invalidation, caches.

Three layers of guarantees:

1. **End-to-end bitwise equivalence** — the incremental kernel and the
   full-recompute oracles of ``tests/oracles.py`` (``DenseKernel``,
   ``LegacyPruneCache``) produce *identical* tours (points, sojourns,
   collected volumes) for Algorithms 2/3 and the benchmark baseline on
   seeded instances across δ ∈ {10, 20, 40} and K ∈ {1, 2, 4}, on every
   named scenario family over a capacity column, and on random networks
   (hypothesis).
2. **Component oracles** — the dirty-set residual cache, the partial-award
   table, the incremental cheapest-insertion cache, and the prune cache
   each match a brute-force recomputation after arbitrary mutation
   sequences.
3. **Edge cases** — empty networks, zero-sensor coverage matrices
   (the ``(m, 0)`` row-max guard), and the perf-counter contract.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import plan_algorithm3
from repro.core.benchmark_alg import plan_benchmark
from repro.core.hovering import HoveringSites, build_hovering_sites
from repro.core.kernel import PlannerKernel, PruneCache
from repro.core.planner import plan_tour
from repro.energy.model import EnergyModel
from repro.geometry.coverage import SparseCoverage
from repro.geometry.distance import pairwise_distances
from repro.geometry.region import Region
from repro.network.generator import NetworkGenerator
from repro.network.scenarios import SCENARIOS, make_scenario
from repro.network.sensor_network import SensorNetwork
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError
from tests.oracles import (IMPLEMENTATIONS, DenseKernel, kernel_and_dense,
                          legacy_prune, plan_on, site_insertion_deltas)

RADIO = RadioModel(bandwidth=150.0, transmission_range=50.0, altitude=0.0)
ENERGY = EnergyModel(capacity=2e4, hover_power=150.0,
                     travel_power=100.0, speed=10.0)


def _net(seed: int, n: int = 30) -> SensorNetwork:
    gen = NetworkGenerator(Region.square(400.0), volume_range=(50.0, 500.0))
    return gen.uniform(n, seed=seed)


def _assert_same_tour(a, b) -> None:
    """Bitwise equality of everything the planner decides."""
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.sojourns, b.sojourns)
    np.testing.assert_array_equal(a.collected, b.collected)
    assert a.meta["n_visited"] == b.meta["n_visited"]
    assert a.meta["iterations"] == b.meta["iterations"]


class TestSparseCoverage:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_roundtrip_against_matrix(self, seed):
        rng = np.random.default_rng(seed)
        cov = rng.random((13, 9)) < 0.25
        cov[3] = False                       # a site covering nothing
        cov[:, 5] = False                    # a sensor covered by nobody
        csr = SparseCoverage.from_matrix(cov)
        assert csr.n_sites == 13 and csr.n_sensors == 9
        assert csr.nnz == int(cov.sum())
        for j in range(13):
            np.testing.assert_array_equal(csr.sensors_of(j),
                                          np.flatnonzero(cov[j]))
        for v in range(9):
            np.testing.assert_array_equal(csr.sites_of(v),
                                          np.flatnonzero(cov[:, v]))

    def test_sites_covering_matches_oracle(self):
        rng = np.random.default_rng(3)
        cov = rng.random((11, 7)) < 0.3
        csr = SparseCoverage.from_matrix(cov)
        for _ in range(10):
            sensors = np.flatnonzero(rng.random(7) < 0.4)
            expect = np.flatnonzero(cov[:, sensors].any(axis=1)) \
                if len(sensors) else np.empty(0, dtype=int)
            np.testing.assert_array_equal(csr.sites_covering(sensors), expect)

    def test_gather_segments_reproduce_row_sums(self):
        rng = np.random.default_rng(4)
        cov = rng.random((10, 8)) < 0.3
        vals = rng.random(8) * 100
        csr = SparseCoverage.from_matrix(cov)
        sites = np.array([0, 2, 3, 7, 9])
        idxs, starts, lengths = csr.gather(sites)
        flat = vals[idxs]
        for row, (s, ln) in enumerate(zip(starts, lengths)):
            assert np.isclose(flat[s:s + ln].sum(),
                              vals[cov[sites[row]]].sum())

    def test_empty_matrix(self):
        csr = SparseCoverage.from_matrix(np.zeros((0, 0), dtype=bool))
        assert csr.nnz == 0
        assert len(csr.sites_covering(np.empty(0, dtype=int))) == 0


class TestDirtySetResiduals:
    """Kernel residual cache vs the dense Eq. 11/12 oracle."""

    def _kernels(self, seed=0):
        net = _net(seed)
        sites = build_hovering_sites(net, RADIO, 25.0)
        return (sites, PlannerKernel(sites, ENERGY, RADIO))

    def test_initial_scores_match_oracle(self):
        sites, kern = self._kernels()
        p_res, t_res = kern.residual_scores()
        rem = sites.network.volumes
        np.testing.assert_allclose(p_res, sites.residual_awards(rem),
                                   rtol=1e-12)
        # max + division are order-independent: exact equality expected.
        np.testing.assert_array_equal(t_res, sites.residual_hover_times(rem))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scores_after_random_drains(self, seed):
        sites, kern = self._kernels(seed)
        rng = np.random.default_rng(seed + 100)
        for step in range(12):
            site = int(rng.integers(sites.n_sites))
            if step % 3 == 0:
                kern.drain_full(site)
            else:
                kern.drain_partial(site, float(rng.random() * 2.0))
            p_res, t_res = kern.residual_scores()
            np.testing.assert_allclose(
                p_res, sites.residual_awards(kern.rem), rtol=1e-12)
            np.testing.assert_array_equal(
                t_res, sites.residual_hover_times(kern.rem))

    def test_rescores_only_overlapping_sites(self):
        sites, kern = self._kernels()
        kern.residual_scores()                     # initial full scoring
        base = kern.counters["sites_rescored"]
        assert base == sites.n_sites
        site = 0
        touched = sites.cov_matrix[:, sites.cov_matrix[site]].any(axis=1)
        kern.drain_full(site)
        kern.residual_scores()
        rescored = kern.counters["sites_rescored"] - base
        assert rescored == int(touched.sum())
        assert rescored < sites.n_sites            # genuinely sub-linear
        # A second call with nothing drained rescores nothing.
        kern.residual_scores()
        assert kern.counters["sites_rescored"] - base == rescored

    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_partial_scores_match_dense_engine(self, K):
        net = _net(5)
        sites = build_hovering_sites(net, RADIO, 25.0)
        a = PlannerKernel(sites, ENERGY, RADIO, volume_tol=1e-9)
        b = DenseKernel(sites, ENERGY, RADIO, volume_tol=1e-9)
        fractions = np.arange(1, K + 1) / K
        rng = np.random.default_rng(5)
        for _ in range(8):
            ta, taua, pa = a.partial_scores(fractions)
            tb, taub, pb = b.partial_scores(fractions)
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(taua, taub)
            np.testing.assert_allclose(pa, pb, rtol=1e-12)
            site = int(rng.integers(sites.n_sites))
            dur = float(rng.random() * 1.5)
            a.drain_partial(site, dur)
            b.drain_partial(site, dur)
            np.testing.assert_array_equal(a.rem, b.rem)


    @pytest.mark.parametrize("K", [1, 3])
    def test_changed_rows_name_every_changed_row(self, K):
        net = _net(6)
        sites = build_hovering_sites(net, RADIO, 20.0)
        kern = PlannerKernel(sites, ENERGY, RADIO, volume_tol=1e-9)
        fractions = np.arange(1, K + 1) / K
        kern.partial_scores(fractions)
        assert kern.changed_rows is None            # first call: all rows
        rng = np.random.default_rng(6)
        for _ in range(6):
            before = [a.copy() for a in kern.partial_scores(fractions)]
            site = int(rng.integers(sites.n_sites))
            drained = kern.rem.copy()
            kern.drain_partial(site, float(rng.random()))
            drained = np.flatnonzero(kern.rem != drained)
            after = kern.partial_scores(fractions)
            rows = kern.changed_rows
            np.testing.assert_array_equal(
                rows, np.flatnonzero(sites.cov_matrix[:, drained].any(axis=1)))
            same = np.ones(sites.n_sites, dtype=bool)
            same[rows] = False
            for old, new in zip(before, after):
                np.testing.assert_array_equal(old[same], new[same])
        # A new fractions vector invalidates every row again.
        kern.partial_scores(fractions / 2)
        assert kern.changed_rows is None


class TestInsertionCache:
    """Incremental delta cache vs the full-scan `site_insertion_deltas` oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_insert_sequence_matches_full_scan(self, seed):
        net = _net(seed, n=25)
        sites = build_hovering_sites(net, RADIO, 30.0)
        kern = PlannerKernel(sites, ENERGY, RADIO)
        rng = np.random.default_rng(seed + 50)
        candidates = rng.permutation(sites.n_sites)[:min(10, sites.n_sites)]
        for site in candidates:
            deltas, positions = kern.insertion_state()
            oracle_d, oracle_p = site_insertion_deltas(
                sites.points, kern.points_all[np.array(kern.tour)])
            np.testing.assert_array_equal(deltas, oracle_d)
            np.testing.assert_array_equal(positions, oracle_p)
            kern.insert(int(site))
        # and once more after the final insertion
        deltas, positions = kern.insertion_state()
        oracle_d, oracle_p = site_insertion_deltas(
            sites.points, kern.points_all[np.array(kern.tour)])
        np.testing.assert_array_equal(deltas, oracle_d)
        np.testing.assert_array_equal(positions, oracle_p)

    def test_insert_keeps_tour_consistent(self):
        net = _net(9, n=15)
        sites = build_hovering_sites(net, RADIO, 40.0)
        kern = PlannerKernel(sites, ENERGY, RADIO)
        for site in range(min(5, sites.n_sites)):
            kern.insertion_state()
            pos = kern.insert(site)
            assert kern.tour[pos] == site + 1
            assert kern.in_tour[site + 1]
        assert kern.tour[0] == 0
        assert len(set(kern.tour)) == len(kern.tour)

    def test_set_tour_flushes_cache(self):
        net = _net(2, n=15)
        sites = build_hovering_sites(net, RADIO, 40.0)
        kern = PlannerKernel(sites, ENERGY, RADIO)
        kern.insertion_state()
        for site in range(min(4, sites.n_sites)):
            kern.insert(site)
        reordered = [kern.tour[0]] + kern.tour[:0:-1]
        kern.set_tour(reordered)
        assert kern.counters["tour_flushes"] == 1
        deltas, positions = kern.insertion_state()
        oracle_d, oracle_p = site_insertion_deltas(
            sites.points, kern.points_all[np.array(kern.tour)])
        np.testing.assert_array_equal(deltas, oracle_d)
        np.testing.assert_array_equal(positions, oracle_p)

    def test_set_tour_requires_depot(self):
        net = _net(2, n=10)
        sites = build_hovering_sites(net, RADIO, 40.0)
        kern = PlannerKernel(sites, ENERGY, RADIO)
        with pytest.raises(InvalidParameterError):
            kern.set_tour([1, 2])


class TestPruneCache:
    """Neighbour-only removal rescoring vs a full recompute oracle."""

    def _instance(self, seed, k=12):
        rng = np.random.default_rng(seed)
        pts = rng.random((k + 1, 2)) * 300
        dist = pairwise_distances(pts)
        volumes = rng.random(k) * 400 + 50
        hover = volumes / RADIO.bandwidth
        return dist, volumes, hover

    def _oracle_ratios(self, cache):
        fresh = PruneCache(cache.dist, cache.volumes, cache.hover_times,
                           cache.eta_h, cache.etat_m)
        fresh.set_tour(list(cache.tour))
        return fresh._ratios

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_remove_sequence_matches_oracle(self, seed):
        dist, volumes, hover = self._instance(seed)
        cache = PruneCache(dist, volumes, hover,
                           ENERGY.hover_power, ENERGY.travel_cost_per_meter)
        cache.set_tour(list(range(len(volumes) + 1)))
        while len(cache.tour) > 2:
            np.testing.assert_array_equal(cache._ratios,
                                          self._oracle_ratios(cache))
            i = cache.best()
            assert i >= 0
            assert cache.tour[i] != 0
            cache.remove(i)
        np.testing.assert_array_equal(cache._ratios,
                                      self._oracle_ratios(cache))

    def test_depot_never_selected(self):
        dist, volumes, hover = self._instance(7, k=5)
        cache = PruneCache(dist, volumes, hover,
                           ENERGY.hover_power, ENERGY.travel_cost_per_meter)
        cache.set_tour([0])
        assert cache.best() == -1


class TestEngineEquivalenceAlg2:
    """Alg. 2 kernel vs dense oracle: identical on ≥10 seeded instances."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delta", [10.0, 20.0, 40.0])
    def test_insertion_mode(self, seed, delta):
        net = _net(seed)
        _assert_same_tour(*kernel_and_dense(plan_algorithm2, net, ENERGY,
                                             RADIO, delta))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_christofides_mode(self, seed):
        net = _net(seed, n=12)
        _assert_same_tour(*kernel_and_dense(plan_algorithm2, net, ENERGY,
                                             RADIO, 40.0,
                                             tsp_mode="christofides"))

    @pytest.mark.parametrize("scoring", ["award", "proximity", "hover_ratio"])
    def test_scoring_variants(self, scoring):
        net = _net(4)
        _assert_same_tour(*kernel_and_dense(plan_algorithm2, net, ENERGY,
                                             RADIO, 20.0, scoring=scoring))

    def test_no_polish(self):
        net = _net(6)
        _assert_same_tour(*kernel_and_dense(plan_algorithm2, net, ENERGY,
                                             RADIO, 20.0, polish=False))


class TestEngineEquivalenceAlg3:
    """Alg. 3 kernel vs dense oracle across δ and K."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("delta", [10.0, 20.0, 40.0])
    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_partial_collection(self, seed, delta, K):
        net = _net(seed)
        _assert_same_tour(*kernel_and_dense(plan_algorithm3, net, ENERGY,
                                             RADIO, delta, K=K))

    def test_no_polish(self):
        net = _net(3)
        _assert_same_tour(*kernel_and_dense(plan_algorithm3, net, ENERGY,
                                             RADIO, 20.0, K=2, polish=False))


#: A capacity column from scarce to roomy, planned cell by cell.
CAPACITIES = (2e4, 5e4, 1e5, 3e5, 8e5)


def _energy(capacity: float) -> EnergyModel:
    return EnergyModel(capacity=capacity, hover_power=150.0,
                       travel_power=100.0, speed=10.0)


class TestScenarioEquivalence:
    """Kernel vs dense oracle on every named scenario family."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_alg2_matches_dense(self, name):
        net = make_scenario(name, seed=2, n=30)
        for capacity in CAPACITIES:
            _assert_same_tour(*kernel_and_dense(
                plan_algorithm2, net, _energy(capacity), RADIO, 30.0))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("K", [1, 3])
    def test_alg3_matches_dense(self, name, K):
        net = make_scenario(name, seed=5, n=30)
        for capacity in CAPACITIES:
            _assert_same_tour(*kernel_and_dense(
                plan_algorithm3, net, _energy(capacity), RADIO, 30.0, K=K))


class TestEquivalenceProperty:
    """Kernel vs dense oracle over random seeds, sizes and capacities."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 20), n=st.integers(5, 18),
           caps=st.lists(st.sampled_from([1e4, 3e4, 8e4, 2e5, 6e5]),
                         min_size=1, max_size=4))
    def test_alg2_kernel_matches_dense(self, seed, n, caps):
        net = _net(seed, n)
        for capacity in caps:
            _assert_same_tour(*kernel_and_dense(
                plan_algorithm2, net, _energy(capacity), RADIO, 30.0))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10), n=st.integers(5, 15),
           K=st.integers(1, 3),
           caps=st.lists(st.sampled_from([1e4, 3e4, 8e4, 2e5]),
                         min_size=1, max_size=3))
    def test_alg3_kernel_matches_dense(self, seed, n, K, caps):
        net = _net(seed, n)
        for capacity in caps:
            _assert_same_tour(*kernel_and_dense(
                plan_algorithm3, net, _energy(capacity), RADIO, 30.0, K=K))


class TestEngineEquivalenceBenchmark:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prune_loop(self, seed):
        net = _net(seed)
        a = plan_benchmark(net, ENERGY, RADIO)
        with legacy_prune():
            b = plan_benchmark(net, ENERGY, RADIO)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.sojourns, b.sojourns)
        np.testing.assert_array_equal(a.collected, b.collected)
        assert a.meta["removals"] == b.meta["removals"]
        # The incremental cache does strictly less rescoring work.
        if a.meta["removals"] > 2:
            assert (a.meta["perf"]["ratios_rescored"]
                    < b.meta["perf"]["ratios_rescored"])


class TestPerfCounters:
    def test_alg2_meta_perf(self):
        net = _net(0, n=15)
        tour = plan_algorithm2(net, ENERGY, RADIO, 30.0)
        perf = tour.meta["perf"]
        # Counts only: phase time lives in the kernel.* spans.
        counters = {"insertions", "drains", "tour_flushes",
                    "sites_rescored", "deltas_recomputed"}
        assert set(perf) == {"engine"} | counters
        assert perf["engine"] == "kernel"
        for key in counters:
            assert type(perf[key]) is int and perf[key] >= 0
        assert "engine" not in tour.meta

    def test_counters_are_a_plain_int_dict(self):
        net = _net(0, n=15)
        sites = build_hovering_sites(net, RADIO, 30.0)
        kern = PlannerKernel(sites, ENERGY, RADIO)
        assert kern.counters == {"insertions": 0, "drains": 0,
                                 "tour_flushes": 0, "sites_rescored": 0,
                                 "deltas_recomputed": 0}
        kern.residual_scores()
        kern.drain_full(0)
        assert kern.counters["sites_rescored"] == sites.n_sites
        assert kern.counters["drains"] == 1
        assert all(type(v) is int for v in kern.counters.values())
        assert kern.perf() == {"engine": "kernel", **kern.counters}

    def test_alg3_meta_perf(self):
        net = _net(0, n=15)
        tour = plan_algorithm3(net, ENERGY, RADIO, 30.0, K=2)
        assert tour.meta["perf"]["engine"] == "kernel"
        assert tour.meta["perf"]["drains"] > 0

    def test_kernel_beats_dense_on_rescoring(self):
        net = _net(1)
        a, b = kernel_and_dense(plan_algorithm2, net, ENERGY, RADIO, 15.0)
        assert (a.meta["perf"]["sites_rescored"]
                < b.meta["perf"]["sites_rescored"])


class TestEdgeCases:
    def _empty_net(self):
        return SensorNetwork(positions=np.empty((0, 2)),
                             volumes=np.empty(0),
                             depot=np.array([0.0, 0.0]),
                             region=Region.square(100.0))

    def test_residual_hover_times_zero_sensors(self):
        """(m, 0) coverage: the reduced-axis guard must not raise."""
        net = self._empty_net()
        sites = HoveringSites(points=np.array([[10.0, 10.0], [20.0, 20.0]]),
                              cov_matrix=np.zeros((2, 0), dtype=bool),
                              awards=np.zeros(2), hover_times=np.zeros(2),
                              network=net, radio=RADIO, delta=10.0)
        out = sites.residual_hover_times(np.empty(0))
        np.testing.assert_array_equal(out, np.zeros(2))
        np.testing.assert_array_equal(sites.residual_awards(np.empty(0)),
                                      np.zeros(2))

    def test_build_sites_no_prune_zero_sensors(self):
        net = self._empty_net()
        sites = build_hovering_sites(net, RADIO, 50.0, prune=False)
        assert sites.n_sites > 0
        np.testing.assert_array_equal(sites.hover_times,
                                      np.zeros(sites.n_sites))

    @pytest.mark.parametrize("engine", IMPLEMENTATIONS)
    def test_planners_on_empty_network(self, engine):
        net = self._empty_net()
        t2 = plan_on(engine, plan_algorithm2, net, ENERGY, RADIO, 25.0)
        assert t2.meta["n_visited"] == 0
        t3 = plan_on(engine, plan_algorithm3, net, ENERGY, RADIO, 25.0, K=2)
        assert t3.meta["n_visited"] == 0
        with legacy_prune() if engine == "dense" else nullcontext():
            tb = plan_benchmark(net, ENERGY, RADIO)
        assert tb.meta["n_visited"] == 0

    @pytest.mark.parametrize("engine", IMPLEMENTATIONS)
    def test_kernel_zero_sensor_sites(self, engine):
        """A kernel over (m, 0) coverage scores everything as zero."""
        net = self._empty_net()
        sites = build_hovering_sites(net, RADIO, 50.0, prune=False)
        cls = DenseKernel if engine == "dense" else PlannerKernel
        kern = cls(sites, ENERGY, RADIO)
        p_res, t_res = kern.residual_scores()
        np.testing.assert_array_equal(np.ravel(p_res),
                                      np.zeros(sites.n_sites))
        np.testing.assert_array_equal(np.ravel(t_res),
                                      np.zeros(sites.n_sites))

    def test_rejects_bad_engine(self):
        """``engine=`` is no planner option: the facade names it."""
        net = _net(0, n=10)
        for method in ("algorithm2", "algorithm3", "benchmark"):
            with pytest.raises(InvalidParameterError, match="'engine'"):
                plan_tour(net, ENERGY, RADIO, method=method, delta=25.0,
                          engine="gpu")
