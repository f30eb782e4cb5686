"""Tests for repro.core.reduce (candidate-site reduction pre-pass).

Pins the module's two load-bearing contracts:

* the ``safe`` level is *plan-preserving*: Algorithms 2/3 produce
  bitwise-identical tours with and without it, on every engine;
* the survivor→original index map is a faithful row slice (strictly
  increasing, round-trippable, -1 for dropped sites).

The aggressive stages are checked on hand-crafted coverage matrices
where the expected survivor set is knowable by inspection.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import plan_algorithm1
from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import plan_algorithm3
from repro.core.auxgraph import build_auxiliary_graph
from repro.core.hovering import HoveringSites, build_hovering_sites
from repro.core.reduce import (
    REDUCTION_LEVELS,
    ReducedSites,
    SiteReduction,
    attach_reduction_meta,
    reduce_sites,
    resolve_reduction,
)
from repro.energy.model import EnergyModel
from repro.geometry.region import Region
from repro.network.generator import NetworkGenerator
from repro.network.sensor_network import SensorNetwork
from repro.utils.errors import InvalidParameterError
from tests.oracles import IMPLEMENTATIONS, plan_on


def assert_same_tour(a, b):
    """Bitwise tour equality (points, sojourns, collected, counts)."""
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.sojourns, b.sojourns)
    assert np.array_equal(a.collected, b.collected)
    assert a.meta["n_visited"] == b.meta["n_visited"]


def crafted_sites(radio, cov_matrix, points=None, awards=None,
                  volumes=None, delta=10.0):
    """HoveringSites with a hand-written coverage matrix.

    The geometry is synthetic (the stages only read points through
    distances), which lets each aggressive stage be tested on a coverage
    structure where the right answer is obvious.
    """
    cov = np.asarray(cov_matrix, dtype=bool)
    m, n = cov.shape
    if volumes is None:
        volumes = np.full(n, 100.0)
    volumes = np.asarray(volumes, dtype=float)
    positions = np.column_stack([np.linspace(10.0, 30.0, n),
                                 np.full(n, 10.0)])
    net = SensorNetwork(positions=positions, volumes=volumes,
                        depot=np.zeros(2), region=Region.square(400.0))
    if points is None:
        points = np.column_stack([np.linspace(10.0, 30.0, m),
                                  np.full(m, 12.0)])
    points = np.asarray(points, dtype=float)
    if awards is None:
        awards = cov @ volumes
    awards = np.asarray(awards, dtype=float)
    return HoveringSites(points=points, cov_matrix=cov, awards=awards,
                         hover_times=awards / radio.bandwidth,
                         network=net, radio=radio, delta=delta)


class TestSiteReductionConfig:
    def test_presets(self):
        off = resolve_reduction(None)
        assert not off.enabled and off.level == "off"
        safe = resolve_reduction("safe")
        assert safe.enabled and safe.zero_award and safe.unreachable
        assert not (safe.dominated or safe.cluster or safe.corridor)
        assert safe.capacity_dependent
        agg = resolve_reduction("aggressive")
        assert agg.dominated and agg.cluster and agg.corridor

    def test_resolve_accepts_dict_and_instance(self):
        cfg = resolve_reduction("safe")
        assert resolve_reduction(cfg) is cfg
        assert resolve_reduction(cfg.as_dict()) == cfg

    def test_resolve_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            resolve_reduction("extreme")
        with pytest.raises(InvalidParameterError):
            resolve_reduction(3.14)
        with pytest.raises(InvalidParameterError):
            resolve_reduction({"level": "safe", "typo_knob": 1})

    @pytest.mark.parametrize("kwargs", [
        {"cluster_jaccard": 0.0}, {"cluster_jaccard": 1.5},
        {"cluster_radius_factor": -1.0}, {"corridor_budget_factor": 0.0},
        {"level": ""},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SiteReduction(**kwargs)

    @pytest.mark.parametrize("level", REDUCTION_LEVELS)
    def test_transport_round_trips_and_is_json_safe(self, level):
        cfg = resolve_reduction(level)
        wire = cfg.transport()
        assert wire == level          # presets ship as their name
        json.dumps(wire)
        assert resolve_reduction(wire) == cfg

    def test_custom_transport_is_dict(self):
        cfg = SiteReduction(level="custom", dominated=True,
                            cluster_jaccard=0.9)
        wire = cfg.transport()
        assert isinstance(wire, dict)
        json.dumps(wire)
        assert resolve_reduction(wire) == cfg

    def test_key_distinguishes_configs(self):
        keys = {resolve_reduction(lvl).key() for lvl in REDUCTION_LEVELS}
        assert len(keys) == 3
        tweaked = SiteReduction(level="safe", zero_award=True,
                                unreachable=True, cluster_jaccard=0.5)
        assert tweaked.key() != resolve_reduction("safe").key()


class TestReducedSites:
    @pytest.fixture
    def reduced(self, small_net, radio, energy):
        sites = build_hovering_sites(small_net, radio, 25.0)
        return sites, reduce_sites(sites, "safe", energy=energy)

    def test_is_a_row_slice(self, reduced):
        sites, red = reduced
        assert isinstance(red, HoveringSites)
        assert red.n_original == sites.n_sites
        assert np.all(np.diff(red.survivors) > 0)
        assert np.array_equal(red.points, sites.points[red.survivors])
        assert np.array_equal(red.cov_matrix,
                              sites.cov_matrix[red.survivors])
        assert np.array_equal(red.awards, sites.awards[red.survivors])

    def test_index_maps_round_trip(self, reduced):
        _, red = reduced
        idx = np.arange(red.n_sites)
        assert np.array_equal(red.from_original(red.to_original(idx)), idx)
        back = red.from_original(np.arange(red.n_original))
        dropped = np.setdiff1d(np.arange(red.n_original), red.survivors)
        assert np.all(back[dropped] == -1)
        assert np.array_equal(back[red.survivors], idx)

    def test_index_maps_reject_out_of_range(self, reduced):
        _, red = reduced
        with pytest.raises(InvalidParameterError):
            red.to_original([red.n_sites])
        with pytest.raises(InvalidParameterError):
            red.from_original([-1])

    def test_stats_and_meta_block(self, reduced):
        _, red = reduced
        assert red.stats["sites_in"] == red.n_original
        assert red.stats["sites_out"] == red.n_sites
        block = red.meta_block()
        assert block["level"] == "safe"
        assert block["n_reduced"] <= block["n_original"]
        json.dumps(block)

    def test_reduce_is_not_idempotent(self, reduced):
        _, red = reduced
        with pytest.raises(InvalidParameterError):
            reduce_sites(red, "safe")

    def test_attach_meta_noop_for_plain_sites(self, small_net, radio):
        sites = build_hovering_sites(small_net, radio, 25.0)
        meta = {"n_candidates": sites.n_sites}
        attach_reduction_meta(meta, sites)
        assert "site_reduction" not in meta and "perf" not in meta


class TestSafeStages:
    def test_zero_award_sites_dropped(self, radio):
        sites = crafted_sites(radio, [[1, 0], [0, 1], [0, 0]],
                              volumes=[100.0, 0.0])
        red = reduce_sites(sites, SiteReduction(level="z", zero_award=True))
        # Site 1 covers only the empty sensor, site 2 covers nothing.
        assert red.survivors.tolist() == [0]
        assert red.stats["zero_award"] == 2

    def test_unreachable_matches_explicit_bound(self, small_net, radio):
        sites = build_hovering_sites(small_net, radio, 20.0)
        energy = EnergyModel(capacity=4e3, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        red = reduce_sites(sites, "safe", energy=energy)
        d0 = np.linalg.norm(sites.points - small_net.depot[None, :], axis=1)
        reachable = (2.0 * d0 * energy.travel_cost_per_meter
                     <= energy.capacity + 1e-9)
        expected = np.flatnonzero(reachable & (sites.awards > 0.0))
        assert np.array_equal(red.survivors, expected)
        assert red.stats["unreachable"] > 0

    def test_unreachable_skipped_without_energy(self, small_net, radio):
        sites = build_hovering_sites(small_net, radio, 20.0)
        red = reduce_sites(sites, "safe")
        assert red.stats["unreachable"] == 0

    @pytest.mark.parametrize("engine", IMPLEMENTATIONS)
    def test_safe_is_plan_preserving_alg2(self, small_net, radio, energy,
                                          engine):
        base = plan_on(engine, plan_algorithm2, small_net, energy, radio,
                       20.0)
        red = plan_on(engine, plan_algorithm2, small_net, energy, radio,
                      20.0, site_reduction="safe")
        assert_same_tour(base, red)
        assert base.meta["iterations"] == red.meta["iterations"]

    @pytest.mark.parametrize("engine", IMPLEMENTATIONS)
    def test_safe_is_plan_preserving_alg3(self, small_net, radio, energy,
                                          engine):
        base = plan_on(engine, plan_algorithm3, small_net, energy, radio,
                       20.0, K=2)
        red = plan_on(engine, plan_algorithm3, small_net, energy, radio,
                      20.0, K=2, site_reduction="safe")
        assert_same_tour(base, red)

    def test_safe_preserving_greedy_alg1(self, small_net, radio, energy):
        # Only the greedy solver is renumbering-invariant (the GRASP
        # seeded-RNG stream shifts when node ids renumber).
        base = plan_algorithm1(small_net, energy, radio, delta=40.0,
                               solver="greedy")
        red = plan_algorithm1(small_net, energy, radio, delta=40.0,
                              solver="greedy", site_reduction="safe")
        assert_same_tour(base, red)


class TestAggressiveStages:
    def test_dominated_subset_dropped(self, radio):
        # Site 0 ⊂ site 1; site 2 covers its own sensor.
        sites = crafted_sites(radio, [[1, 1, 0, 0],
                                      [1, 1, 1, 0],
                                      [0, 0, 0, 1]])
        red = reduce_sites(sites, SiteReduction(level="d", dominated=True))
        assert red.survivors.tolist() == [1, 2]
        assert red.stats["dominated"] == 1

    def test_equal_coverage_keeps_lowest_index(self, radio):
        sites = crafted_sites(radio, [[1, 1], [1, 1], [1, 1]])
        red = reduce_sites(sites, SiteReduction(level="d", dominated=True))
        assert red.survivors.tolist() == [0]

    def test_cluster_keeps_max_award_representative(self, radio):
        # Three co-located sites with identical coverage (Jaccard 1);
        # site 1 carries the largest award and must be the representative.
        cov = [[1, 1, 0], [1, 1, 0], [1, 1, 0]]
        points = np.array([[10.0, 0.0], [11.0, 0.0], [12.0, 0.0]])
        sites = crafted_sites(radio, cov, points=points, delta=10.0,
                              awards=[200.0, 300.0, 200.0])
        red = reduce_sites(sites, SiteReduction(level="c", cluster=True))
        assert red.survivors.tolist() == [1]
        assert red.stats["clustered"] == 2

    def test_jaccard_below_threshold_not_clustered(self, radio):
        # Jaccard({0,1}, {0,1,2}) = 2/3 < 0.75: near but not duplicate.
        cov = [[1, 1, 0], [1, 1, 1]]
        points = np.array([[10.0, 0.0], [11.0, 0.0]])
        sites = crafted_sites(radio, cov, points=points, delta=10.0)
        red = reduce_sites(sites, SiteReduction(level="c", cluster=True))
        assert red.n_sites == 2
        loose = SiteReduction(level="c", cluster=True, cluster_jaccard=0.5)
        assert reduce_sites(sites, loose).survivors.tolist() == [1]

    def test_cluster_respects_radius(self, radio):
        # Same coverage but geometrically far apart: no cluster.
        cov = [[1, 1], [1, 1]]
        points = np.array([[0.0, 0.0], [500.0, 0.0]])
        sites = crafted_sites(radio, cov, points=points, delta=10.0)
        red = reduce_sites(sites, SiteReduction(level="c", cluster=True))
        assert red.n_sites == 2

    def test_corridor_drops_far_redundant_site(self, radio):
        # Sites 0-2 near the depot cover everything (the skeleton); site 3
        # is redundant coverage parked 5 km away — far beyond the
        # 2·R0 = 100 m detour budget.
        cov = [[1, 1, 0], [0, 1, 1], [1, 0, 1], [0, 1, 0]]
        points = np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0],
                           [5000.0, 5000.0]])
        sites = crafted_sites(radio, cov, points=points)
        red = reduce_sites(sites, SiteReduction(level="k", corridor=True))
        assert 3 not in red.survivors.tolist()
        assert red.stats["corridor"] == 1

    def test_corridor_skeleton_retains_sole_coverage(self, radio):
        # Site 1 is the only coverage of sensor 2: the set-cover skeleton
        # must include it no matter how far off the corridor it sits.
        cov = [[1, 1, 0], [0, 0, 1], [1, 1, 0]]
        points = np.array([[10.0, 0.0], [5000.0, 5000.0], [20.0, 0.0]])
        sites = crafted_sites(radio, cov, points=points)
        red = reduce_sites(sites, SiteReduction(level="k", corridor=True))
        assert 1 in red.survivors.tolist()

    def test_repair_restores_orphaned_sensor(self, radio):
        # A loose Jaccard threshold clusters sites 0/1 and keeps site 0
        # (tie on award to the lowest index), orphaning sensor 3 — the
        # repair step must re-add site 1.
        cov = [[1, 1, 1, 0], [1, 1, 0, 1]]
        points = np.array([[10.0, 0.0], [11.0, 0.0]])
        sites = crafted_sites(radio, cov, points=points, delta=10.0,
                              awards=[300.0, 300.0])
        loose = SiteReduction(level="c", cluster=True, cluster_jaccard=0.5)
        red = reduce_sites(sites, loose)
        assert red.stats["clustered"] == 1
        assert red.stats["repaired"] == 1
        assert red.survivors.tolist() == [0, 1]
        assert red.cov_matrix.any(axis=0).all()

    def test_aggressive_never_orphans_reachable_sensors(self, small_net,
                                                        radio, energy):
        sites = build_hovering_sites(small_net, radio, 15.0)
        safe = reduce_sites(sites, "safe", energy=energy)
        agg = reduce_sites(sites, "aggressive", energy=energy)
        coverable_safe = safe.cov_matrix.any(axis=0)
        coverable_agg = agg.cov_matrix.any(axis=0)
        assert np.array_equal(coverable_safe, coverable_agg)

    def test_aggressive_shrinks_hard(self, small_net, radio, energy):
        sites = build_hovering_sites(small_net, radio, 10.0)
        red = reduce_sites(sites, "aggressive", energy=energy)
        assert red.n_sites < sites.n_sites / 3


class TestPlannerIntegration:
    def test_meta_surfaces_reduction(self, small_net, radio, energy):
        tour = plan_algorithm2(small_net, energy, radio, delta=20.0,
                               site_reduction="safe")
        block = tour.meta["site_reduction"]
        assert block["level"] == "safe"
        assert tour.meta["n_candidates"] == block["n_reduced"]
        reduce_perf = tour.meta["perf"]["reduce"]
        assert reduce_perf["sites_in"] == block["n_original"]
        assert all(isinstance(v, int) for v in reduce_perf.values())

    def test_off_leaves_meta_untouched(self, small_net, radio, energy):
        tour = plan_algorithm2(small_net, energy, radio, delta=20.0)
        assert "site_reduction" not in tour.meta
        assert "reduce" not in tour.meta["perf"]

    def test_prereduced_sites_accepted(self, small_net, radio, energy):
        sites = build_hovering_sites(small_net, radio, 20.0)
        red = reduce_sites(sites, "safe", energy=energy)
        a = plan_algorithm2(small_net, energy, radio, delta=20.0, sites=red,
                            site_reduction="safe")
        b = plan_algorithm2(small_net, energy, radio, delta=20.0,
                            site_reduction="safe")
        assert_same_tour(a, b)

    def test_alg1_rejects_unreduced_prebuilt_graph(self, small_net, radio,
                                                   energy):
        sites = build_hovering_sites(small_net, radio, 40.0)
        graph = build_auxiliary_graph(sites, energy)
        with pytest.raises(InvalidParameterError):
            plan_algorithm1(small_net, energy, radio, delta=40.0,
                            sites=sites, graph=graph,
                            site_reduction="safe")

    def test_alg1_accepts_graph_over_reduced_sites(self, small_net, radio,
                                                   energy):
        sites = build_hovering_sites(small_net, radio, 40.0)
        red = reduce_sites(sites, "safe", energy=energy)
        graph = build_auxiliary_graph(red, energy)
        tour = plan_algorithm1(small_net, energy, radio, delta=40.0,
                               sites=red, graph=graph, solver="greedy",
                               site_reduction="safe")
        ref = plan_algorithm1(small_net, energy, radio, delta=40.0,
                              solver="greedy", site_reduction="safe")
        assert_same_tour(tour, ref)


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


class TestSafeLosslessProperty:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 15), n=st.integers(6, 16),
           cap=st.sampled_from([4e3, 1e4, 3e4, 1e5]),
           engine=st.sampled_from(IMPLEMENTATIONS))
    def test_safe_lossless_all_engines(self, radio, seed, n, cap, engine):
        net = _NETS.get(seed, n)
        energy = EnergyModel(capacity=cap, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        base = plan_on(engine, plan_algorithm2, net, energy, radio, 25.0)
        red = plan_on(engine, plan_algorithm2, net, energy, radio, 25.0,
                      site_reduction="safe")
        assert_same_tour(base, red)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 15), n=st.integers(6, 16),
           level=st.sampled_from(["safe", "aggressive"]),
           cap=st.sampled_from([4e3, 1e4, 3e4]))
    def test_survivor_map_round_trips(self, radio, seed, n, level, cap):
        net = _NETS.get(seed, n)
        energy = EnergyModel(capacity=cap, hover_power=150.0,
                             travel_power=100.0, speed=10.0)
        sites = build_hovering_sites(net, radio, 20.0)
        red = reduce_sites(sites, level, energy=energy)
        assert np.all(np.diff(red.survivors) > 0)
        idx = np.arange(red.n_sites)
        assert np.array_equal(red.from_original(red.to_original(idx)), idx)
        # The slice is faithful under any permutation of lookups.
        perm = np.random.default_rng(seed).permutation(red.n_sites)
        assert np.array_equal(red.to_original(perm),
                              red.survivors[perm])
        assert np.array_equal(
            sites.points[red.to_original(perm)], red.points[perm])
