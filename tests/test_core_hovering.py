"""Unit tests for repro.core.hovering."""

import numpy as np
import pytest

from repro.core.algorithm1 import plan_algorithm1
from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import plan_algorithm3
from repro.core.auxgraph import overlap_conflicts
from repro.core.hovering import build_hovering_sites
from repro.core.kernel import PlannerKernel
from repro.energy.model import EnergyModel
from repro.geometry.grid import GridPartition
from repro.geometry.region import Region
from repro.network.generator import NetworkGenerator
from repro.network.sensor_network import SensorNetwork
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError


@pytest.fixture
def sites(small_net, radio):
    return build_hovering_sites(small_net, radio, delta=25.0)


class TestBuild:
    def test_every_site_covers_a_sensor(self, sites):
        assert sites.cov_matrix.any(axis=1).all()

    def test_every_sensor_coverable(self, small_net, radio):
        # delta < R0 guarantees the square containing a sensor has its
        # centre within R0 of it.
        sites = build_hovering_sites(small_net, radio, delta=20.0)
        assert sites.cov_matrix.any(axis=0).all()

    def test_award_is_covered_volume_sum(self, sites, small_net):
        for j in range(sites.n_sites):
            covered = sites.coverage_list(j)
            assert sites.awards[j] == pytest.approx(
                small_net.volumes[covered].sum())

    def test_hover_time_is_max_upload_time(self, sites, small_net, radio):
        # Eq. 7: t(s_j) = max_{v in C(s_j)} D_v / B.
        for j in range(sites.n_sites):
            covered = sites.coverage_list(j)
            expected = (small_net.volumes[covered] / radio.bandwidth).max()
            assert sites.hover_times[j] == pytest.approx(expected)

    def test_unpruned_includes_empty_squares(self, small_net, radio):
        pruned = build_hovering_sites(small_net, radio, delta=25.0)
        full = build_hovering_sites(small_net, radio, delta=25.0, prune=False)
        assert full.n_sites >= pruned.n_sites
        grid = GridPartition(small_net.region, 25.0)
        assert full.n_sites == grid.num_squares

    def test_pruned_site_count_linear_in_v(self, generator, radio):
        # Doubling |V| should not explode the candidate count beyond ~2x
        # (plus overlap slack) — the paper's linearity argument.
        small = build_hovering_sites(generator.uniform(10, seed=1), radio, 20.0)
        large = build_hovering_sites(generator.uniform(20, seed=1), radio, 20.0)
        assert large.n_sites <= 2.5 * small.n_sites + 20

    def test_coverage_boundary_inclusive(self, radio, region):
        from repro.network.sensor_network import SensorNetwork
        # Sensor exactly R0 from the only candidate centre that survives.
        net = SensorNetwork(positions=[[50.0, 50.0]], volumes=[100.0],
                            depot=[0.0, 0.0], region=region)
        sites = build_hovering_sites(net, radio, delta=100.0)
        # Square centre (50, 50) distance 0 -> covered.
        assert sites.n_sites >= 1
        assert sites.cov_matrix.any()

    def test_rejects_bad_delta(self, small_net, radio):
        with pytest.raises(InvalidParameterError):
            build_hovering_sites(small_net, radio, delta=-1.0)

    def test_coverage_list_bounds(self, sites):
        with pytest.raises(InvalidParameterError):
            sites.coverage_list(sites.n_sites)


class TestOverlapMatrix:
    """The site-overlap relation, read as Algorithm 1's conflict lists."""

    def test_symmetric_no_diagonal(self, sites):
        lists = overlap_conflicts(sites)
        assert len(lists) == sites.n_sites + 1
        assert len(lists[0]) == 0          # the depot conflicts with nothing
        for node, neighbors in enumerate(lists):
            assert node not in neighbors
            for other in neighbors:
                assert node in lists[other]

    def test_overlap_iff_shared_sensor(self, sites):
        lists = overlap_conflicts(sites)
        cov = sites.cov_matrix
        for i in range(min(sites.n_sites, 10)):
            for j in range(min(sites.n_sites, 10)):
                if i == j:
                    continue
                shared = (cov[i] & cov[j]).any()
                assert (j + 1 in lists[i + 1]) == shared


class TestResidualHelpers:
    def test_residual_awards_full_volumes(self, sites, small_net):
        np.testing.assert_allclose(
            sites.residual_awards(small_net.volumes), sites.awards)

    def test_residual_awards_zero(self, sites, small_net):
        zero = np.zeros(small_net.n_nodes)
        np.testing.assert_allclose(sites.residual_awards(zero), 0.0)

    def test_residual_hover_times_full(self, sites, small_net):
        np.testing.assert_allclose(
            sites.residual_hover_times(small_net.volumes), sites.hover_times)

    def test_residual_monotone(self, sites, small_net, rng):
        partial = small_net.volumes * rng.uniform(0, 1, small_net.n_nodes)
        assert (sites.residual_awards(partial)
                <= sites.residual_awards(small_net.volumes) + 1e-9).all()
        assert (sites.residual_hover_times(partial)
                <= sites.residual_hover_times(small_net.volumes) + 1e-9).all()

    def test_residual_shape_validated(self, sites):
        with pytest.raises(InvalidParameterError):
            sites.residual_awards([1.0, 2.0])


class TestCoverageIndex:
    def test_csr_built_once_and_shared(self, sites, radio, energy):
        csr = sites.csr
        assert sites.csr is csr
        assert PlannerKernel(sites, energy, radio).csr is csr
        for arr in (csr.site_indptr, csr.site_indices, csr.sensor_indptr,
                    csr.sensor_indices):
            assert not arr.flags.writeable
        for j in range(sites.n_sites):
            np.testing.assert_array_equal(csr.sensors_of(j),
                                          sites.coverage_list(j))


# --------------------------------------------------------------------- #
# Prebuilt sites must match the planner's own inputs.
# --------------------------------------------------------------------- #

_GEN = NetworkGenerator(Region.square(400.0), volume_range=(50.0, 500.0))
_RADIO = RadioModel(bandwidth=150.0, transmission_range=50.0, altitude=0.0)
_ENERGY = EnergyModel(capacity=2e4, hover_power=150.0, travel_power=100.0,
                      speed=10.0)

#: Every planner that takes ``sites=``, as ``(network, radio, delta,
#: sites) -> one tour``.
_PLANNERS = {
    "algorithm1": lambda net, radio, delta, sites: plan_algorithm1(
        net, _ENERGY, radio, delta, sites=sites, solver="greedy"),
    "algorithm2": lambda net, radio, delta, sites: plan_algorithm2(
        net, _ENERGY, radio, delta, sites=sites),
    "algorithm3": lambda net, radio, delta, sites: plan_algorithm3(
        net, _ENERGY, radio, delta, 2, sites=sites),
}


def _built_for():
    """The sites every mismatch case passes: 30 nodes, R0 = 50, δ = 20."""
    return build_hovering_sites(_GEN.uniform(30, seed=1), _RADIO, 20.0)


#: Planner inputs that do not match :func:`_built_for`, and the word the
#: error must name.
_MISMATCHES = {
    "other_network": (lambda: (_GEN.uniform(30, seed=2), _RADIO, 20.0),
                      "positions"),
    "smaller_network": (lambda: (_GEN.uniform(20, seed=1), _RADIO, 20.0),
                        "positions"),
    "other_volumes": (lambda: (_GEN.uniform(30, seed=1).with_volumes(
        np.full(30, 100.0)), _RADIO, 20.0), "volumes"),
    "delta": (lambda: (_GEN.uniform(30, seed=1), _RADIO, 35.0), "delta"),
    "radio": (lambda: (_GEN.uniform(30, seed=1),
                       RadioModel(bandwidth=150.0, transmission_range=80.0,
                                  altitude=0.0), 20.0), "radio"),
}


class TestPrebuiltSitesChecked:
    @pytest.mark.parametrize("planner", sorted(_PLANNERS))
    @pytest.mark.parametrize("mismatch", sorted(_MISMATCHES))
    def test_mismatch_rejected(self, planner, mismatch):
        make_inputs, named = _MISMATCHES[mismatch]
        net, radio, delta = make_inputs()
        with pytest.raises(InvalidParameterError, match=named):
            _PLANNERS[planner](net, radio, delta, _built_for())

    @pytest.mark.parametrize("planner", sorted(_PLANNERS))
    def test_equal_inputs_accepted(self, planner):
        """An equal (not identical) network and radio, and an int δ."""
        net = _GEN.uniform(30, seed=1)
        sites = build_hovering_sites(net, _RADIO, 20.0)
        twin = SensorNetwork(positions=net.positions.copy(),
                             volumes=net.volumes.copy(),
                             depot=net.depot.copy(), region=net.region)
        radio = RadioModel(bandwidth=150.0, transmission_range=50.0,
                           altitude=0.0)
        a = _PLANNERS[planner](twin, radio, 20, sites)
        b = _PLANNERS[planner](net, _RADIO, 20.0, None)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.sojourns, b.sojourns)
        np.testing.assert_array_equal(a.collected, b.collected)

    def test_depot_mismatch_rejected(self):
        net = _GEN.uniform(30, seed=1)
        moved = SensorNetwork(positions=net.positions, volumes=net.volumes,
                              depot=net.depot + 1.0, region=net.region)
        with pytest.raises(InvalidParameterError, match="depot"):
            plan_algorithm3(moved, _ENERGY, _RADIO, 20.0, 2,
                            sites=build_hovering_sites(net, _RADIO, 20.0))
