"""Unit tests for repro.core.hovering."""

import numpy as np
import pytest

from repro.core.auxgraph import overlap_conflicts
from repro.core.hovering import build_hovering_sites
from repro.geometry.grid import GridPartition
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
