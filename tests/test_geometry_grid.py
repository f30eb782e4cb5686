"""Unit tests for repro.geometry.grid."""

import numpy as np
import pytest

from repro.core.hovering import build_hovering_sites
from repro.geometry.grid import MAX_SQUARES, GridPartition
from repro.geometry.region import Region
from repro.network.sensor_network import SensorNetwork
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError
from tests.oracles import candidate_centers


@pytest.fixture
def grid():
    return GridPartition(Region.square(100.0), delta=10.0)


class TestConstruction:
    def test_dimensions_exact_fit(self, grid):
        assert grid.nrows == 10 and grid.ncols == 10
        assert grid.num_squares == 100

    def test_dimensions_ceil_on_partial_fit(self):
        g = GridPartition(Region.square(105.0), delta=10.0)
        assert g.nrows == 11 and g.ncols == 11

    def test_rejects_non_positive_delta(self):
        with pytest.raises(InvalidParameterError):
            GridPartition(Region.square(100.0), delta=0.0)

    def test_rejects_absurd_delta(self):
        with pytest.raises(InvalidParameterError):
            GridPartition(Region.square(100.0), delta=5000.0)

    def test_rejects_delta_below_the_floor(self):
        # 400000 x 400000 centres would be a 1.16 TiB meshgrid.
        with pytest.raises(InvalidParameterError, match="squares"):
            GridPartition(Region.square(400.0), 1e-3)

    def test_floor_is_the_square_count(self):
        width = MAX_SQUARES // 1000
        assert GridPartition(Region(0, width, 0, 1000), 1.0).num_squares \
            == MAX_SQUARES
        with pytest.raises(InvalidParameterError):
            GridPartition(Region(0, width + 1, 0, 1000), 1.0)

    def test_single_square_region(self):
        g = GridPartition(Region.square(100.0), delta=100.0)
        assert g.num_squares == 1
        np.testing.assert_allclose(g.centers(), [[50.0, 50.0]])

    def test_rectangular_region(self):
        g = GridPartition(Region(0, 30, 0, 20), delta=10.0)
        assert g.ncols == 3 and g.nrows == 2


class TestCenters:
    def test_count(self, grid):
        assert grid.centers().shape == (100, 2)

    def test_first_center(self, grid):
        np.testing.assert_allclose(grid.centers()[0], [5.0, 5.0])

    def test_last_center(self, grid):
        np.testing.assert_allclose(grid.centers()[-1], [95.0, 95.0])

    def test_row_major_order(self, grid):
        c = grid.centers()
        # Second entry advances along x (column), not y.
        np.testing.assert_allclose(c[1], [15.0, 5.0])
        # Entry ncols advances along y (row).
        np.testing.assert_allclose(c[10], [5.0, 15.0])

    def test_all_centers_distinct(self, grid):
        c = grid.centers()
        assert len(np.unique(c, axis=0)) == len(c)


class TestFlatIndex:
    def test_roundtrip_center_to_index(self, grid):
        centers = grid.centers()
        idx = grid.flat_index(centers)
        np.testing.assert_array_equal(idx, np.arange(100))

    def test_point_maps_to_containing_square(self, grid):
        assert grid.flat_index([[12.0, 3.0]])[0] == 1
        assert grid.flat_index([[3.0, 12.0]])[0] == 10

    def test_outside_points_clamped(self, grid):
        assert grid.flat_index([[-50.0, -50.0]])[0] == 0
        assert grid.flat_index([[500.0, 500.0]])[0] == 99

    def test_center_of_inverse(self, grid):
        np.testing.assert_allclose(grid.center_of(0), [5.0, 5.0])
        np.testing.assert_allclose(grid.center_of(11), [15.0, 15.0])

    def test_center_of_rejects_out_of_range(self, grid):
        with pytest.raises(InvalidParameterError):
            grid.center_of(100)

    def test_center_of_vectorised(self, grid):
        out = grid.center_of([0, 11])
        assert out.shape == (2, 2)


def _candidates(grid, sensors, radius):
    """The pruned centres: the KD-tree oracle's, which the window build
    (:func:`build_hovering_sites` on *grid*) must reproduce bitwise."""
    want = candidate_centers(grid, sensors, radius)
    sensors = np.asarray(sensors, dtype=float).reshape(-1, 2)
    net = SensorNetwork(positions=sensors, volumes=np.ones(len(sensors)),
                        depot=[0.0, 0.0], region=grid.region)
    radio = RadioModel(bandwidth=1.0, transmission_range=radius,
                       altitude=0.0)
    got = build_hovering_sites(net, radio, grid.delta, grid=grid).points
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return got


class TestCandidateCenters:
    def test_prunes_far_squares(self, grid):
        # One sensor at the region corner: only nearby squares survive.
        cands = _candidates(grid, [[5.0, 5.0]], radius=10.0)
        assert 0 < len(cands) < grid.num_squares
        d = np.linalg.norm(cands - [5.0, 5.0], axis=1)
        assert (d <= 10.0).all()

    def test_no_sensors_no_candidates(self, grid):
        assert len(_candidates(grid, np.empty((0, 2)), radius=10.0)) == 0

    def test_huge_radius_keeps_all(self, grid):
        cands = _candidates(grid, [[50.0, 50.0]], radius=1000.0)
        assert len(cands) == grid.num_squares

    def test_every_kept_center_covers_a_sensor(self, grid, rng):
        sensors = rng.uniform(0, 100, (12, 2))
        cands = _candidates(grid, sensors, radius=15.0)
        for c in cands:
            assert np.min(np.linalg.norm(sensors - c, axis=1)) <= 15.0

    def test_every_sensor_covered_by_some_center_when_delta_small(self, grid, rng):
        # delta=10 <= radius=15: the square containing a sensor has its
        # centre within delta/sqrt(2) < radius, so coverage is guaranteed.
        sensors = rng.uniform(0, 100, (12, 2))
        cands = _candidates(grid, sensors, radius=15.0)
        for s in sensors:
            assert np.min(np.linalg.norm(cands - s, axis=1)) <= 15.0

    def test_rejects_bad_radius(self, grid):
        with pytest.raises(InvalidParameterError):
            _candidates(grid, [[5.0, 5.0]], radius=0.0)
