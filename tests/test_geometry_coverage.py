"""Unit tests for repro.geometry.coverage."""

import numpy as np
import pytest

from repro.geometry.coverage import (
    CoverageIndex,
    coverage_matrix,
    coverage_sets_bruteforce,
    projected_radius,
)
from repro.utils.errors import InvalidParameterError


class TestProjectedRadius:
    def test_ground_level(self):
        assert projected_radius(50.0, 0.0) == 50.0

    def test_pythagorean(self):
        assert projected_radius(5.0, 3.0) == pytest.approx(4.0)

    def test_altitude_equals_range(self):
        assert projected_radius(10.0, 10.0) == 0.0

    def test_altitude_above_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            projected_radius(10.0, 10.1)

    def test_negative_altitude_rejected(self):
        with pytest.raises(InvalidParameterError):
            projected_radius(10.0, -1.0)

    def test_non_positive_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            projected_radius(0.0, 0.0)


class TestBruteforceReference:
    def test_simple_coverage(self):
        sets = coverage_sets_bruteforce([[0, 0]], [[1, 0], [10, 0]], radius=2.0)
        np.testing.assert_array_equal(sets[0], [0])

    def test_boundary_is_covered(self):
        # The paper uses <= throughout: distance exactly R0 counts.
        sets = coverage_sets_bruteforce([[0, 0]], [[3, 4]], radius=5.0)
        np.testing.assert_array_equal(sets[0], [0])

    def test_just_outside_not_covered(self):
        sets = coverage_sets_bruteforce([[0, 0]], [[3, 4.001]], radius=5.0)
        assert len(sets[0]) == 0

    def test_no_sensors(self):
        sets = coverage_sets_bruteforce([[0, 0]], np.empty((0, 2)), radius=5.0)
        assert len(sets) == 1 and len(sets[0]) == 0


class TestCoverageMatrix:
    def test_shape(self, rng):
        cands = rng.uniform(0, 100, (6, 2))
        sensors = rng.uniform(0, 100, (9, 2))
        assert coverage_matrix(cands, sensors, 20.0).shape == (6, 9)

    def test_matches_bruteforce(self, rng):
        cands = rng.uniform(0, 100, (15, 2))
        sensors = rng.uniform(0, 100, (25, 2))
        # Candidates far outside the field cover nothing; sensors exactly
        # R0 = 18 from a candidate (axis offsets, exact in floating
        # point) are covered.
        cands = np.vstack([cands, [[500.0, 500.0], [-300.0, 40.0],
                                   [50.0, 50.0], [20.0, 80.0]]])
        sensors = np.vstack([sensors, [[68.0, 50.0], [50.0, 32.0],
                                       [2.0, 80.0]]])
        mat = coverage_matrix(cands, sensors, 18.0)
        ref = coverage_sets_bruteforce(cands, sensors, 18.0)
        assert mat.shape == (19, 28)
        for i in range(19):
            np.testing.assert_array_equal(np.flatnonzero(mat[i]), ref[i])
        assert not mat[15].any() and not mat[16].any()
        assert mat[17, 25] and mat[17, 26] and mat[18, 27]
        # Only the candidates that cover nothing: an all-False matrix.
        none = coverage_matrix(cands[15:17], sensors, 18.0)
        assert none.shape == (2, 28) and not none.any()

    def test_empty_sensors(self):
        mat = coverage_matrix([[0, 0]], np.empty((0, 2)), 5.0)
        assert mat.shape == (1, 0)

    def test_empty_candidates(self):
        mat = coverage_matrix(np.empty((0, 2)), [[0, 0]], 5.0)
        assert mat.shape == (0, 1)


class TestCoverageIndex:
    def test_covered_by_matches_bruteforce(self, rng):
        sensors = rng.uniform(0, 100, (30, 2))
        cands = rng.uniform(0, 100, (12, 2))
        idx = CoverageIndex(sensors, 22.0)
        ref = coverage_sets_bruteforce(cands, sensors, 22.0)
        got = idx.covered_by(cands)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)

    def test_covered_by_single(self, rng):
        sensors = rng.uniform(0, 100, (20, 2))
        idx = CoverageIndex(sensors, 25.0)
        point = [50.0, 50.0]
        single = idx.covered_by_single(point)
        bulk = idx.covered_by([point])[0]
        np.testing.assert_array_equal(single, bulk)

    def test_covering_candidates_mask(self, rng):
        sensors = np.array([[10.0, 10.0]])
        idx = CoverageIndex(sensors, 5.0)
        mask = idx.covering_candidates([[10, 12], [50, 50]])
        np.testing.assert_array_equal(mask, [True, False])

    def test_len(self, rng):
        assert len(CoverageIndex(rng.uniform(0, 10, (7, 2)), 1.0)) == 7

    def test_empty_index(self):
        idx = CoverageIndex(np.empty((0, 2)), 5.0)
        assert len(idx) == 0
        assert len(idx.covered_by_single([0, 0])) == 0
        assert not idx.covering_candidates([[0, 0]])[0]

    def test_sensors_view_readonly(self, rng):
        idx = CoverageIndex(rng.uniform(0, 10, (5, 2)), 1.0)
        with pytest.raises(ValueError):
            idx.sensors[0, 0] = 99.0

    def test_matrix_agrees_with_module_function(self, rng):
        sensors = rng.uniform(0, 100, (10, 2))
        cands = rng.uniform(0, 100, (4, 2))
        idx = CoverageIndex(sensors, 30.0)
        mat = np.zeros((4, 10), dtype=bool)
        for row, hits in enumerate(idx.covered_by(cands)):
            mat[row, hits] = True
        np.testing.assert_array_equal(mat,
                                      coverage_matrix(cands, sensors, 30.0))
