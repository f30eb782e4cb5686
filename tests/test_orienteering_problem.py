"""Unit tests for repro.orienteering.problem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import pairwise_distances
from repro.orienteering.problem import (SYMMETRY_TILE, OrienteeringInstance,
                                        make_solution)
from repro.utils.errors import InvalidParameterError


@pytest.fixture
def instance(rng):
    pts = rng.uniform(0, 100, (8, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, 8)
    awards[0] = 0.0
    return OrienteeringInstance(costs=costs, awards=awards,
                                budget=300.0, depot=0)


class TestConstruction:
    def test_basic(self, instance):
        assert instance.n_nodes == 8

    def test_rejects_asymmetric_costs(self):
        costs = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1], budget=10.0)

    def test_rejects_negative_awards(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, -1, 2], budget=10.0)

    def test_rejects_award_shape_mismatch(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1], budget=10.0)

    def test_rejects_bad_depot(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1, 2],
                                 budget=10.0, depot=3)

    def test_rejects_negative_budget(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1, 2], budget=-1.0)

    def test_conflict_group_index_validated(self, rng):
        costs = pairwise_distances(rng.uniform(0, 10, (3, 2)))
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=[0, 1, 2], budget=10.0,
                                 conflict_groups=[np.array([1, 9])])


class TestStreamedValidation:
    """The tiled cost checks against their dense definition.

    The checks stream ``(n, n)`` matrices tile by tile, so these tests use
    n > 512 and put the single fault in the last, partial tile — which
    the small-matrix tests above never reach.
    """

    N = 600
    LAST_TILE = (N // SYMMETRY_TILE) * SYMMETRY_TILE

    def _symmetric(self, seed, scale):
        a = np.random.default_rng(seed).random((self.N, self.N)) * scale
        return (a + a.T) / 2.0

    def _accepts(self, costs):
        try:
            OrienteeringInstance(costs=costs, awards=np.zeros(self.N),
                                 budget=1.0)
        except InvalidParameterError as exc:
            assert str(exc) == "costs must be symmetric"
            return False
        return True

    @given(seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 1.0, 1e3, 1e7]),
           factor=st.sampled_from([0.5, 0.999, 1.001, 2.0]),
           sign=st.sampled_from([1.0, -1.0]),
           i=st.integers(LAST_TILE, N - 1), j=st.integers(0, N - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_check_agrees_with_allclose(self, seed, scale, factor,
                                                 sign, i, j):
        costs = self._symmetric(seed, scale)
        if i != j:
            tol = 1e-9 + 1e-5 * costs[j, i]
            costs[i, j] = max(costs[j, i] + sign * factor * tol, 0.0)
        expected = bool(np.allclose(costs, costs.T, atol=1e-9))
        assert self._accepts(costs) == expected
        assert self._accepts(costs.T.copy()) == expected
        if i != j and sign > 0:
            assert expected == (factor < 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-12])
    def test_rejects_non_finite_or_negative_costs(self, bad):
        costs = self._symmetric(0, 1.0)
        i, j = self.N - 1, self.LAST_TILE
        costs[i, j] = costs[j, i] = bad
        with pytest.raises(InvalidParameterError,
                           match=r"^costs must be finite and >= 0$"):
            OrienteeringInstance(costs=costs, awards=np.zeros(self.N),
                                 budget=1.0)

    def test_conflict_list_faults_keep_their_messages(self):
        def build(lists):
            OrienteeringInstance(costs=np.zeros((4, 4)), awards=np.zeros(4),
                                 budget=1.0, conflict_neighbor_lists=lists)

        build([[], [3, 2, 3], [1], [1]])             # duplicates are fine
        with pytest.raises(InvalidParameterError,
                           match=r"^conflict neighbors not symmetric: "
                                 r"1 lists 2 but not vice versa$"):
            build([[], [3, 2], [], [1]])
        with pytest.raises(InvalidParameterError,
                           match=r"^node 2 lists itself as a conflict "
                                 r"neighbor$"):
            build([[], [], [2], []])
        with pytest.raises(InvalidParameterError,
                           match=r"^conflict neighbor index out of range$"):
            build([[], [4], [], []])


class TestEvaluation:
    def test_tour_cost(self, instance):
        tour = [0, 3, 5]
        expected = (instance.costs.matrix[0, 3] + instance.costs.matrix[3, 5]
                    + instance.costs.matrix[5, 0])
        assert instance.tour_cost(tour) == pytest.approx(expected)

    def test_tour_award(self, instance):
        tour = [0, 3, 5]
        assert instance.tour_award(tour) == pytest.approx(
            instance.awards[3] + instance.awards[5])

    def test_empty_tour_zero(self, instance):
        assert instance.tour_award([]) == 0.0
        assert instance.tour_cost([]) == 0.0

    def test_block_is_row_column_subset(self, instance):
        matrix = instance.costs.matrix
        idx, cols = np.array([3, 0, 3]), np.array([7, 1, 1, 5])
        block = instance.costs.block(idx, cols)
        assert block.tobytes() == matrix[idx][:, cols].tobytes()
        block += 1.0                                  # a fresh copy
        assert instance.costs.block(idx, cols).tobytes() \
            == matrix[idx][:, cols].tobytes()
        assert instance.costs.block([2], []).shape == (1, 0)


class TestFeasibility:
    def test_depot_only_feasible(self, instance):
        assert instance.is_feasible([0])

    def test_must_start_at_depot(self, instance):
        assert not instance.is_feasible([1, 0])

    def test_budget_enforced(self, instance):
        tight = OrienteeringInstance(costs=instance.costs,
                                     awards=instance.awards,
                                     budget=1e-6, depot=0)
        assert not tight.is_feasible([0, 1])

    def test_empty_tour_infeasible(self, instance):
        assert not instance.is_feasible([])

    def test_duplicate_node_raises(self, instance):
        with pytest.raises(InvalidParameterError):
            instance.is_feasible([0, 1, 1])


class TestConflicts:
    @pytest.fixture
    def conflicted(self, rng):
        pts = rng.uniform(0, 100, (6, 2))
        return OrienteeringInstance(
            costs=pairwise_distances(pts),
            awards=[0.0, 1, 2, 3, 4, 5],
            budget=1e6, depot=0,
            conflict_groups=[np.array([1, 2]), np.array([3, 4, 5])])

    def test_single_member_ok(self, conflicted):
        assert conflicted.conflicts_ok([0, 1, 3])

    def test_two_from_pair_violates(self, conflicted):
        assert not conflicted.conflicts_ok([0, 1, 2])

    def test_two_from_triple_violates(self, conflicted):
        assert not conflicted.conflicts_ok([0, 4, 5])

    def test_node_conflicts_with(self, conflicted):
        assert conflicted.node_conflicts_with(2, [0, 1])
        assert not conflicted.node_conflicts_with(3, [0, 1])

    def test_is_feasible_includes_conflicts(self, conflicted):
        assert not conflicted.is_feasible([0, 1, 2])

    def test_no_groups_always_ok(self, instance):
        assert instance.conflicts_ok([0, 1, 2, 3])
        assert not instance.node_conflicts_with(4, [0, 1])


class TestSolutionRecord:
    def test_make_solution_computes_metrics(self, instance):
        sol = make_solution(instance, [0, 2, 4], "test")
        assert sol.award == pytest.approx(instance.tour_award([0, 2, 4]))
        assert sol.cost == pytest.approx(instance.tour_cost([0, 2, 4]))
        assert sol.method == "test"
        assert sol.n_visited == 3

    def test_solution_tour_is_array(self, instance):
        sol = make_solution(instance, [0, 1], "t")
        assert isinstance(sol.tour, np.ndarray)
