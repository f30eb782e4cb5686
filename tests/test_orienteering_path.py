"""Tests for path orienteering and the dummy-depot equivalence (paper Alg. 1)."""

import numpy as np
import pytest

from repro.geometry.distance import pairwise_distances
from repro.orienteering.exact import solve_exact
from repro.orienteering.problem import OrienteeringInstance
from repro.utils.errors import InvalidParameterError
from tests.path_orienteering import (
    augment_with_dummy_depot,
    path_to_tour,
    solve_path_exact,
    tour_to_path,
)


def make_instance(rng, n=7, budget=None, groups=None):
    pts = rng.uniform(0, 100, (n, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, n)
    awards[0] = 0.0
    if budget is None:
        budget = rng.uniform(120, 320)
    return OrienteeringInstance(costs=costs, awards=awards, budget=budget,
                                depot=0, conflict_groups=groups)


class TestAugmentation:
    def test_dummy_mirrors_depot_edges(self, rng):
        inst = make_instance(rng)
        aug, dummy = augment_with_dummy_depot(inst)
        assert dummy == inst.n_nodes
        np.testing.assert_allclose(aug.costs.matrix[dummy, :dummy],
                                   inst.costs.matrix[0, :])
        assert aug.costs.matrix[0, dummy] == 0.0
        assert aug.awards[dummy] == 0.0

    def test_augmented_is_valid_instance(self, rng):
        inst = make_instance(rng)
        aug, _ = augment_with_dummy_depot(inst)
        assert aug.n_nodes == inst.n_nodes + 1
        assert aug.budget == inst.budget

    def test_conflicts_carry_over(self, rng):
        inst = make_instance(rng, groups=[np.array([1, 2])])
        aug, dummy = augment_with_dummy_depot(inst)
        assert aug.node_conflicts_with(2, [0, 1])
        assert not aug.node_conflicts_with(dummy, [0, 1, 2])


class TestPathSolver:
    def test_path_endpoints(self, rng):
        inst = make_instance(rng)
        path, award = solve_path_exact(inst, 0, 3)
        assert path[0] == 0 and path[-1] == 3

    def test_path_within_budget(self, rng):
        inst = make_instance(rng)
        path, _ = solve_path_exact(inst, 0, 3)
        cost = sum(inst.costs.matrix[a, b] for a, b in zip(path, path[1:]))
        assert cost <= inst.budget + 1e-9

    def test_award_matches_path(self, rng):
        inst = make_instance(rng)
        path, award = solve_path_exact(inst, 0, 3)
        assert award == pytest.approx(float(inst.awards[path].sum()))

    def test_same_endpoints_rejected(self, rng):
        inst = make_instance(rng)
        with pytest.raises(InvalidParameterError):
            solve_path_exact(inst, 2, 2)

    def test_infeasible_endpoints_raise(self, rng):
        inst = make_instance(rng, budget=1e-9)
        with pytest.raises(InvalidParameterError):
            solve_path_exact(inst, 0, 3)

    def test_direct_hop_when_budget_tight(self, rng):
        inst = make_instance(rng)
        tight = OrienteeringInstance(costs=inst.costs, awards=inst.awards,
                                     budget=float(inst.costs.matrix[0, 3]) + 1e-6,
                                     depot=0)
        path, _ = solve_path_exact(tight, 0, 3)
        np.testing.assert_array_equal(path, [0, 3])


class TestEquivalence:
    """The paper's reduction: d -> d' paths == closed tours through d."""

    @pytest.mark.parametrize("seed", range(6))
    def test_path_award_equals_tour_award(self, seed):
        rng = np.random.default_rng(seed)
        inst = make_instance(rng, n=7)
        aug, dummy = augment_with_dummy_depot(inst)
        path, path_award = solve_path_exact(aug, inst.depot, dummy)
        tour_sol = solve_exact(inst)
        assert path_award == pytest.approx(tour_sol.award)

    @pytest.mark.parametrize("seed", range(3))
    def test_path_collapses_to_feasible_tour(self, seed):
        rng = np.random.default_rng(50 + seed)
        inst = make_instance(rng, n=7)
        aug, dummy = augment_with_dummy_depot(inst)
        path, _ = solve_path_exact(aug, inst.depot, dummy)
        tour = path_to_tour(path, dummy)
        assert inst.is_feasible(tour)

    def test_round_trip_path_tour(self, rng):
        inst = make_instance(rng)
        aug, dummy = augment_with_dummy_depot(inst)
        tour = np.array([0, 2, 4])
        path = tour_to_path(tour, dummy)
        np.testing.assert_array_equal(path_to_tour(path, dummy), tour)

    def test_path_cost_equals_tour_cost(self, rng):
        # A d -> d' path in the augmented graph costs exactly the closed
        # tour's cost (the dummy mirrors the depot's edges).
        inst = make_instance(rng)
        aug, dummy = augment_with_dummy_depot(inst)
        tour = np.array([0, 2, 4])
        path = tour_to_path(tour, dummy)
        path_cost = sum(aug.costs.matrix[a, b] for a, b in zip(path, path[1:]))
        assert path_cost == pytest.approx(inst.tour_cost(tour))

    def test_equivalence_with_conflicts(self, rng):
        inst = make_instance(rng, n=6, budget=1e6,
                             groups=[np.array([1, 2])])
        aug, dummy = augment_with_dummy_depot(inst)
        path, path_award = solve_path_exact(aug, 0, dummy)
        tour_sol = solve_exact(inst)
        assert path_award == pytest.approx(tour_sol.award)
        assert len(set(path_to_tour(path, dummy)) & {1, 2}) <= 1
