"""Tests for the conflict-neighbor-list encoding on OrienteeringInstance."""

from collections.abc import Sequence
from unittest import mock

import numpy as np
import pytest

from repro.geometry.distance import pairwise_distances
from repro.orienteering import problem
from repro.orienteering.exact import solve_exact
from repro.orienteering.greedy import solve_greedy
from repro.orienteering.problem import ConflictLists, OrienteeringInstance
from repro.utils.errors import InvalidParameterError


def base(rng, n=6):
    pts = rng.uniform(0, 100, (n, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, n)
    awards[0] = 0.0
    return costs, awards


def neighbor_lists(n, pairs):
    lists = [set() for _ in range(n)]
    for a, b in pairs:
        lists[a].add(b)
        lists[b].add(a)
    return [np.array(sorted(s), dtype=int) for s in lists]


class TestConflictListsContainer:
    """Validated once into immutable read-only arrays, then taken as is."""

    def test_canonical_and_a_sequence(self):
        lists = ConflictLists([[], [3, 2, 3], [1], [1]])
        assert isinstance(lists, Sequence) and len(lists) == 4
        assert [nb.tolist() for nb in lists] == [[], [2, 3], [1], [1]]
        assert all(nb.dtype == np.int64 for nb in lists)
        assert ConflictLists([]) == ()

    def test_cannot_be_mutated(self):
        lists = ConflictLists([[], [2], [1]])
        with pytest.raises(TypeError):
            lists[1] = np.array([0])           # type: ignore[index]
        with pytest.raises(AttributeError):
            lists.note = "x"                   # type: ignore[attr-defined]
        for nb in lists:
            assert not nb.flags.writeable
        with pytest.raises(ValueError):
            lists[1][0] = 0
        with pytest.raises(ValueError):
            lists[1].flags.writeable = True

    @pytest.mark.parametrize("raw, match", [
        ([[], [2], []], "not symmetric"),
        ([[], [1], []], "lists itself"),
        ([[], [3], []], "out of range")])
    def test_validated_on_construction(self, raw, match):
        with pytest.raises(InvalidParameterError, match=match):
            ConflictLists(raw)

    @pytest.mark.parametrize("entry", [2.7, float("nan"), float("inf"),
                                       True],
                             ids=["fraction", "nan", "inf", "bool"])
    def test_non_integer_entries_rejected(self, entry):
        # Cast with np.asarray(nb, dtype=np.int64), node 1's entry 2.7
        # was read as node 2 (and the relation then passed as symmetric).
        with pytest.raises(InvalidParameterError,
                           match=f"^conflict neighbor entries must be "
                                 f"integers, got {entry!r}$"):
            ConflictLists([[], [entry], [1]])

    def test_integer_entries_of_any_kind_accepted(self):
        lists = ConflictLists([np.empty(0, dtype=np.int32), [2.0],
                               np.array([1], dtype=np.uint8)])
        assert [nb.tolist() for nb in lists] == [[], [2], [1]]
        assert all(nb.dtype == np.int64 for nb in lists)

    def test_instance_takes_the_container_unchecked(self, rng):
        costs, awards = base(rng)
        lists = ConflictLists(neighbor_lists(6, [(1, 2), (3, 4)]))
        with mock.patch.object(problem, "_conflict_lists") as validator:
            inst = OrienteeringInstance(costs=costs, awards=awards,
                                        budget=1.0,
                                        conflict_neighbor_lists=lists)
        validator.assert_not_called()
        assert inst.conflict_lists is lists
        assert inst.conflict_neighbor_lists is lists

    def test_instance_validates_raw_lists_into_a_container(self, rng):
        costs, awards = base(rng)
        with mock.patch.object(problem, "_conflict_lists",
                               wraps=problem._conflict_lists) as validator:
            inst = OrienteeringInstance(
                costs=costs, awards=awards, budget=1.0,
                conflict_neighbor_lists=neighbor_lists(6, [(1, 2)]))
        assert validator.call_count == 1
        assert isinstance(inst.conflict_lists, ConflictLists)

    def test_container_of_wrong_length_rejected(self, rng):
        costs, awards = base(rng)
        with pytest.raises(InvalidParameterError, match="must have 6 entries"):
            OrienteeringInstance(costs=costs, awards=awards, budget=1.0,
                                 conflict_neighbor_lists=ConflictLists(
                                     [[], [2], [1]]))


class TestNeighborListConstruction:
    def test_accepted_and_queriable(self, rng):
        costs, awards = base(rng)
        inst = OrienteeringInstance(
            costs=costs, awards=awards, budget=1e6,
            conflict_neighbor_lists=neighbor_lists(6, [(1, 2), (3, 4)]))
        assert inst.has_conflicts
        np.testing.assert_array_equal(inst.neighbors_of(1), [2])
        np.testing.assert_array_equal(inst.neighbors_of(4), [3])
        assert len(inst.neighbors_of(5)) == 0

    def test_both_encodings_rejected(self, rng):
        costs, awards = base(rng)
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(
                costs=costs, awards=awards, budget=1.0,
                conflict_groups=[np.array([1, 2])],
                conflict_neighbor_lists=neighbor_lists(6, [(1, 2)]))

    def test_wrong_length_rejected(self, rng):
        costs, awards = base(rng)
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=awards, budget=1.0,
                                 conflict_neighbor_lists=[np.empty(0, int)])

    def test_self_conflict_rejected(self, rng):
        costs, awards = base(rng)
        lists = neighbor_lists(6, [])
        lists[2] = np.array([2])
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=awards, budget=1.0,
                                 conflict_neighbor_lists=lists)

    def test_asymmetric_rejected(self, rng):
        costs, awards = base(rng)
        lists = neighbor_lists(6, [])
        lists[1] = np.array([2])  # 2 does not list 1 back
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=awards, budget=1.0,
                                 conflict_neighbor_lists=lists)

    def test_out_of_range_rejected(self, rng):
        costs, awards = base(rng)
        lists = neighbor_lists(6, [])
        lists[1] = np.array([9])
        with pytest.raises(InvalidParameterError):
            OrienteeringInstance(costs=costs, awards=awards, budget=1.0,
                                 conflict_neighbor_lists=lists)

    @pytest.mark.parametrize("entry", [2.7, float("nan"), float("inf")],
                             ids=["fraction", "nan", "inf"])
    def test_non_integer_entries_rejected(self, rng, entry):
        costs, awards = base(rng)
        lists = [nb.tolist() for nb in neighbor_lists(6, [(1, 2)])]
        lists[1] = [entry]
        with pytest.raises(InvalidParameterError, match="must be integers"):
            OrienteeringInstance(costs=costs, awards=awards, budget=1.0,
                                 conflict_neighbor_lists=lists)

    def test_no_conflicts_helpers(self, rng):
        costs, awards = base(rng)
        inst = OrienteeringInstance(costs=costs, awards=awards, budget=1.0)
        assert not inst.has_conflicts
        assert len(inst.neighbors_of(0)) == 0


class TestEncodingEquivalence:
    """Pairwise groups and neighbor lists must constrain identically."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_solver_agrees(self, seed):
        rng = np.random.default_rng(seed)
        costs, awards = base(rng, n=7)
        pairs = [(1, 2), (3, 4), (2, 5)]
        budget = rng.uniform(150, 350)
        by_groups = OrienteeringInstance(
            costs=costs, awards=awards, budget=budget,
            conflict_groups=[np.array(p) for p in pairs])
        by_lists = OrienteeringInstance(
            costs=costs, awards=awards, budget=budget,
            conflict_neighbor_lists=neighbor_lists(7, pairs))
        a = solve_exact(by_groups)
        b = solve_exact(by_lists)
        assert a.award == pytest.approx(b.award)

    def test_greedy_agrees(self, rng):
        costs, awards = base(rng, n=7)
        pairs = [(1, 2), (3, 4)]
        by_groups = OrienteeringInstance(
            costs=costs, awards=awards, budget=1e6,
            conflict_groups=[np.array(p) for p in pairs])
        by_lists = OrienteeringInstance(
            costs=costs, awards=awards, budget=1e6,
            conflict_neighbor_lists=neighbor_lists(7, pairs))
        a = solve_greedy(by_groups)
        b = solve_greedy(by_lists)
        assert a.award == pytest.approx(b.award)

    def test_group_of_three_decomposes_to_pairs(self, rng):
        costs, awards = base(rng, n=6)
        group = OrienteeringInstance(
            costs=costs, awards=awards, budget=1e6,
            conflict_groups=[np.array([1, 2, 3])])
        pair_list = OrienteeringInstance(
            costs=costs, awards=awards, budget=1e6,
            conflict_neighbor_lists=neighbor_lists(
                6, [(1, 2), (1, 3), (2, 3)]))
        a = solve_exact(group)
        b = solve_exact(pair_list)
        assert a.award == pytest.approx(b.award)
        # At most one of {1,2,3} on either tour.
        assert len(set(a.tour) & {1, 2, 3}) <= 1
        assert len(set(b.tour) & {1, 2, 3}) <= 1
