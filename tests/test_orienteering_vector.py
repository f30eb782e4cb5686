"""Direct unit tests for the vectorised orienteering kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxgraph import W2Costs
from repro.geometry.distance import pairwise_distances
from repro.orienteering import _vector
from repro.orienteering._vector import (
    all_insertion_deltas,
    conflict_neighbors,
    draw_rng_tape,
    drop_worst,
    greedy_fill,
    swap_pass,
)
from repro.orienteering.greedy import randomized_construct
from repro.orienteering.problem import DenseCosts, OrienteeringInstance
from repro.tsp.construct import insertion_delta
from repro.utils.errors import InvalidParameterError
from tests.oracles import (dead_edge_spy, full_insertion_deltas,
                          rescan_greedy_fill)


def make_instance(rng, n=9, budget=1e6, groups=None):
    pts = rng.uniform(0, 100, (n, 2))
    costs = pairwise_distances(pts)
    awards = rng.uniform(1, 10, n)
    awards[0] = 0.0
    return OrienteeringInstance(costs=costs, awards=awards, budget=budget,
                                depot=0, conflict_groups=groups)


class TestAllInsertionDeltas:
    def test_matches_scalar_reference(self, rng):
        inst = make_instance(rng)
        tour = np.array([0, 3, 6, 2])
        deltas, positions = all_insertion_deltas(tour, inst.costs)
        for v in range(inst.n_nodes):
            if v in tour:
                continue
            ref_delta, ref_pos = insertion_delta(tour, inst.costs.matrix, v)
            assert deltas[v] == pytest.approx(ref_delta)
            assert positions[v] == ref_pos

    def test_empty_tour(self, rng):
        inst = make_instance(rng)
        deltas, _ = all_insertion_deltas(np.empty(0, dtype=int), inst.costs)
        np.testing.assert_array_equal(deltas, 0.0)

    def test_singleton_tour(self, rng):
        inst = make_instance(rng)
        deltas, _ = all_insertion_deltas(np.array([0]), inst.costs)
        np.testing.assert_allclose(deltas, 2.0 * inst.costs.matrix[0])

    def test_positions_valid_range(self, rng):
        inst = make_instance(rng)
        tour = np.array([0, 4, 7])
        _, positions = all_insertion_deltas(tour, inst.costs)
        assert (positions >= 1).all() and (positions <= len(tour)).all()

    @pytest.mark.parametrize("w2", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 12])
    def test_column_subsets_match_full_scan(self, rng, w2, k):
        # Co-located points give exact ties between tour edges.
        pts = np.round(rng.uniform(0, 100, (15, 2)) / 20.0) * 20.0
        costs = (W2Costs(pts, rng.uniform(0, 30, 15), 2.0) if w2
                 else DenseCosts(pairwise_distances(pts)))
        tour = rng.permutation(15)[:k]
        ref_deltas, ref_positions = full_insertion_deltas(tour, costs)
        deltas, positions = all_insertion_deltas(tour, costs)
        assert deltas.tobytes() == ref_deltas.tobytes()
        assert np.array_equal(positions, ref_positions)
        cols = np.sort(rng.choice(15, 6, replace=False))
        deltas, positions = all_insertion_deltas(tour, costs, cols)
        assert deltas.tobytes() == ref_deltas[cols].tobytes()
        assert np.array_equal(positions, ref_positions[cols])


class TestGreedyFill:
    def test_grows_feasibly(self, rng):
        inst = make_instance(rng, budget=250.0)
        tour = greedy_fill(inst, np.array([0]))
        assert inst.is_feasible(tour)
        assert len(tour) >= 1

    def test_respects_blocked_mask(self, rng):
        inst = make_instance(rng, budget=1e6)
        blocked = np.zeros(inst.n_nodes, dtype=bool)
        blocked[3] = True
        tour = greedy_fill(inst, np.array([0]), blocked=blocked)
        assert 3 not in tour

    def test_zero_award_nodes_skipped(self, rng):
        inst = make_instance(rng, budget=1e6)
        tour = greedy_fill(inst, np.array([0]))
        # Node 0 is the depot (award 0); all others have positive award
        # and a huge budget, so everything else is included.
        assert len(tour) == inst.n_nodes

    def test_starting_tour_preserved(self, rng):
        inst = make_instance(rng, budget=1e6)
        start = np.array([0, 5])
        tour = greedy_fill(inst, start)
        assert tour[0] == 0 and 5 in tour

    def test_rcl_randomisation_feasible(self, rng):
        inst = make_instance(rng, budget=300.0)
        tour = greedy_fill(inst, np.array([0]),
                           rng=np.random.default_rng(3), rcl_size=3)
        assert inst.is_feasible(tour)


class TestSwapPass:
    def test_never_decreases_award(self, rng):
        inst = make_instance(rng, budget=280.0)
        tour = greedy_fill(inst, np.array([0]))
        swapped = swap_pass(inst, tour)
        assert inst.tour_award(swapped) >= inst.tour_award(tour) - 1e-9
        assert inst.is_feasible(swapped)

    def test_preserves_depot(self, rng):
        inst = make_instance(rng, budget=280.0)
        tour = greedy_fill(inst, np.array([0]))
        swapped = swap_pass(inst, tour)
        assert swapped[0] == 0

    def test_short_tour_unchanged(self, rng):
        inst = make_instance(rng)
        out = swap_pass(inst, np.array([0]))
        np.testing.assert_array_equal(out, [0])

    def test_finds_obvious_upgrade(self, rng):
        # Tour holds a low-award node; a colocated high-award node exists.
        pts = np.array([[0, 0], [10, 0], [10, 0.01], [90, 90]])
        costs = pairwise_distances(pts)
        inst = OrienteeringInstance(costs=costs,
                                    awards=[0.0, 1.0, 9.0, 2.0],
                                    budget=25.0, depot=0)
        swapped = swap_pass(inst, np.array([0, 1]))
        assert 2 in swapped and 1 not in swapped


class TestDropWorst:
    def test_removes_worst_ratio(self, rng):
        inst = make_instance(rng, budget=1e6)
        tour = greedy_fill(inst, np.array([0]))
        reduced, removed = drop_worst(inst, tour)
        assert removed in tour and removed not in reduced
        assert len(reduced) == len(tour) - 1

    def test_never_removes_depot(self, rng):
        inst = make_instance(rng, budget=1e6)
        tour = greedy_fill(inst, np.array([0]))
        reduced, _ = drop_worst(inst, tour)
        assert reduced[0] == 0

    def test_depot_only_no_op(self, rng):
        inst = make_instance(rng)
        reduced, removed = drop_worst(inst, np.array([0]))
        assert removed == -1
        np.testing.assert_array_equal(reduced, [0])


class TestConflictNeighbors:
    def test_none_when_unconstrained(self, rng):
        inst = make_instance(rng)
        assert conflict_neighbors(inst) is None

    def test_reflects_groups(self, rng):
        inst = make_instance(rng, groups=[np.array([1, 2, 3])])
        neigh = conflict_neighbors(inst)
        np.testing.assert_array_equal(sorted(neigh[1]), [2, 3])
        np.testing.assert_array_equal(sorted(neigh[2]), [1, 3])
        assert len(neigh[5]) == 0


def _oracle_instance(rng, n, cost_kind, conflicts, colocated, zero_award,
                     budget_kind):
    """A small instance rich in exact ties for the oracle property."""
    pts = rng.uniform(0, 100, (n, 2))
    if colocated:
        # Snap to a coarse lattice: many co-located nodes, equal deltas.
        pts = np.round(pts / 25.0) * 25.0
    if cost_kind == "dense":
        costs = pairwise_distances(pts)
    elif cost_kind == "dense-integer":
        # Symmetric small integers: non-metric (negative deltas) and tied.
        half = rng.integers(0, 6, (n, n)).astype(float)
        costs = np.triu(half, 1) + np.triu(half, 1).T
    else:
        w1 = rng.uniform(0, 40, n) * (rng.random(n) < 0.7)
        w1[0] = 0.0
        costs = W2Costs(pts, w1, float(rng.choice([0.0, 0.5, 3.0])))
    awards = rng.uniform(0, 10, n)
    if colocated:
        awards = np.round(awards)
    awards[rng.random(n) < zero_award] = 0.0
    awards[0] = 0.0
    groups = lists = None
    if conflicts == "groups":
        groups = [rng.choice(n, size=min(n, int(rng.integers(2, 5))),
                             replace=False) for _ in range(n // 5 + 1)]
    elif conflicts == "lists":
        sets = [set() for _ in range(n)]
        for a, b in rng.integers(0, n, (n // 2, 2)):
            if a != b:
                sets[a].add(int(b))
                sets[b].add(int(a))
        lists = [np.array(sorted(s), dtype=int) for s in sets]
    inst = OrienteeringInstance(costs=costs, awards=awards, budget=0.0,
                                depot=0, conflict_groups=groups,
                                conflict_neighbor_lists=lists)
    # Budgets relative to a tour through every node: from nothing fits
    # to everything fits.
    inst.budget = {"zero": 0.0, "tight": 0.2, "medium": 0.6,
                   "unbounded": 1e12}[budget_kind] * max(
                       inst.tour_cost(np.arange(n)), 1.0)
    return inst


class TestCachedConstructionOracle:
    """The live-candidate insertion cache is bitwise the full rescan."""

    @given(seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from(range(2, 25)),
           cost_kind=st.sampled_from(["dense", "dense-integer", "w2"]),
           conflicts=st.sampled_from(["none", "groups", "lists"]),
           colocated=st.booleans(),
           zero_award=st.sampled_from([0.0, 0.3]),
           budget_kind=st.sampled_from(["zero", "tight", "medium",
                                        "unbounded"]),
           start_len=st.integers(1, 3),
           block=st.booleans(),
           rcl_size=st.integers(1, 5),
           randomness=st.sampled_from(["none", "tape", "rng"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_rescan(self, seed, n, cost_kind, conflicts,
                                 colocated, zero_award, budget_kind,
                                 start_len, block, rcl_size, randomness):
        rng = np.random.default_rng(seed)
        inst = _oracle_instance(rng, n, cost_kind, conflicts, colocated,
                                zero_award, budget_kind)
        others = rng.permutation(np.arange(1, n))[:start_len - 1]
        start = np.concatenate([[0], others]).astype(int)
        kwargs = {"rcl_size": rcl_size}
        if block:
            kwargs["blocked"] = rng.random(n) < 0.25
        if randomness == "tape":
            kwargs["tape"] = draw_rng_tape(rng, 2, n)[0]
        cached = greedy_fill(
            inst, start, **kwargs,
            rng=np.random.default_rng(seed) if randomness == "rng" else None)
        oracle = rescan_greedy_fill(
            inst, start, **kwargs,
            rng=np.random.default_rng(seed) if randomness == "rng" else None)
        assert cached.dtype == oracle.dtype
        assert cached.tobytes() == oracle.tobytes()

    def test_zero_delta_and_tied_candidates(self):
        # Nodes 1-3 sit on the depot (zero delta, +inf ratio) and nodes
        # 4-5 share a point and an award (exact ratio tie).
        pts = np.array([[0, 0], [0, 0], [0, 0], [0, 0], [30, 40], [30, 40],
                        [60, 0]], dtype=float)
        inst = OrienteeringInstance(costs=pairwise_distances(pts),
                                    awards=[0, 1, 2, 1, 5, 5, 3],
                                    budget=120.0, depot=0)
        for rcl_size in (1, 2, 3):
            for u in (0.0, 0.5, 0.99):
                tape = np.full(6, u)
                cached = greedy_fill(inst, np.array([0]), tape=tape,
                                     rcl_size=rcl_size)
                oracle = rescan_greedy_fill(inst, np.array([0]), tape=tape,
                                            rcl_size=rcl_size)
                assert cached.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("cost_kind", ["dense", "w2"])
    def test_dead_edge_ties(self, cost_kind):
        """Lattice nodes with integer hover energies: candidates whose
        best edge an insertion destroys tie a new edge exactly
        (rescanned) or are beaten strictly (settled), and every
        construction still equals the full rescan's."""
        rng = np.random.default_rng(17)
        n = 40
        pts = rng.integers(0, 6, (n, 2)).astype(float) * 10.0
        if cost_kind == "dense":
            costs = DenseCosts(pairwise_distances(pts))
        else:
            costs = W2Costs(pts, rng.integers(0, 3, n) * 10.0, 1.0)
        awards = rng.integers(1, 4, n).astype(float)
        awards[0] = 0.0
        inst = OrienteeringInstance(costs=costs, awards=awards,
                                    budget=1e12, depot=0)
        with dead_edge_spy(_vector) as seen:
            for rcl_size in (1, 3):
                tape = draw_rng_tape(rng, 2, n)[0]
                cached = greedy_fill(inst, np.array([0]), tape=tape,
                                     rcl_size=rcl_size)
                oracle = rescan_greedy_fill(inst, np.array([0]), tape=tape,
                                            rcl_size=rcl_size)
                assert cached.tobytes() == oracle.tobytes()
        assert seen["tied"] > 0 and seen["settled"] > 0


class TestRngTapeValidation:
    """Malformed GRASP tapes raise instead of crashing or mis-picking."""

    @pytest.fixture
    def inst(self, rng):
        return make_instance(rng)              # 9 nodes, 8 insertable

    @pytest.mark.parametrize("construct", ["greedy_fill",
                                           "randomized_construct"])
    @pytest.mark.parametrize("tape, match", [
        (np.array([0.5]), "has 1 draws"),                    # IndexError
        (np.full(8, np.nan), r"finite and in \[0, 1\)"),     # ValueError
        (np.full((2, 8), 0.5), "must be 1-D"),               # TypeError
        (np.full(8, -0.25), r"finite and in \[0, 1\)"),      # last RCL entry
        (np.full(8, 1.0), r"finite and in \[0, 1\)"),
        (np.full(8, np.inf), r"finite and in \[0, 1\)"),
    ], ids=["short", "nan", "2-d", "negative", "one", "inf"])
    def test_bad_tape_rejected(self, inst, construct, tape, match):
        with pytest.raises(InvalidParameterError, match=match):
            if construct == "greedy_fill":
                greedy_fill(inst, np.array([0]), tape=tape, rcl_size=3)
            else:
                randomized_construct(inst, rcl_size=3, tape=tape)

    def test_drawn_tape_accepted(self, inst):
        tape = draw_rng_tape(np.random.default_rng(0), 2, inst.n_nodes)[0]
        assert len(tape) == inst.n_nodes - 1
        tour = randomized_construct(inst, rcl_size=3, tape=tape)
        assert inst.is_feasible(tour)

    def test_length_counts_insertable_nodes_only(self, inst):
        # Node 3 blocked and 5 on the start tour: 6 insertable nodes.
        blocked = np.zeros(inst.n_nodes, dtype=bool)
        blocked[3] = True
        start = np.array([0, 5])
        tour = greedy_fill(inst, start, tape=np.full(6, 0.5), rcl_size=2,
                           blocked=blocked)
        assert len(tour) == inst.n_nodes - 1
        with pytest.raises(InvalidParameterError, match="can insert 6"):
            greedy_fill(inst, start, tape=np.full(5, 0.5), rcl_size=2,
                        blocked=blocked)
