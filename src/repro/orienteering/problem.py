"""Orienteering instance and solution dataclasses.

An instance is a complete undirected graph given by symmetric edge
costs, per-node awards, a depot index, and a budget.  A feasible solution
is a closed tour (sequence of distinct node indices beginning at the depot)
whose total edge cost is at most the budget; its value is the sum of the
awards of the visited nodes.

The costs are a *cost operator* (:class:`CostOperator`): every solver
reads them only through ``rows``, ``block``, ``pair`` and ``tour_cost``.
A plain ``(n, n)`` matrix is wrapped in :class:`DenseCosts`; Algorithm 1 passes
the auxiliary graph's on-demand Eq. 9 weights
(:class:`repro.core.auxgraph.W2Costs`), which never materialise the
matrix.

Optional *conflict groups* mark sets of nodes of which at most one may be
visited — used by Algorithm 1 to enforce non-overlapping hovering coverage
and by the partial-collection reduction tests.  Conflicts can also come as
per-node neighbour lists; a :class:`ConflictLists` holds such lists
validated once, and an instance takes it without checking it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, List, Optional, Protocol, Sequence,
                    runtime_checkable)

import numpy as np

from repro.tsp.length import tour_length_matrix, validate_tour
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import check_non_negative


#: Tile edge of the cost-symmetry check: a 128 x 128 tile pair
#: (2 x 128 KB of float64) stays cache-resident, which measured ~1.7x
#: faster than 512 x 512 tiles on a fig3-reduced auxiliary graph.
SYMMETRY_TILE = 128


@runtime_checkable
class CostOperator(Protocol):
    """Symmetric non-negative edge costs over nodes ``0..n_nodes-1``.

    ``rows`` returns a fresh ``(len(idx), n_nodes)`` array (callers may
    modify it in place) and ``block`` the fresh ``(len(idx), len(cols))``
    array of the same rows restricted to columns *cols*, without
    gathering whole rows; ``pair`` is elementwise over broadcast index
    arrays; ``check`` raises :class:`InvalidParameterError` unless every
    cost is finite, ``>= 0`` and symmetric.  Kernels read column ``v``
    of the cost matrix as row ``v``, which symmetry makes the same
    numbers.
    """

    @property
    def n_nodes(self) -> int: ...

    def check(self) -> None: ...

    def rows(self, idx) -> np.ndarray: ...

    def block(self, idx, cols) -> np.ndarray: ...

    def pair(self, i, j) -> Any: ...

    def tour_cost(self, tour) -> float: ...


def _check_costs(costs: np.ndarray) -> None:
    """Reject a cost matrix that is not finite, ``>= 0`` and symmetric.

    Streams the matrix without an ``(n, n)`` temporary: the sign and
    finiteness test is one ``min``/``max`` reduction (NaN propagates
    through both), and symmetry is checked tile pair by tile pair.  For
    finite ``a, b >= 0`` the two directions of
    ``np.allclose(costs, costs.T, atol=1e-9)`` at an element pair combine
    to exactly ``|a - b| <= 1e-9 + 1e-5 * min(a, b)``, so this accepts
    precisely the matrices ``allclose`` accepts.
    """
    if costs.size and not (costs.min() >= 0.0 and costs.max() < np.inf):
        raise InvalidParameterError("costs must be finite and >= 0")
    n, tile = costs.shape[0], SYMMETRY_TILE
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            a = costs[i:i + tile, j:j + tile]
            b = costs[j:j + tile, i:i + tile].T
            if not (np.abs(a - b) <= 1e-9 + 1e-5 * np.minimum(a, b)).all():
                raise InvalidParameterError("costs must be symmetric")


class DenseCosts:
    """:class:`CostOperator` over an explicit ``(n, n)`` matrix.

    The generic toolkit's adapter (exact DP, tests, small hand-built
    instances): :meth:`check` runs the streamed finite/sign/symmetry
    scan of the whole matrix.
    """

    def __init__(self, matrix) -> None:
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        if matrix.ndim != 2 or matrix.shape != (n, n):
            raise InvalidParameterError(
                f"costs must be square, got shape {matrix.shape}")
        self.matrix = matrix

    @property
    def n_nodes(self) -> int:
        return len(self.matrix)

    def check(self) -> None:
        _check_costs(self.matrix)

    def rows(self, idx) -> np.ndarray:
        return self.matrix[idx]

    def block(self, idx, cols) -> np.ndarray:
        return self.matrix[np.ix_(np.asarray(idx, dtype=np.intp),
                                  np.asarray(cols, dtype=np.intp))]

    def pair(self, i, j) -> Any:
        return self.matrix[i, j]

    def tour_cost(self, tour) -> float:
        return tour_length_matrix(tour, self.matrix)


def _conflict_lists(raw: Sequence) -> List[np.ndarray]:
    """Validate *raw* neighbor lists as one edge set; return them canonical.

    Every entry ``u`` of ``raw[v]`` becomes one int64 pair key
    ``v * n + u``, so the range and self-conflict checks run over all
    entries at once, one sort makes every list sorted and unique, and the
    relation is symmetric exactly when the reversed keys ``u * n + v``
    form the same sorted set.  Entries must be integers (an integral
    float counts, as in :func:`~repro.utils.validation.check_integer`);
    anything else — ``2.7``, NaN, infinities, booleans — is rejected, not
    truncated.
    """
    n = len(raw)
    arrays = [np.asarray(nb).ravel() for nb in raw]
    # Empty lists arrive as float64 arrays; only entries are typed.
    kinds = {a.dtype.kind for a in arrays if len(a)}
    bad = next((a for a in arrays if len(a) and a.dtype.kind not in "iuf"),
               None)
    lengths = np.fromiter(map(len, arrays), dtype=np.int64, count=n)
    src = np.repeat(np.arange(n, dtype=np.int64), lengths)
    dst = (np.concatenate(arrays) if n and bad is None
           else np.empty(0, dtype=np.int64))
    if bad is None and "f" in kinds:
        bad = dst[~(np.isfinite(dst) & (dst == np.trunc(dst)))]
    if bad is not None and len(bad):
        value = bad[0]
        if isinstance(value, np.generic):
            value = value.item()
        raise InvalidParameterError(
            f"conflict neighbor entries must be integers, got {value!r}")
    if len(dst) and (dst.min() < 0 or dst.max() >= n):
        raise InvalidParameterError("conflict neighbor index out of range")
    dst = dst.astype(np.int64, copy=False)
    loops = np.flatnonzero(src == dst)
    if len(loops):
        raise InvalidParameterError(
            f"node {src[loops[0]]} lists itself as a conflict neighbor")
    # Sort + adjacent dedupe: np.unique measured ~25x slower on these keys.
    keys = np.sort(src * n + dst)
    forward = keys[np.diff(keys, prepend=-1) != 0]
    src, dst = np.divmod(forward, n)
    reverse = dst * n + src
    if not np.array_equal(np.sort(reverse), forward):
        bad = int(np.flatnonzero(~np.isin(reverse, forward))[0])
        raise InvalidParameterError(
            f"conflict neighbors not symmetric: {src[bad]} lists "
            f"{dst[bad]} but not vice versa")
    # Views sliced at each node's row bounds: np.split took ~3.5x as long.
    # They share one read-only buffer, so none can be made writeable.
    dst.flags.writeable = False
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    return [dst[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class ConflictLists(tuple):
    """Per-node conflict neighbour arrays, validated once and immutable.

    ``ConflictLists(raw)`` runs the full check of the raw per-node lists
    (every index in range, no node listing itself, the relation
    symmetric; :class:`InvalidParameterError` otherwise) and holds the
    canonical result: one sorted, duplicate-free, read-only int64 array
    per node.  Being a tuple of read-only arrays, it cannot change after
    that check, so :class:`OrienteeringInstance` takes it as it is; any
    other sequence of lists is checked on every construction.
    """

    __slots__ = ()

    def __new__(cls, raw: Sequence) -> "ConflictLists":
        return super().__new__(cls, _conflict_lists(raw))


@dataclass
class OrienteeringInstance:
    """A budget-constrained award-collection tour problem.

    Attributes
    ----------
    costs:
        Symmetric non-negative edge costs: a :class:`CostOperator`, or an
        ``(n, n)`` matrix (wrapped in :class:`DenseCosts`).  For
        Algorithm 1 these are the paper's ``w2`` energy weights, so "tour
        cost" is exactly "tour energy".  Validated by ``costs.check()``
        on every construction.
    awards:
        Length-``n`` non-negative node awards (``p(s_j)``; MB for Alg. 1).
    budget:
        Maximum tour cost (the UAV battery capacity ``E`` for Alg. 1).
    depot:
        Index of the mandatory start/end node.
    conflict_groups:
        Optional list of index arrays; at most one node from each group may
        appear on a tour.
    conflict_neighbor_lists:
        Alternative conflict encoding: one array per node listing the
        nodes it may not share a tour with (must be symmetric).  More
        compact than pairwise groups when conflicts are dense — this is
        what Algorithm 1 passes for overlapping hovering coverage.
        Stored as a :class:`ConflictLists`: one passed in is kept as it
        is, any other sequence is validated into one.  Mutually
        exclusive with ``conflict_groups``.
    """

    costs: Any
    awards: np.ndarray
    budget: float
    depot: int = 0
    conflict_groups: Optional[List[np.ndarray]] = None
    conflict_neighbor_lists: Optional[Sequence[np.ndarray]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.costs, CostOperator):
            self.costs = DenseCosts(self.costs)
        self.costs.check()
        n = self.costs.n_nodes
        self.awards = np.asarray(self.awards, dtype=float)
        if self.awards.shape != (n,):
            raise InvalidParameterError(
                f"awards must have shape ({n},), got {self.awards.shape}")
        if not np.isfinite(self.awards).all() or (self.awards < 0).any():
            raise InvalidParameterError("awards must be finite and >= 0")
        check_non_negative(self.budget, "budget")
        if not (0 <= self.depot < n):
            raise InvalidParameterError(
                f"depot {self.depot} out of range [0, {n})")
        if (self.conflict_groups is not None
                and self.conflict_neighbor_lists is not None):
            raise InvalidParameterError(
                "pass conflict_groups or conflict_neighbor_lists, not both")
        self._neighbors: Optional[Sequence[np.ndarray]] = None
        if self.conflict_groups is not None:
            groups = []
            neighbor_sets: List[set] = [set() for _ in range(n)]
            for g in self.conflict_groups:
                arr = np.unique(np.asarray(g, dtype=int))
                if len(arr) and (arr.min() < 0 or arr.max() >= n):
                    raise InvalidParameterError("conflict group index out of range")
                groups.append(arr)
                members = [int(v) for v in arr]
                for v in members:
                    neighbor_sets[v].update(u for u in members if u != v)
            self.conflict_groups = groups
            self._neighbors = [
                np.fromiter(sorted(s), dtype=int) if s else np.empty(0, dtype=int)
                for s in neighbor_sets]
        elif self.conflict_neighbor_lists is not None:
            lists = self.conflict_neighbor_lists
            if len(lists) != n:
                raise InvalidParameterError(
                    f"conflict_neighbor_lists must have {n} entries")
            if not isinstance(lists, ConflictLists):
                lists = ConflictLists(lists)
            self.conflict_neighbor_lists = lists
            self._neighbors = lists

    @property
    def n_nodes(self) -> int:
        """Number of nodes including the depot."""
        return self.costs.n_nodes

    @property
    def conflict_lists(self) -> Optional[Sequence[np.ndarray]]:
        """Per-node conflict neighbor arrays, or None when unconstrained.

        The canonical arrays built at construction — shared, not copied;
        callers must treat them as read-only.
        """
        return self._neighbors

    def tour_cost(self, tour) -> float:
        """Total edge cost of the closed *tour*."""
        return self.costs.tour_cost(np.asarray(tour, dtype=int))

    def tour_award(self, tour) -> float:
        """Total award of the visited nodes."""
        arr = np.asarray(tour, dtype=int)
        return float(self.awards[arr].sum()) if len(arr) else 0.0

    def neighbors_of(self, node: int) -> np.ndarray:
        """Nodes that may not share a tour with *node* (empty if none)."""
        if self._neighbors is None:
            return np.empty(0, dtype=int)
        return self._neighbors[int(node)]

    @property
    def has_conflicts(self) -> bool:
        """True when any conflict constraint is configured."""
        return self._neighbors is not None

    def conflicts_ok(self, tour) -> bool:
        """True when no two mutually-conflicting nodes are both on *tour*."""
        if self._neighbors is None:
            return True
        on_tour = set(int(v) for v in np.asarray(tour, dtype=int))
        for v in on_tour:
            nb = self._neighbors[v]
            if len(nb) and any(int(u) in on_tour for u in nb):
                return False
        return True

    def node_conflicts_with(self, node: int, tour) -> bool:
        """True when adding *node* to *tour* would violate a conflict."""
        if self._neighbors is None:
            return False
        nb = self._neighbors[int(node)]
        if not len(nb):
            return False
        on_tour = set(int(v) for v in np.asarray(tour, dtype=int))
        return any(int(u) in on_tour for u in nb)

    def is_feasible(self, tour, *, tol: float = 1e-6) -> bool:
        """Full feasibility check: validity, depot, budget, conflicts."""
        arr = validate_tour(tour, self.n_nodes)
        if len(arr) == 0 or arr[0] != self.depot:
            return False
        if self.tour_cost(arr) > self.budget + tol:
            return False
        return self.conflicts_ok(arr)


@dataclass(frozen=True)
class OrienteeringSolution:
    """A solver's output: the tour, its award, cost, and provenance tag.

    ``stats`` carries optional solver-side work counters (GRASP restart
    accounting, local-search rounds); it never participates in equality
    so two solutions with the same tour/award/cost still compare equal.
    """

    tour: np.ndarray
    award: float
    cost: float
    method: str = ""
    stats: Optional[Dict[str, int]] = field(default=None, compare=False,
                                            repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tour", np.asarray(self.tour, dtype=int))

    @property
    def n_visited(self) -> int:
        """Number of nodes on the tour (depot included)."""
        return len(self.tour)


def make_solution(instance: OrienteeringInstance, tour, method: str,
                  stats: Optional[Dict[str, int]] = None
                  ) -> OrienteeringSolution:
    """Build a solution record with award/cost computed from *instance*."""
    arr = np.asarray(tour, dtype=int)
    return OrienteeringSolution(tour=arr,
                                award=instance.tour_award(arr),
                                cost=instance.tour_cost(arr),
                                method=method, stats=stats)


__all__ = ["ConflictLists", "CostOperator", "DenseCosts",
           "OrienteeringInstance", "OrienteeringSolution", "make_solution",
           "SYMMETRY_TILE"]
