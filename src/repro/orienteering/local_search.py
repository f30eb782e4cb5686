"""Local search for orienteering solutions.

Operator rotation applied until a fixed point:

* **shorten** — 2-opt the tour under the cost matrix.  Never changes the
  award but frees budget, enabling further insertions.
* **add** — vectorised best-ratio feasible insertions to exhaustion.
* **swap** — replace one on-tour node by a higher-award off-tour node in
  the same position when budget-feasible.
* **drop-readd** — remove the worst-ratio node, refill greedily; kept only
  when the final award strictly improves.

The accepted rounds strictly improve (award, then cost), so the search
terminates.
"""

from __future__ import annotations

import numpy as np

from repro.orienteering._vector import drop_worst, greedy_fill, swap_pass
from repro.orienteering.problem import OrienteeringInstance, OrienteeringSolution, make_solution
from repro.tsp.improve import two_opt


def _shorten(instance: OrienteeringInstance, tour: np.ndarray) -> np.ndarray:
    """2-opt the tour, rotated back to depot-first.

    Runs on the tour's ``k x k`` cost submatrix over local labels
    ``0..k-1``: 2-opt reads costs only between tour nodes and moves
    positions, so mapping the result back through *tour* gives the same
    tour as 2-opt over the full matrix.
    """
    k = len(tour)
    if k < 4:
        return tour
    local = two_opt(np.arange(k), instance.costs.rows(tour)[:, tour])
    shortened = tour[local]
    start = int(np.flatnonzero(shortened == instance.depot)[0])
    return np.roll(shortened, -start)


def _drop_readd(instance: OrienteeringInstance, tour: np.ndarray) -> np.ndarray:
    """Drop the worst-ratio node, refill greedily; keep only if better."""
    base_award = instance.tour_award(tour)
    reduced, removed = drop_worst(instance, tour)
    if removed < 0:
        return tour
    cand = greedy_fill(instance, reduced)
    if instance.tour_award(cand) > base_award + 1e-12:
        return cand
    return tour


def improve_solution(instance: OrienteeringInstance,
                     tour, *, max_rounds: int = 30) -> OrienteeringSolution:
    """Run the operator rotation on *tour* until no round improves.

    Parameters
    ----------
    instance:
        The orienteering instance.
    tour:
        A feasible starting tour (depot-first).
    max_rounds:
        Safety bound on improvement rounds.
    """
    cur = np.asarray(tour, dtype=int)
    rounds = moves = 0
    for _ in range(max_rounds):
        before_award = instance.tour_award(cur)
        before_cost = instance.tour_cost(cur)
        cur = _shorten(instance, cur)
        cur = greedy_fill(instance, cur)
        cur = swap_pass(instance, cur)
        cur = _drop_readd(instance, cur)
        after_award = instance.tour_award(cur)
        after_cost = instance.tour_cost(cur)
        rounds += 1
        if (after_award <= before_award + 1e-12
                and after_cost >= before_cost - 1e-9):
            break
        moves += 1
    return make_solution(instance, cur, "local-search",
                         stats={"rounds": rounds, "moves": moves})


__all__ = ["improve_solution"]
