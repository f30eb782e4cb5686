"""GRASP metaheuristic for orienteering.

Greedy Randomised Adaptive Search Procedure: *n_restarts* iterations of
(randomised greedy construction → local search), keeping the best feasible
solution found.  The first restart is always the *deterministic* greedy
construction so GRASP provably never returns a worse solution than
:func:`repro.orienteering.greedy.solve_greedy` followed by local search.

Randomness is a pre-drawn **tape** (:func:`~repro.orienteering._vector.
draw_rng_tape`): restart ``r`` replays row ``r - 1``, so restarts are
independent, replayable one at a time, and — via ``tape_nodes`` — drawn
against the *original* node count even when the instance was shrunk by a
site reduction.  Identical constructions are deduplicated (local search
is a pure function of the tour) and restart-level work counters are
returned on ``solution.stats`` for the ``meta["perf"]`` contract.

This is the library's large-instance orienteering solver and the stand-in
for the Bansal et al. 3-approximation (DESIGN.md substitution S1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.orienteering._vector import draw_rng_tape, greedy_fill
from repro.orienteering.greedy import randomized_construct, solve_greedy
from repro.orienteering.local_search import improve_solution
from repro.orienteering.problem import (OrienteeringInstance,
                                        OrienteeringSolution, make_solution)
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_integer

#: The ``grasp.*`` work counters every solve reports (``solution.stats``).
GRASP_STAT_NAMES = ("restarts", "constructions", "constructions_deduped",
                    "ls_rounds", "ls_moves", "warm_starts", "warm_improved")


def better_solution(sol: OrienteeringSolution,
                    best: Optional[OrienteeringSolution]) -> bool:
    """GRASP's acceptance order: award first, cost as strict tie-break."""
    return best is None or sol.award > best.award + 1e-12 or (
        abs(sol.award - best.award) <= 1e-12 and sol.cost < best.cost - 1e-9)


def polish_constructions(instance: OrienteeringInstance,
                         constructions: Iterable[np.ndarray], *,
                         local_search: bool = True,
                         warm_tour: Optional[np.ndarray] = None
                         ) -> OrienteeringSolution:
    """Dedup, polish, and select over an ordered construction stream.

    GRASP's back half: identical constructions run local search once
    (it is a pure function of the tour), the best solution is kept in
    stream order, and the optional *warm_tour* is polished last —
    replacing the winner only on strict improvement.  Work counters land
    on ``solution.stats``.
    """
    counts = dict.fromkeys(GRASP_STAT_NAMES, 0)
    polished: Dict[bytes, OrienteeringSolution] = {}

    def evaluate(tour: np.ndarray) -> OrienteeringSolution:
        key = tour.astype(np.int64, copy=False).tobytes()
        cached = polished.get(key)
        if cached is not None:
            # Local search is a pure function of the tour, so replaying
            # it on an identical construction is pure waste.
            counts["constructions_deduped"] += 1
            return cached
        counts["constructions"] += 1
        if local_search:
            sol = improve_solution(instance, tour)
            ls = sol.stats or {}
            counts["ls_rounds"] += ls.get("rounds", 0)
            counts["ls_moves"] += ls.get("moves", 0)
        else:
            sol = make_solution(instance, tour, "construct")
        polished[key] = sol
        return sol

    best: Optional[OrienteeringSolution] = None
    for tour in constructions:
        counts["restarts"] += 1
        sol = evaluate(tour)
        if better_solution(sol, best):
            best = sol
    if warm_tour is not None and len(warm_tour):
        counts["warm_starts"] += 1
        warm = evaluate(np.asarray(warm_tour, dtype=int))
        if better_solution(warm, best):
            counts["warm_improved"] += 1
            best = warm
    assert best is not None
    # Sorted keys: the parallel executor canonicalises records through
    # sorted-key JSON, so emit the same order here for bitwise ledgers.
    stats = {name: int(counts[name]) for name in sorted(counts)}
    return OrienteeringSolution(tour=best.tour, award=best.award,
                                cost=best.cost, method="grasp", stats=stats)


def warm_tour_from_nodes(instance: OrienteeringInstance,
                         nodes) -> Optional[np.ndarray]:
    """Grow a feasible warm-start tour restricted to the hinted *nodes*.

    The δ-continuation entry point: *nodes* are the finer grid's nearest
    candidates to a coarser grid's tour stops, and the warm tour is the
    plain deterministic ratio-greedy construction with every *other*
    node blocked — budget- and conflict-feasible by construction no
    matter what the geometric projection produced.  Returns ``None``
    when no hinted node fits (the caller then just runs cold).
    """
    idx = np.unique(np.asarray(nodes, dtype=int))
    if idx.size == 0:
        return None
    if idx.min() < 0 or idx.max() >= instance.n_nodes:
        raise InvalidParameterError(
            f"warm node index out of range [0, {instance.n_nodes})")
    blocked = np.ones(instance.n_nodes, dtype=bool)
    blocked[idx] = False
    tour = greedy_fill(instance, np.array([instance.depot]),
                       blocked=blocked)
    return tour if len(tour) > 1 else None


def resolve_tape_nodes(instance: OrienteeringInstance,
                       tape_nodes: Optional[int]) -> int:
    """Validate a ``tape_nodes`` override (default: the instance's own)."""
    if tape_nodes is None:
        return instance.n_nodes
    return check_integer(tape_nodes, "tape_nodes",
                         minimum=instance.n_nodes)


def solve_grasp(instance: OrienteeringInstance, *, n_restarts: int = 8,
                rcl_size: int = 3, seed: SeedLike = None,
                local_search: bool = True,
                tape_nodes: Optional[int] = None,
                warm_tour: Optional[np.ndarray] = None
                ) -> OrienteeringSolution:
    """Solve via GRASP.

    Parameters
    ----------
    instance:
        The orienteering instance.
    n_restarts:
        Total construction attempts (>= 1).  Restart 0 is deterministic
        greedy; restarts 1.. are randomised.
    rcl_size:
        Restricted-candidate-list size for the randomised constructions.
    seed:
        RNG seed for reproducibility.
    local_search:
        Apply the add/drop/replace/2-opt polish after each construction.
    tape_nodes:
        Node count the RNG tape is sized for (default: the instance's
        own).  Pass the *original* pre-reduction count so restarts on a
        reduced instance replay the exact same tape as unreduced runs.
    warm_tour:
        Optional extra starting tour (e.g. a coarser δ-grid's projected
        solution) polished *after* the restarts; it replaces the restart
        winner only on strict improvement, so a non-improving warm start
        leaves the result bitwise unchanged.
    """
    n_restarts = check_integer(n_restarts, "n_restarts", minimum=1)
    check_integer(rcl_size, "rcl_size", minimum=1)
    tape = draw_rng_tape(as_rng(seed), n_restarts,
                         resolve_tape_nodes(instance, tape_nodes))

    def constructions() -> Iterable[np.ndarray]:
        yield solve_greedy(instance).tour
        for restart in range(1, n_restarts):
            yield randomized_construct(instance, rcl_size=rcl_size,
                                       tape=tape[restart - 1])

    return polish_constructions(instance, constructions(),
                                local_search=local_search,
                                warm_tour=warm_tour)


__all__ = ["solve_grasp", "polish_constructions", "better_solution",
           "resolve_tape_nodes", "warm_tour_from_nodes", "GRASP_STAT_NAMES"]
