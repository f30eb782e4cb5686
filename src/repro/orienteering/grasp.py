"""GRASP metaheuristic for orienteering.

Greedy Randomised Adaptive Search Procedure: *n_restarts* iterations of
(randomised greedy construction → local search), keeping the best feasible
solution found.  The first restart is always the *deterministic* greedy
construction so GRASP provably never returns a worse solution than
:func:`repro.orienteering.greedy.solve_greedy` followed by local search.

Randomness is a pre-drawn **tape** (:func:`~repro.orienteering._vector.
draw_rng_tape`), sized by the instance's node count: restart ``r``
replays row ``r - 1``, so restarts are independent and replayable one at
a time.  Identical constructions are deduplicated (local search is a
pure function of the tour) and restart-level work counters are returned
on ``solution.stats`` for the ``meta["perf"]`` contract.

This is the library's large-instance orienteering solver and the stand-in
for the Bansal et al. 3-approximation (DESIGN.md substitution S1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.orienteering._vector import draw_rng_tape
from repro.orienteering.greedy import randomized_construct, solve_greedy
from repro.orienteering.local_search import improve_solution
from repro.orienteering.problem import (OrienteeringInstance,
                                        OrienteeringSolution, make_solution)
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_integer

#: The ``grasp.*`` work counters every solve reports (``solution.stats``).
GRASP_STAT_NAMES = ("restarts", "constructions", "constructions_deduped",
                    "ls_rounds", "ls_moves")


def better_solution(sol: OrienteeringSolution,
                    best: Optional[OrienteeringSolution]) -> bool:
    """GRASP's acceptance order: award first, cost as strict tie-break."""
    return best is None or sol.award > best.award + 1e-12 or (
        abs(sol.award - best.award) <= 1e-12 and sol.cost < best.cost - 1e-9)


def polish_constructions(instance: OrienteeringInstance,
                         constructions: Iterable[np.ndarray], *,
                         local_search: bool = True) -> OrienteeringSolution:
    """Dedup, polish, and select over an ordered construction stream.

    GRASP's back half: identical constructions run local search once
    (it is a pure function of the tour) and the best solution is kept in
    stream order.  Work counters land on ``solution.stats``.
    """
    counts = dict.fromkeys(GRASP_STAT_NAMES, 0)
    polished: Dict[bytes, OrienteeringSolution] = {}
    best: Optional[OrienteeringSolution] = None
    for tour in constructions:
        counts["restarts"] += 1
        key = tour.astype(np.int64, copy=False).tobytes()
        sol = polished.get(key)
        if sol is not None:
            # Local search is a pure function of the tour, so replaying
            # it on an identical construction is pure waste.
            counts["constructions_deduped"] += 1
        else:
            counts["constructions"] += 1
            if local_search:
                sol = improve_solution(instance, tour)
                ls = sol.stats or {}
                counts["ls_rounds"] += ls.get("rounds", 0)
                counts["ls_moves"] += ls.get("moves", 0)
            else:
                sol = make_solution(instance, tour, "construct")
            polished[key] = sol
        if better_solution(sol, best):
            best = sol
    assert best is not None
    # Sorted keys: the parallel executor canonicalises records through
    # sorted-key JSON, so emit the same order here for bitwise ledgers.
    stats = {name: int(counts[name]) for name in sorted(counts)}
    return OrienteeringSolution(tour=best.tour, award=best.award,
                                cost=best.cost, method="grasp", stats=stats)


def solve_grasp(instance: OrienteeringInstance, *, n_restarts: int = 8,
                rcl_size: int = 3, seed: SeedLike = None,
                local_search: bool = True) -> OrienteeringSolution:
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
    """
    n_restarts = check_integer(n_restarts, "n_restarts", minimum=1)
    check_integer(rcl_size, "rcl_size", minimum=1)
    tape = draw_rng_tape(as_rng(seed), n_restarts, instance.n_nodes)

    def constructions() -> Iterable[np.ndarray]:
        yield solve_greedy(instance).tour
        for restart in range(1, n_restarts):
            yield randomized_construct(instance, rcl_size=rcl_size,
                                       tape=tape[restart - 1])

    return polish_constructions(instance, constructions(),
                                local_search=local_search)


__all__ = ["solve_grasp", "polish_constructions", "better_solution",
           "GRASP_STAT_NAMES"]
