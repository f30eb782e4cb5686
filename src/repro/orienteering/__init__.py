"""Orienteering-problem toolkit.

The paper proves the data-collection maximisation problem NP-hard by
reduction *from* orienteering (Theorem 1) and solves it by reduction *to*
orienteering on the auxiliary graph ``G_s`` (Algorithm 1).  The orienteering
problem: given node awards, symmetric edge costs, a depot and a budget, find
a closed tour through the depot maximising collected award with tour cost
within budget.

Solvers provided (see DESIGN.md substitution S1 for why these replace the
Bansal et al. 3-approximation):

* :mod:`repro.orienteering.exact` — subset DP, the optimality oracle
  (n <= ~14),
* :mod:`repro.orienteering.greedy` — deterministic best-ratio insertion,
* :mod:`repro.orienteering.local_search` — add/drop/replace/2-opt polishing,
* :mod:`repro.orienteering.grasp` — randomised multi-start wrapper,
* :mod:`repro.orienteering.solver` — facade picking exact vs GRASP by size.

All solvers support optional *conflict groups* — sets of mutually exclusive
nodes — which Algorithm 1 uses to enforce the paper's "no hovering-coverage
overlapping" assumption.
"""

from repro.orienteering.problem import (OrienteeringInstance,
                                        OrienteeringSolution)
from repro.orienteering.exact import solve_exact
from repro.orienteering.greedy import solve_greedy
from repro.orienteering.local_search import improve_solution
from repro.orienteering.grasp import solve_grasp
from repro.orienteering.solver import solve_orienteering

__all__ = [
    "OrienteeringInstance",
    "OrienteeringSolution",
    "solve_exact",
    "solve_greedy",
    "improve_solution",
    "solve_grasp",
    "solve_orienteering",
]
