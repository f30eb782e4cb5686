"""Travelling-salesman toolkit.

Algorithms 2 and 3 call ``TSP(S_j)`` — the length of a closed tour over the
current hovering-location set — inside their selection loop, and both the
paper's Algorithm 2/3 and its benchmark baseline specify **Christofides'
algorithm** for that tour.  This subpackage implements Christofides from
scratch (MST + minimum-weight perfect matching on odd-degree vertices +
Eulerian shortcutting) along with the cheaper constructions and local
search the fast planner mode uses.  It needs numpy and scipy only: the
matching is a dense-array port of the blossom algorithm networkx runs,
and the Euler walk follows networkx's traversal order, so every tour
equals the networkx-built one (networkx is the tests' oracle):

* :mod:`repro.tsp.length` — tour representation helpers and length math,
* :mod:`repro.tsp.construct` — nearest-neighbour and cheapest-insertion,
* :mod:`repro.tsp.matching` — minimum-weight perfect matching (blossom),
* :mod:`repro.tsp.christofides` — the 1.5-approximation,
* :mod:`repro.tsp.improve` — 2-opt and Or-opt local search,
* :mod:`repro.tsp.exact` — Held–Karp dynamic program (test oracle, n <= 13).

All functions operate on a symmetric distance matrix and index tours
(permutations of ``range(n)``); closed tours are implicit (last node links
back to the first).
"""

from repro.tsp.length import tour_length_matrix, validate_tour, rotate_to_start, tour_edges
from repro.tsp.construct import (
    nearest_neighbor_tour,
    cheapest_insertion_tour,
    insertion_delta,
    best_insertion,
)
from repro.tsp.matching import min_weight_perfect_matching
from repro.tsp.christofides import christofides_tour
from repro.tsp.improve import two_opt, or_opt
from repro.tsp.exact import held_karp

__all__ = [
    "tour_length_matrix",
    "validate_tour",
    "rotate_to_start",
    "tour_edges",
    "nearest_neighbor_tour",
    "cheapest_insertion_tour",
    "insertion_delta",
    "best_insertion",
    "min_weight_perfect_matching",
    "christofides_tour",
    "two_opt",
    "or_opt",
    "held_karp",
]
