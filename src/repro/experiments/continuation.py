"""δ-continuation: chain a δ sweep's cells coarse→fine with warm starts.

A δ sweep (Fig. 4) re-plans the *same* instance on ever finer hovering
grids, and each finer grid's solution tends to trace the same physical
corridor as the coarser one.  ``run_sweep(..., delta_continuation=True)``
exploits that: each Algorithm 1 spec's cells are planned per instance in
**descending δ order** (coarse first), and every finer cell receives two
warm payloads derived from the coarser cell's finished tour:

* ``corridor_seed`` — the coarse tour's hover points, consumed by the
  :class:`~repro.experiments.artifacts.ArtifactCache` to warm-start an
  ``aggressive`` reduction's TSP-corridor stage (the corridor follows
  where the coarse tour actually went instead of a set-cover guess);
* ``warm_nodes`` — the finer grid's nearest candidate site to each
  coarse stop (:func:`project_warm_nodes`), from which
  :func:`~repro.core.algorithm1.plan_algorithm1` grows a feasible warm
  tour and polishes it *after* the GRASP restarts, keeping it only on
  strict improvement.

With the reduction off or ``safe`` the candidate geometry is untouched,
so a continuation cell's volume can never drop below its cold-start
value — the warm tour competes through the same strict-improvement
acceptance as every restart.  This module holds the pure helpers; a
chain is one of the three work-unit kinds of
:mod:`repro.experiments.runner`, planned by its ``execute_unit`` in
process or inside a pool worker.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.hovering import HoveringSites
from repro.experiments.config import ExperimentConfig
from repro.geometry.distance import cross_distances

#: The planner method δ-continuation knows how to chain.
CHAINABLE_METHODS = ("algorithm1",)


def continuation_order(param_values: Sequence[float]) -> List[int]:
    """Cell indices in planning order: coarse (largest δ) first.

    Stable for duplicate values (earlier cell first), so the chain — and
    every warm payload handed down it — is deterministic.
    """
    return sorted(range(len(param_values)),
                  key=lambda i: (-float(param_values[i]), i))


def chainable_spec(config: ExperimentConfig, spec: Any,
                   param_values: Sequence[float],
                   make_kwargs: Callable[[ExperimentConfig, float, Any],
                                         Dict[str, Any]]) -> bool:
    """True when *spec*'s cells form one δ-continuation chain.

    Chainable means: the method is Algorithm 1 (the only planner with a
    warm-start entry point), every cell's kwargs are JSON data (a pool
    ships chain units to workers as JSON), each cell's ``delta``
    *is* the swept value (this is a δ sweep), and the caller did not
    already pass warm payloads of their own.
    """
    if spec.method not in CHAINABLE_METHODS or not len(param_values):
        return False
    for value in param_values:
        try:
            kwargs = make_kwargs(config, value, spec)
            json.dumps(kwargs)
        except TypeError:
            return False
        if kwargs.get("delta") != value:
            return False
        if "warm_nodes" in kwargs or "corridor_seed" in kwargs:
            return False
    return True


def project_warm_nodes(coarse_points: Sequence[Sequence[float]],
                       sites: HoveringSites) -> Optional[List[int]]:
    """The finer grid's node ids nearest to each coarse tour stop.

    *coarse_points* are the coarser cell's non-depot hover points in
    visit order; each maps to its nearest candidate in *sites* (the
    finer — possibly reduced — grid), ``+1`` for the depot node, with
    order-preserving dedup.  Feasibility is **not** checked here: the
    planner grows the actual warm tour through the conflict- and
    budget-aware greedy fill
    (:func:`repro.orienteering.grasp.warm_tour_from_nodes`).
    """
    pts = np.asarray(coarse_points, dtype=float)
    if pts.size == 0 or sites.n_sites == 0:
        return None
    nearest = np.argmin(cross_distances(pts, sites.points), axis=1)
    nodes: List[int] = []
    seen = set()
    for s in nearest:
        node = int(s) + 1
        if node not in seen:
            seen.add(node)
            nodes.append(node)
    return nodes


def tour_seed_points(tour: Any) -> List[List[float]]:
    """A finished cell's warm payload: its non-depot hover points.

    Plain nested lists so the payload is JSON data — it crosses the
    parallel worker boundary inside chain units and joins the artifact
    cache key byte-for-byte identically in every process.
    """
    points = np.asarray(tour.points, dtype=float)
    return [[float(x), float(y)] for x, y in points[1:]]


__all__ = ["CHAINABLE_METHODS", "chainable_spec", "continuation_order",
           "project_warm_nodes", "tour_seed_points"]
