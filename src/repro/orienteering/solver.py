"""Solver facade: pick the right orienteering backend for the instance.

``method="auto"`` (the default) uses the exact subset DP when the instance
is small enough to verify optimality and GRASP otherwise — so small unit
tests get exact answers for free while the planners scale.
"""

from __future__ import annotations

from repro.obs.tracer import span
from repro.orienteering.exact import MAX_EXACT_NODES, solve_exact
from repro.orienteering.grasp import solve_grasp
from repro.orienteering.greedy import solve_greedy
from repro.orienteering.problem import OrienteeringInstance, OrienteeringSolution
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import SeedLike

#: "auto" switches from exact DP to GRASP above this node count.
AUTO_EXACT_THRESHOLD = 13


def solve_orienteering(instance: OrienteeringInstance, *,
                       method: str = "auto",
                       seed: SeedLike = None,
                       n_restarts: int = 8,
                       rcl_size: int = 3) -> OrienteeringSolution:
    """Solve an orienteering instance with the chosen backend.

    Parameters
    ----------
    instance:
        The problem.
    method:
        ``"auto"``, ``"exact"``, ``"grasp"``, or ``"greedy"``.
    seed, n_restarts, rcl_size:
        Passed through to GRASP when applicable.

    Returns
    -------
    OrienteeringSolution
        Always budget-feasible; the depot-only tour when nothing fits.
    """
    with span("orienteering.solve", method=method, n_nodes=instance.n_nodes):
        if method == "auto":
            if instance.n_nodes <= AUTO_EXACT_THRESHOLD:
                return solve_exact(instance)
            return solve_grasp(instance, n_restarts=n_restarts,
                               rcl_size=rcl_size, seed=seed)
        if method == "exact":
            if instance.n_nodes > MAX_EXACT_NODES:
                raise InvalidParameterError(
                    f"exact method limited to {MAX_EXACT_NODES} nodes, "
                    f"instance has {instance.n_nodes}")
            return solve_exact(instance)
        if method == "grasp":
            return solve_grasp(instance, n_restarts=n_restarts,
                               rcl_size=rcl_size, seed=seed)
        if method == "greedy":
            return solve_greedy(instance)
    raise InvalidParameterError(
        f"unknown orienteering method {method!r}; "
        "expected 'auto', 'exact', 'grasp', or 'greedy'")


__all__ = ["solve_orienteering", "AUTO_EXACT_THRESHOLD"]
