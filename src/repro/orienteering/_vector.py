"""Vectorised kernels shared by the orienteering heuristics.

All heavy per-candidate work — insertion deltas, ratio scoring, conflict
masking — is expressed as numpy operations over rows of the instance's
cost operator (:class:`~repro.orienteering.problem.CostOperator`), and
never needs more of the cost matrix than the tour's own rows.  The
greedy constructor (:func:`greedy_fill`) keeps a cheapest-insertion
cache over its live candidates: one scan of the tour's rows at their
columns when a call starts, then per insertion an O(|live|) comparison
against the two new tour edges plus a rescan of the few candidates
whose best edge the insertion destroyed and that no new edge beats
strictly — not a ``(|tour|, n)`` scan per step.

Randomised (GRASP) construction consumes a pre-drawn **RNG tape**: one
uniform ``[0, 1)`` draw per accepted insertion, mapped onto a
*sorted* restricted candidate list by :func:`rcl_pick`.  Because the
tape is drawn up front and the RCL is ordered by node index, each
restart (:func:`greedy_fill` on one tape row) is replayable on its own.
"""
# repro: hot-path

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.orienteering.problem import CostOperator, OrienteeringInstance
from repro.tsp.construct import repair_insertion_cache
from repro.utils.errors import InvalidParameterError


def all_insertion_deltas(tour: np.ndarray, costs: CostOperator,
                         cols: Optional[np.ndarray] = None,
                         edge_costs: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Cheapest insertion delta of *every* node into the closed *tour*.

    Returns ``(deltas, positions)`` of length ``n`` each — or, with
    *cols*, of the nodes *cols* only; ``positions[v]`` is the tour index
    before which node ``v`` would be inserted.  Entries for nodes already
    on the tour are meaningless (callers mask them).

    The scan gathers the tour's ``k`` cost rows once at the columns
    *cols* (:meth:`CostOperator.block`; column ``v`` of the symmetric
    matrix is row ``v``) and tie-breaks ``argmin`` at the first minimal
    tour position.  Each node's result is the same with or without
    *cols*.  *edge_costs*, when given, must be the tour's edge costs
    ``costs.pair(tour, np.roll(tour, -1))``; a caller that keeps them in
    step with the tour spares the scan re-evaluating them.
    """
    if cols is None:
        cols = np.arange(costs.n_nodes)
    n = len(cols)
    k = len(tour)
    if k == 0:
        return np.zeros(n), np.zeros(n, dtype=int)
    if k == 1:
        return 2.0 * costs.block(tour, cols)[0], np.ones(n, dtype=int)
    ring = np.concatenate((tour, tour[:1]))        # tour_i -> tour_{i+1}
    rows = costs.block(ring, cols)
    # cand[i, v] = c(tour_i, v) + c(v, tour_{i+1}) - edge_i
    cand = rows[:-1] + rows[1:]
    if edge_costs is None:
        edge_costs = costs.pair(ring[:-1], ring[1:])
    cand -= edge_costs[:, None]
    best = np.argmin(cand, axis=0)
    return cand[best, np.arange(n)], best + 1


def conflict_neighbors(instance: OrienteeringInstance
                       ) -> Optional[Sequence[np.ndarray]]:
    """Per-node arrays of conflicting nodes, or None when unconstrained.

    The instance precomputes these at construction, so this is O(1) —
    the canonical lists themselves, not a copy (treat them as read-only).
    """
    if not instance.has_conflicts:
        return None
    return instance.conflict_lists


def insertion_ratio(deltas: np.ndarray, awards: np.ndarray,
                    feasible: np.ndarray) -> np.ndarray:
    """Award-per-marginal-cost score; ``-inf`` off the feasible set.

    Zero-delta feasible insertions score ``+inf`` (free award).
    """
    with np.errstate(divide="ignore"):
        return np.where(
            feasible,
            np.where(deltas > 0, awards / np.maximum(deltas, 1e-300), np.inf),
            -np.inf)


def rcl_pick(ratio: np.ndarray, n_feasible: int, u: float,
             rcl_size: int) -> int:
    """The tape draw *u*'s pick from the sorted restricted candidate list.

    The RCL is the ``min(rcl_size, n_feasible)`` best-ratio candidates,
    ordered by **node index** (``argpartition`` returns them in no
    defined order).  ``u`` in ``[0, 1)`` indexes the list uniformly.
    """
    k = rcl_size if rcl_size < n_feasible else n_feasible
    top = np.sort(np.argpartition(-ratio, k - 1)[:k])
    i = int(u * k)
    return int(top[i if i < k else k - 1])


def draw_rng_tape(rng: np.random.Generator, n_restarts: int,
                  n_nodes: int) -> np.ndarray:
    """Pre-draw the GRASP RNG tape: one row per *randomised* restart.

    Row ``r`` feeds restart ``r + 1`` (restart 0 is deterministic); each
    accepted insertion consumes one entry, and a tour of ``n_nodes``
    nodes can accept at most ``n_nodes - 1``.
    """
    length = max(int(n_nodes) - 1, 1)
    rows = max(int(n_restarts) - 1, 0)
    return rng.random((rows, length))


def check_rng_tape(tape, n_insertable: int) -> np.ndarray:
    """Validate a GRASP RNG tape for a construction of *n_insertable* nodes.

    A tape is a 1-D array of draws in ``[0, 1)`` with at least one draw
    per node the construction could insert; rows of
    :func:`draw_rng_tape` always qualify.  Raises
    :class:`InvalidParameterError` otherwise — a negative draw would
    silently index the RCL from its end, a short tape would run dry
    mid-construction.
    """
    arr = np.asarray(tape, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError(
            f"RNG tape must be 1-D, got shape {arr.shape}")
    if not ((arr >= 0.0) & (arr < 1.0)).all():
        raise InvalidParameterError(
            "RNG tape draws must be finite and in [0, 1)")
    if len(arr) < n_insertable:
        raise InvalidParameterError(
            f"RNG tape has {len(arr)} draws, the construction can insert "
            f"{n_insertable} nodes")
    return arr


def greedy_fill(instance: OrienteeringInstance, tour: np.ndarray, *,
                rng: Optional[np.random.Generator] = None,
                tape: Optional[np.ndarray] = None,
                rcl_size: int = 1,
                blocked: Optional[np.ndarray] = None) -> np.ndarray:
    """Insert feasible nodes by best award/delta ratio until none fits.

    Every *live* candidate — off the tour, not blocked, not in conflict
    with a tour node, award ``> 0`` — keeps its cheapest insertion delta
    and edge.  One :func:`all_insertion_deltas` scan over the live
    columns seeds them; after each insertion the inserted node and its
    conflict neighbours leave the live set, every live candidate is
    compared against the two new edges, and only those whose best edge
    was destroyed and that neither new edge beats strictly are rescanned
    (:func:`~repro.tsp.construct.repair_insertion_cache`).  The tour's
    edge costs are kept in step with the tour from the two new edges'
    costs each insertion evaluates, so a rescan reads them instead of
    re-evaluating ``costs.pair`` over the ring.  Every step picks from
    the same full-length ratio array a fresh scan would give.

    Parameters
    ----------
    instance:
        The orienteering instance.
    tour:
        Starting tour (depot-first); not modified.
    rng, tape, rcl_size:
        With ``rcl_size > 1``, each step picks from the sorted top-
        ``rcl_size`` candidates (GRASP) driven by one tape entry per
        insertion.  Pass *tape* directly (a 1-D ``[0, 1)`` array with a
        draw per insertable node, e.g. one row of :func:`draw_rng_tape`;
        checked by :func:`check_rng_tape`) for replayable construction,
        or *rng* to draw a tape internally.
    blocked:
        Optional starting block-mask (nodes never to insert); conflict
        blocking is applied on top.

    Returns
    -------
    numpy.ndarray
        The grown tour.
    """
    n = instance.n_nodes
    costs = instance.costs
    budget = instance.budget
    awards = instance.awards
    neigh = conflict_neighbors(instance)

    cur = np.asarray(tour, dtype=int).copy()
    cost = instance.tour_cost(cur)
    unavailable = np.zeros(n, dtype=bool)
    if blocked is not None:
        unavailable |= np.asarray(blocked, dtype=bool)
    unavailable[cur] = True
    unavailable[awards <= 0] = True
    if neigh is not None:
        for v in cur:
            nb = neigh[int(v)]
            if len(nb):
                unavailable[nb] = True
    live = np.flatnonzero(~unavailable)

    if tape is not None:
        tape = check_rng_tape(tape, len(live))
    elif rng is not None and rcl_size > 1:
        tape = rng.random(max(n - 1, 1))
    randomized = tape is not None and rcl_size > 1
    drawn = 0

    # ring[i] = c(cur_i, cur_{i+1}), cyclically (unused below 2 nodes).
    ring = costs.pair(cur, np.roll(cur, -1))
    deltas, positions = all_insertion_deltas(cur, costs, live, ring)
    edges = positions - 1
    while len(live):
        feasible = cost + deltas <= budget + 1e-9
        if not feasible.any():
            break
        ratio = np.full(n, -np.inf)
        ratio[live] = insertion_ratio(deltas, awards[live], feasible)
        if not randomized:
            v = int(np.argmax(ratio))
        else:
            v = rcl_pick(ratio, int(feasible.sum()),
                         float(tape[drawn]), rcl_size)
            drawn += 1
        i = int(np.searchsorted(live, v))
        e = int(edges[i])
        cost += float(deltas[i])
        # repro: allow[hot-path-purity] -- one O(k) copy per accepted insertion
        cur = np.concatenate((cur[:e + 1], [v], cur[e + 1:]))
        unavailable[v] = True
        if neigh is not None and len(neigh[v]):
            unavailable[neigh[v]] = True
        keep = ~unavailable[live]
        live, deltas, edges = live[keep], deltas[keep], edges[keep]
        a, b = int(cur[e]), int(cur[(e + 2) % len(cur)])
        via = costs.block([a, v, b], live)
        edge = costs.pair(np.array([a, v]), np.array([v, b]))
        # repro: allow[hot-path-purity] -- one O(k) copy per accepted insertion
        ring = np.concatenate((ring[:e], edge, ring[e + 1:]))
        dead = repair_insertion_cache(
            deltas, edges, e, (via[0] + via[1] - edge[0],
                               via[1] + via[2] - edge[1]))
        if len(dead):
            rescanned, positions = all_insertion_deltas(cur, costs,
                                                        live[dead], ring)
            deltas[dead] = rescanned
            edges[dead] = positions - 1
    return cur


def tour_conflict_counts(tour: np.ndarray, neigh: Sequence[np.ndarray],
                         n: int) -> np.ndarray:
    """``counts[v]`` = how many tour nodes conflict with node ``v``.

    Conflict lists are symmetric, so this equals ``|neigh[v] ∩ tour|``;
    one bincount over the concatenated tour-node neighbour lists replaces
    the per-candidate Python set probes the swap pass used to run.
    """
    stacked = [neigh[int(w)] for w in tour if len(neigh[int(w)])]
    if not stacked:
        return np.zeros(n, dtype=np.int64)
    return np.bincount(np.concatenate(stacked), minlength=n)


def swap_pass(instance: OrienteeringInstance, tour: np.ndarray) -> np.ndarray:
    """One improving same-position swap (on-tour node ↔ off-tour node).

    For every tour position ``i`` (except the depot) and every off-tour
    candidate ``v``, consider replacing ``tour[i]`` by ``v`` between its
    current neighbours.  Accept the best swap that increases award and
    stays within budget; return the (possibly unchanged) tour.
    """
    n = instance.n_nodes
    k = len(tour)
    if k < 2:
        return tour
    cost = instance.tour_cost(tour)
    # Row i is both c(tour_i, .) and, by symmetry, c(., tour_i).
    tour_rows = instance.costs.rows(tour)
    awards = instance.awards
    neigh = conflict_neighbors(instance)
    counts = tour_conflict_counts(tour, neigh, n) if neigh is not None else None

    off = np.ones(n, dtype=bool)
    off[tour] = False

    best_gain, best_i, best_v, best_delta = 0.0, -1, -1, 0.0
    for i in range(1, k):
        u = int(tour[i])
        prev_row = tour_rows[i - 1]
        next_row = tour_rows[(i + 1) % k]
        base = prev_row[u] + next_row[u]
        new_cost_v = cost - base + prev_row + next_row
        gain_v = awards - awards[u]
        ok = off & (gain_v > 1e-12) & (new_cost_v <= instance.budget + 1e-9)
        if counts is not None and ok.any():
            # A replacement must not conflict with the rest of the tour:
            # counts[v] > 0 bans v, except a lone conflict with u itself
            # (the node leaving the tour) does not count.
            bad = counts > 0
            nb_u = neigh[u]
            if len(nb_u):
                bad[nb_u] = counts[nb_u] > 1
            ok &= ~bad
        if not ok.any():
            continue
        cand = np.where(ok, gain_v, -np.inf)
        v = int(np.argmax(cand))
        if gain_v[v] > best_gain + 1e-12:
            best_gain = float(gain_v[v])
            best_i, best_v = i, v
            best_delta = float(new_cost_v[v] - cost)
    if best_i >= 0:
        out = tour.copy()
        out[best_i] = best_v
        return out
    return tour


def drop_worst(instance: OrienteeringInstance,
               tour: np.ndarray) -> Tuple[np.ndarray, int]:
    """Remove the node with the worst award-per-energy-saved ratio.

    Returns ``(reduced_tour, removed_node)``; the depot is never removed.
    A tour with only the depot is returned unchanged with ``removed = -1``.
    """
    k = len(tour)
    if k < 2:
        return tour, -1
    pair = instance.costs.pair
    awards = instance.awards
    prev_nodes = np.roll(tour, 1)
    next_nodes = np.roll(tour, -1)
    saved = (pair(prev_nodes, tour) + pair(tour, next_nodes)
             - pair(prev_nodes, next_nodes))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(saved > 1e-12, awards[tour] / saved, np.inf)
    ratio[0] = np.inf  # protect the depot
    i = int(np.argmin(ratio))
    if not np.isfinite(ratio[i]):
        return tour, -1
    return np.delete(tour, i), int(tour[i])


__all__ = ["all_insertion_deltas", "conflict_neighbors", "insertion_ratio",
           "rcl_pick", "draw_rng_tape", "check_rng_tape", "greedy_fill",
           "tour_conflict_counts", "swap_pass", "drop_worst"]
