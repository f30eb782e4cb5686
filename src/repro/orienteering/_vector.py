"""Vectorised kernels shared by the orienteering heuristics.

All heavy per-candidate work — insertion deltas, ratio scoring, conflict
masking — is expressed as numpy operations over the instance's cost
matrix, so the greedy constructor and the local-search passes cost
O(n * |tour|) numpy work per step instead of O(n * |tour|) Python loops.

Randomised (GRASP) construction consumes a pre-drawn **RNG tape**: one
uniform ``[0, 1)`` draw per accepted insertion, mapped onto a
*sorted* restricted candidate list by :func:`rcl_pick`.  Because the
tape is drawn up front and the RCL is ordered by node index, each
restart (:func:`greedy_fill` on one tape row) is replayable on its own,
and its choices are invariant under site renumbering that preserves
relative index order (the `ReducedSites` survivor maps do).
"""
# repro: hot-path

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.orienteering.problem import OrienteeringInstance


def all_insertion_deltas(tour: np.ndarray, costs: np.ndarray,
                         costs_t: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Cheapest insertion delta of *every* node into the closed *tour*.

    Returns ``(deltas, positions)`` of length ``n`` each; ``positions[v]``
    is the tour index before which node ``v`` would be inserted.  Entries
    for nodes already on the tour are meaningless (callers mask them).

    *costs_t* (``instance.costs_t``) routes the gathers over contiguous
    rows of the transposed matrix instead of strided columns of *costs*
    — the same elements bit-for-bit, several times faster at paper
    scale.  Both layouts accumulate in place on the first fancy-index
    copy and tie-break ``argmin`` at the first minimal tour position.
    """
    n = len(costs)
    k = len(tour)
    if k == 0:
        return np.zeros(n), np.zeros(n, dtype=int)
    if k == 1:
        return 2.0 * costs[tour[0]], np.ones(n, dtype=int)
    nxt = np.roll(tour, -1)
    edge = costs[tour, nxt]                        # (k,)
    if costs_t is not None:
        # cand[i, v] = c(tour_i, v) + c(v, tour_{i+1}) - edge_i
        cand = costs_t[tour]
        cand += costs_t[nxt]
        cand -= edge[:, None]
        best = np.argmin(cand, axis=0)
        deltas = cand[best, np.arange(n)]
    else:
        # cand[v, i] = c(tour_i, v) + c(v, tour_{i+1}) - edge_i
        cand = costs[:, tour]
        cand += costs[:, nxt]
        cand -= edge[None, :]
        best = np.argmin(cand, axis=1)
        deltas = cand[np.arange(n), best]
    positions = (best + 1) % k
    positions[positions == 0] = k
    return deltas, positions


def conflict_neighbors(instance: OrienteeringInstance) -> Optional[List[np.ndarray]]:
    """Per-node arrays of conflicting nodes, or None when unconstrained.

    The instance precomputes these at construction, so this is O(1) —
    the canonical list itself, not a copy (treat it as read-only).
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
    ordered by **node index** — an order-isomorphism under any
    renumbering that preserves relative index order, which is what makes
    reduction-seeded restarts renumbering-invariant.  ``u`` in ``[0, 1)``
    indexes the list uniformly.
    """
    k = rcl_size if rcl_size < n_feasible else n_feasible
    top = np.sort(np.argpartition(-ratio, k - 1)[:k])
    i = int(u * k)
    return int(top[i if i < k else k - 1])


def draw_rng_tape(rng: np.random.Generator, n_restarts: int,
                  tape_nodes: int) -> np.ndarray:
    """Pre-draw the GRASP RNG tape: one row per *randomised* restart.

    Row ``r`` feeds restart ``r + 1`` (restart 0 is deterministic); each
    accepted insertion consumes one entry, and a tour of ``tape_nodes``
    nodes can accept at most ``tape_nodes - 1``.  Drawing against the
    *original* (pre-reduction) node count keeps the tape — hence every
    restart — identical whether or not a site reduction ran first.
    """
    length = max(int(tape_nodes) - 1, 1)
    rows = max(int(n_restarts) - 1, 0)
    return rng.random((rows, length))


def greedy_fill(instance: OrienteeringInstance, tour: np.ndarray, *,
                rng: Optional[np.random.Generator] = None,
                tape: Optional[np.ndarray] = None,
                rcl_size: int = 1,
                blocked: Optional[np.ndarray] = None) -> np.ndarray:
    """Insert feasible nodes by best award/delta ratio until none fits.

    Parameters
    ----------
    instance:
        The orienteering instance.
    tour:
        Starting tour (depot-first); not modified.
    rng, tape, rcl_size:
        With ``rcl_size > 1``, each step picks from the sorted top-
        ``rcl_size`` candidates (GRASP) driven by one tape entry per
        insertion.  Pass *tape* directly (a 1-D ``[0, 1)`` array, e.g.
        one row of :func:`draw_rng_tape`) for replayable construction,
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
    costs_t = instance.costs_t
    budget = instance.budget
    awards = instance.awards
    neigh = conflict_neighbors(instance)

    if tape is None and rng is not None and rcl_size > 1:
        tape = rng.random(max(n - 1, 1))
    randomized = tape is not None and rcl_size > 1
    drawn = 0

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

    while True:
        if unavailable.all():
            break
        deltas, positions = all_insertion_deltas(cur, costs, costs_t)
        feasible = ~unavailable & (cost + deltas <= budget + 1e-9)
        if not feasible.any():
            break
        ratio = insertion_ratio(deltas, awards, feasible)
        if not randomized:
            v = int(np.argmax(ratio))
        else:
            v = rcl_pick(ratio, int(feasible.sum()),
                         float(tape[drawn]), rcl_size)
            drawn += 1
        pos = int(positions[v])
        # repro: allow[hot-path-purity] -- one O(k) copy per accepted insertion
        cur = np.insert(cur, pos if pos != 0 else len(cur), v)
        cost += float(deltas[v])
        unavailable[v] = True
        if neigh is not None and len(neigh[v]):
            unavailable[neigh[v]] = True
    return cur


def tour_conflict_counts(tour: np.ndarray, neigh: List[np.ndarray],
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
    costs = instance.costs
    costs_t = instance.costs_t
    k = len(tour)
    if k < 2:
        return tour
    cost = instance.tour_cost(tour)
    awards = instance.awards
    neigh = conflict_neighbors(instance)
    counts = tour_conflict_counts(tour, neigh, n) if neigh is not None else None

    off = np.ones(n, dtype=bool)
    off[tour] = False

    best_gain, best_i, best_v, best_delta = 0.0, -1, -1, 0.0
    for i in range(1, k):
        u = int(tour[i])
        prev_node = int(tour[i - 1])
        next_node = int(tour[(i + 1) % k])
        base = costs[prev_node, u] + costs[u, next_node]
        # costs_t[next_node] is costs[:, next_node] element-for-element
        # (contiguous row instead of a strided column).
        new_cost_v = cost - base + costs[prev_node, :] + costs_t[next_node]
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
    costs = instance.costs
    awards = instance.awards
    prev_nodes = np.roll(tour, 1)
    next_nodes = np.roll(tour, -1)
    saved = (costs[prev_nodes, tour] + costs[tour, next_nodes]
             - costs[prev_nodes, next_nodes])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(saved > 1e-12, awards[tour] / saved, np.inf)
    ratio[0] = np.inf  # protect the depot
    i = int(np.argmin(ratio))
    if not np.isfinite(ratio[i]):
        return tour, -1
    return np.delete(tour, i), int(tour[i])


__all__ = ["all_insertion_deltas", "conflict_neighbors", "insertion_ratio",
           "rcl_pick", "draw_rng_tape", "greedy_fill",
           "tour_conflict_counts", "swap_pass", "drop_worst"]
