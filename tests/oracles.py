"""Reference formulations the production planners are pinned against.

* :class:`DenseKernel` — :class:`~repro.core.kernel.PlannerKernel` with
  every incremental cache replaced by the textbook full recompute: the
  ``cov @ rem`` residual awards, an ``(m, n)`` masked row-max for the
  residual hover times and partial awards, a full cheapest-insertion scan
  per call, and coverage rows read from the dense matrix.
* :class:`LegacyPruneCache` — the baseline's prune loop as a full rescan
  of every removal ratio per round.

:func:`dense_planners` and :func:`legacy_prune` install them into the
planner modules for the duration of a ``with`` block, so a test plans the
same instance both ways through the public planner functions
(:func:`kernel_and_dense` and :func:`plan_on` do exactly that).  Both are
plain context managers (not fixtures), so hypothesis tests can use them.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, Tuple
from unittest import mock

import numpy as np

from repro.core import algorithm2, algorithm3, benchmark_alg
from repro.core.batch import plan_algorithm2_batch, plan_algorithm3_batch
from repro.core.kernel import PlannerKernel, PruneCache

#: The ways a test can plan one Algorithm 2/3 cell (see :func:`plan_on`).
IMPLEMENTATIONS = ("kernel", "dense", "batch")


class _DenseRows:
    """The one coverage query the drains make, answered from the dense matrix."""

    def __init__(self, cov_matrix: np.ndarray) -> None:
        self.cov_matrix = cov_matrix

    def sensors_of(self, site: int) -> np.ndarray:
        return np.flatnonzero(self.cov_matrix[site])


class DenseKernel(PlannerKernel):
    """Full-recompute planner state: O(m·n + m·|tour|) per call."""

    def __init__(self, sites, energy, radio, **kwargs) -> None:
        super().__init__(sites, energy, radio, **kwargs)
        self.csr = _DenseRows(sites.cov_matrix)

    def residual_scores(self) -> Tuple[np.ndarray, np.ndarray]:
        self._p_res = self.sites.residual_awards(self.rem)
        self._t_res = self.sites.residual_hover_times(self.rem)
        self.metrics.counter("sites_rescored").inc(self.m)
        return self._p_res, self._t_res

    def partial_scores(self, fractions
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        fractions = np.asarray(fractions, dtype=float)
        R = np.where(self.sites.cov_matrix, self.rem[None, :], 0.0)
        t_max = (R.max(axis=1) if self.n else np.zeros(self.m)) \
            / self.bandwidth
        tau = t_max[:, None] * fractions[None, :]
        p_partial = np.empty((self.m, len(fractions)))
        for k in range(len(fractions)):
            p_partial[:, k] = np.minimum(
                R, (self.bandwidth * tau[:, k])[:, None]).sum(axis=1)
        self._t_res = t_max
        self.metrics.counter("sites_rescored").inc(self.m)
        return t_max, tau, p_partial

    def insertion_state(self) -> Tuple[np.ndarray, np.ndarray]:
        self._flush_insertion()
        return self._ins_deltas.copy(), (self._ins_edges + 1).astype(int)

    def insert(self, site: int) -> int:
        if self._ins_stale:
            self._flush_insertion()
        pos = int(self._ins_edges[site]) + 1
        self.tour.insert(pos, site + 1)
        self.in_tour[site + 1] = True
        self._ins_stale = True
        self.metrics.counter("insertions").inc()
        return pos

    def perf(self):
        snap = super().perf()
        snap["engine"] = "dense"
        return snap


class LegacyPruneCache(PruneCache):
    """The baseline's prune loop with a full ratio rescan per removal."""

    def set_tour(self, tour) -> None:
        self.tour = [int(v) for v in tour]

    def best(self) -> int:
        tour, dist = self.tour, self.dist
        best_i, best_ratio = -1, np.inf
        k = len(tour)
        for i in range(k):
            v = tour[i]
            if v == 0:
                continue
            prev_node = tour[i - 1]
            next_node = tour[(i + 1) % k]
            saved_travel = (dist[prev_node, v] + dist[v, next_node]
                            - dist[prev_node, next_node])
            saved = (self.hover_times[v - 1] * self.eta_h
                     + saved_travel * self.etat_m)
            self.rescored += 1
            # Data lost per joule saved; a zero saving has an infinite
            # ratio and is never preferred over a real saving.
            ratio = self.volumes[v - 1] / saved if saved > 1e-12 else np.inf
            if ratio < best_ratio:
                best_ratio, best_i = ratio, i
        return best_i

    def remove(self, i: int) -> int:
        return self.tour.pop(i)


@contextmanager
def dense_planners() -> Iterator[None]:
    """Run Algorithms 2/3 on :class:`DenseKernel` inside the block."""
    with mock.patch.object(algorithm2, "PlannerKernel", DenseKernel), \
            mock.patch.object(algorithm3, "PlannerKernel", DenseKernel):
        yield


@contextmanager
def legacy_prune() -> Iterator[None]:
    """Run the baseline on :class:`LegacyPruneCache` inside the block."""
    with mock.patch.object(benchmark_alg, "PruneCache", LegacyPruneCache):
        yield


def kernel_and_dense(planner, *args: Any, **kwargs: Any) -> Tuple[Any, Any]:
    """*planner*'s tour on the incremental kernel and on the dense oracle."""
    kernel = planner(*args, **kwargs)
    with dense_planners():
        dense = planner(*args, **kwargs)
    return kernel, dense


def plan_on(implementation: str, planner, network, energy, radio,
            delta: float, **kwargs: Any):
    """One Algorithm 2/3 cell planned by *implementation*.

    ``"kernel"`` is the production per-cell path, ``"dense"`` the same
    planner on :class:`DenseKernel`, and ``"batch"`` a one-variant
    column of the planner's stacked sibling.
    """
    if implementation == "batch":
        stacked = {algorithm2.plan_algorithm2: plan_algorithm2_batch,
                   algorithm3.plan_algorithm3: plan_algorithm3_batch}[planner]
        return stacked(network, [energy], radio, delta, **kwargs)[0]
    with dense_planners() if implementation == "dense" else nullcontext():
        return planner(network, energy, radio, delta, **kwargs)
