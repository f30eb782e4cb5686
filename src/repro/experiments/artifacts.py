"""Per-instance artifact cache for sweep campaigns.

A sweep grid re-plans the *same* network instances cell after cell, yet
most of the planners' per-instance inputs depend only on (instance, δ)
and the energy *rates* — never on the swept battery capacity:

* the δ-grid hovering sites (centres, coverage CSR, hover times; the
  CSR is built with the sites, so a cached cell's planner finds it built
  before its timer starts),
* Algorithm 1's conflict-neighbor lists (coverage-overlap groups),
* Algorithm 1's auxiliary graph ``G_s`` (edge weights use η_h and the
  J/m travel rate; the capacity only enters as the orienteering budget),
* the baseline's unpruned Christofides tour, which depends on the
  instance alone (sensor positions and depot).

:class:`ArtifactCache` memoizes exactly those artifacts so a capacity
sweep builds each instance's geometry once instead of once per cell.
The cache is *per process*: the sequential runner keeps one for the
whole sweep, and every worker of the parallel executor keeps its own
(instances are not shared across processes).  Cached artifacts are the
byte-identical outputs of the same pure constructors the planners call
themselves, so cached and uncached sweeps produce bitwise-identical
tours — ``tests/test_experiments_parallel.py`` pins that.  Each build
runs under its builder's span (``hovering.build``, ``conflicts.build``,
``auxgraph.build``, ``artifacts.baseline_tour``), so a traced sweep
shows one span per cache miss.

Keys use ``id(network)``; the cache pins a reference to every keyed
network so an id can never be recycled while the cache lives.  Do not
feed a cache networks you intend to mutate.

Every lookup counts as a hit or a miss (the int attributes
``cache.hits`` / ``cache.misses``); :meth:`ArtifactCache.stats` adds the
number of cached artifacts, and a sweep publishes it as
``SweepResult.meta["cache"]``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.auxgraph import (AuxiliaryGraph, build_auxiliary_graph,
                                 overlap_conflicts)
from repro.core.benchmark_alg import baseline_tour
from repro.core.hovering import HoveringSites, build_hovering_sites
from repro.energy.model import EnergyModel
from repro.network.sensor_network import SensorNetwork
from repro.obs.tracer import span
from repro.orienteering.problem import ConflictLists
from repro.radio.link import RadioModel

#: Planner methods whose kwargs the cache knows how to augment.
CACHEABLE_METHODS = ("algorithm1", "algorithm2", "algorithm3")

_SiteKey = Tuple[int, float, float, float]
_GraphKey = Tuple[int, float, float, float, float, float]


class ArtifactCache:
    """Memoized per-(instance, δ) planner geometry (see module docstring)."""

    def __init__(self) -> None:
        self._sites: Dict[_SiteKey, HoveringSites] = {}
        self._graphs: Dict[_GraphKey, AuxiliaryGraph] = {}
        self._conflicts: Dict[_SiteKey, ConflictLists] = {}
        self._tours: Dict[int, np.ndarray] = {}
        self._pins: Dict[int, SensorNetwork] = {}
        #: Lookups served from the cache / that had to build the artifact.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return (len(self._sites) + len(self._graphs) + len(self._conflicts)
                + len(self._tours))

    def _pin(self, network: SensorNetwork) -> int:
        """The instance part of every cache key: ``id(network)``."""
        self._pins[id(network)] = network
        return id(network)

    def _site_key(self, network: SensorNetwork, radio: RadioModel,
                  delta: float) -> _SiteKey:
        # _pins keeps the network alive, so id() is stable for the cache
        # lifetime and the key never leaves this process.
        return (self._pin(network), float(delta), float(radio.bandwidth),
                float(radio.coverage_radius))

    def sites(self, network: SensorNetwork, radio: RadioModel,
              delta: float) -> HoveringSites:
        """The memoized :func:`build_hovering_sites` output for a cell."""
        key = self._site_key(network, radio, delta)
        cached = self._sites.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        built = build_hovering_sites(network, radio, delta)
        self._sites[key] = built
        return built

    def conflict_neighbors(self, network: SensorNetwork, radio: RadioModel,
                           delta: float, *,
                           sites: Optional[HoveringSites] = None
                           ) -> ConflictLists:
        """Memoized Algorithm 1 conflict lists (depot entry included).

        Validated once, when built (:func:`~repro.core.auxgraph.
        overlap_conflicts`): every cell of the (instance, δ) plans on
        the same immutable :class:`~repro.orienteering.problem.
        ConflictLists` without checking it again.  *sites*, when given,
        must be this cell's cached :meth:`sites`; it only saves the
        lookup.
        """
        key = self._site_key(network, radio, delta)
        cached = self._conflicts.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if sites is None:
            sites = self.sites(network, radio, delta)
        lists = overlap_conflicts(sites)
        self._conflicts[key] = lists
        return lists

    def graph(self, network: SensorNetwork, radio: RadioModel, delta: float,
              energy: EnergyModel, *,
              sites: Optional[HoveringSites] = None) -> AuxiliaryGraph:
        """Memoized auxiliary graph, keyed on energy *rates* not capacity.

        *sites*, when given, must be this cell's cached :meth:`sites`;
        it only saves the lookup.
        """
        key = self._site_key(network, radio, delta) + (
            float(energy.hover_power), float(energy.travel_cost_per_meter))
        cached = self._graphs.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if sites is None:
            sites = self.sites(network, radio, delta)
        built = build_auxiliary_graph(sites, energy)
        self._graphs[key] = built
        return built

    def baseline_tour(self, network: SensorNetwork) -> np.ndarray:
        """The memoized, read-only unpruned baseline tour of an instance.

        Keyed on the instance alone: capacity, δ, the radio and the
        energy rates never enter :func:`~repro.core.benchmark_alg.
        baseline_tour`.  Built under an ``artifacts.baseline_tour`` span.
        """
        key = self._pin(network)
        cached = self._tours.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        with span("artifacts.baseline_tour", n_nodes=network.n_nodes):
            built = baseline_tour(network)
        built.flags.writeable = False
        self._tours[key] = built
        return built

    def augment_kwargs(self, network: SensorNetwork, energy: EnergyModel,
                       radio: RadioModel, method: str,
                       kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """Planner kwargs for one cell with cached geometry injected.

        The benchmark gets its memoized unpruned ``tour`` (a ``tour`` the
        caller passed is kept); it hovers directly over sensors, so it
        takes no δ-grid geometry.  Other methods outside
        :data:`CACHEABLE_METHODS` and cells without a ``delta`` kwarg pass
        through unchanged.  The injected objects are the same values the
        planner would otherwise build internally, so the tour is
        unchanged bitwise.
        """
        if method == "benchmark":
            if "tour" in kwargs:
                return kwargs
            return {**kwargs, "tour": self.baseline_tour(network)}
        if method not in CACHEABLE_METHODS or "delta" not in kwargs:
            return kwargs
        delta = float(kwargs["delta"])
        sites = self.sites(network, radio, delta)
        augmented = {**kwargs, "sites": sites}
        if method == "algorithm1":
            augmented["graph"] = self.graph(network, radio, delta, energy,
                                            sites=sites)
            if kwargs.get("overlap", "conflict") == "conflict":
                augmented["conflict_neighbors"] = self.conflict_neighbors(
                    network, radio, delta, sites=sites)
        return augmented

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus the number of cached artifacts."""
        return {"hits": self.hits, "misses": self.misses,
                "artifacts": len(self)}


def resolve_cache(cache: bool) -> Optional[ArtifactCache]:
    """Normalise a ``cache=`` argument: True → fresh cache, False → None.

    ``run_sweep`` and the figure runners own the cache for the duration
    of the sweep; its counters come back as ``SweepResult.meta["cache"]``.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ArtifactCache()
    raise TypeError(f"cache must be a bool, got {cache!r}")


__all__ = ["ArtifactCache", "CACHEABLE_METHODS", "resolve_cache"]
