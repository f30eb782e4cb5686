"""One-call planning facade.

``plan_tour(network, energy, radio, method="algorithm2", delta=10.0)``
dispatches to the right planner with sensible defaults; the
:data:`PLANNERS` registry names every available method for CLIs and
experiment configs.

When a run ledger is active (:mod:`repro.obs.ledger`), every facade call
additionally emits one ``planner.call`` :class:`~repro.obs.record.RunRecord`
— config hash, engine, wall-clock, kernel work counters, optional
tracemalloc peak — *after* planning completes, so the returned tour is
bitwise-identical with the ledger on or off.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable, Dict, Optional

from repro.core.algorithm1 import plan_algorithm1
from repro.core.algorithm2 import plan_algorithm2
from repro.core.algorithm3 import plan_algorithm3
from repro.core.benchmark_alg import plan_benchmark
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.network.sensor_network import SensorNetwork
from repro.obs.ledger import get_ledger, record_event
from repro.obs.memprof import PeakMemory
from repro.obs.record import config_hash, perf_counter_metrics, \
    sanitize_config
from repro.obs.tracer import TracerLike, activated, span
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError

#: Planner registry: method name -> short description.
PLANNERS: Dict[str, str] = {
    "algorithm1": "orienteering reduction, no coverage overlap (paper Alg. 1)",
    "algorithm2": "greedy max-ratio with overlap (paper Alg. 2)",
    "algorithm3": "partial collection over K virtual locations (paper Alg. 3)",
    "benchmark": "Christofides over all sensors + min-ratio pruning (baseline)",
}


def _call(method: str, planner: Callable[..., CollectionTour],
          args: tuple, kwargs: Dict[str, Any]) -> CollectionTour:
    """Call *planner*, naming any option it does not take."""
    options = list(inspect.signature(planner).parameters)[len(args):]
    unknown = sorted(set(kwargs) - set(options))
    if unknown:
        raise InvalidParameterError(
            f"{method} planner got unknown option(s) {unknown}; "
            f"it takes: {', '.join(options) or 'none'}")
    return planner(*args, **kwargs)


def _dispatch(network: SensorNetwork, energy: EnergyModel, radio: RadioModel,
              method: str, delta: float,
              kwargs: Dict[str, Any]) -> CollectionTour:
    """The method dispatch proper (kwargs may be mutated; pass a copy)."""
    problem = (network, energy, radio, delta)
    if method == "algorithm1":
        return _call(method, plan_algorithm1, problem, kwargs)
    if method == "algorithm2":
        return _call(method, plan_algorithm2, problem, kwargs)
    if method == "algorithm3":
        kwargs.setdefault("K", 2)
        return _call(method, plan_algorithm3, problem, kwargs)
    if method == "benchmark":
        return _call(method, plan_benchmark, problem[:3], kwargs)
    raise InvalidParameterError(
        f"unknown method {method!r}; expected one of {sorted(PLANNERS)}")


def plan_tour(network: SensorNetwork, energy: EnergyModel, radio: RadioModel,
              *, method: str = "algorithm2", delta: float = 10.0,
              trace: Optional[TracerLike] = None,
              **kwargs: Any) -> CollectionTour:
    """Plan a data-collection tour with the chosen *method*.

    Parameters
    ----------
    network, energy, radio:
        Problem inputs.
    method:
        One of :data:`PLANNERS`.
    delta:
        Grid edge length (ignored by ``"benchmark"``, which hovers directly
        above sensors).
    trace:
        Optional :class:`repro.obs.Tracer` activated for the duration of
        the call; the plan runs under one ``planner.plan_tour`` root span
        with every instrumented layer (kernel, orienteering, TSP) nested
        below it.  ``None`` (default) keeps the ambient tracer — a no-op
        unless tracing was enabled via ``REPRO_TRACE`` or
        :func:`repro.obs.set_tracer`.  Tracing never changes the tour,
        and neither does the run ledger (``REPRO_LEDGER`` /
        :class:`repro.obs.ledger_active`), which records one
        ``planner.call`` entry per facade call when active.
    **kwargs:
        Planner-specific options — e.g. ``K=4`` for ``algorithm3``,
        ``overlap="ignore"`` for ``algorithm1``, ``tsp_mode="christofides"``
        for ``algorithm2``/``algorithm3``.

    Returns
    -------
    CollectionTour
    """
    with activated(trace), span("planner.plan_tour", method=method,
                                n_nodes=network.n_nodes):
        ledger = get_ledger()
        if ledger is None:
            return _dispatch(network, energy, radio, method, delta,
                             dict(kwargs))
        with PeakMemory(enabled=ledger.track_memory) as mem:
            t0 = time.perf_counter()
            tour = _dispatch(network, energy, radio, method, delta,
                             dict(kwargs))
            wall_s = time.perf_counter() - t0
        perf: Dict[str, Any] = tour.meta.get("perf") or {}
        payload = sanitize_config({
            "method": method, "delta": float(delta),
            "n_nodes": network.n_nodes, "capacity": energy.capacity,
            **kwargs})
        record_event(
            "planner.call",
            label=method,
            config_hash=config_hash(payload),
            engine=perf.get("engine"),
            wall_s=wall_s,
            metrics={"counters": perf_counter_metrics(perf)},
            mem_peak_bytes=mem.peak_bytes,
            extra={"collected_mb": float(tour.collected_volume),
                   "n_hovers": int(tour.n_hovers)})
        return tour


__all__ = ["plan_tour", "PLANNERS"]
