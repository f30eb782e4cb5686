"""Generic sweep engine.

One *sweep* = (algorithms x parameter values x instances).  For every cell
the runner plans a tour, measures wall-clock planning time (the quantity in
the paper's Figs. 3(b)/4(b)/5(b)), optionally cross-validates the tour
against the execution simulator, and aggregates means/standard deviations
across instances.

Work units
----------
:func:`plan_units` cuts the grid into plain-data *work units*, each
covering one algorithm spec over a rectangle of the grid, in one of two
kinds:

* ``cell`` — one parameter value x every instance (the default);
* ``chain`` (``delta_continuation=True``, δ sweeps only) — every δ x one
  instance of an Algorithm 1 spec, planned in descending δ order,
  warm-starting every finer grid's reduction corridor and first GRASP
  construction from the coarser grid's finished tour
  (:mod:`repro.experiments.continuation`); warm tours are accepted only
  on strict improvement.

Ineligible specs silently keep the cell kind.  :func:`execute_unit`
plans one unit of any kind.  ``run_sweep`` maps it over the units in
canonical order — in process for ``jobs=1``, on a process pool
(:mod:`repro.experiments.parallel`) for ``jobs=N`` — and merges the
samples into rows in instance order.  The pool differs only in
transport, so every deterministic field of every :class:`SweepRow` —
volumes, instance counts, the kernel work counters in ``perf`` — is
bitwise-identical regardless of ``jobs``; only the measured wall-clock
fields vary run to run.  See ``docs/experiments.md``.

Units planned in one process share its
:class:`~repro.experiments.artifacts.ArtifactCache` (``cache=True``,
default): δ-grid sites, conflict lists, and auxiliary graphs are built
once per (instance, δ), and the baseline's unpruned tour once per
instance, and reused across cells, so e.g. a capacity sweep pays for its
geometry once.  Cache lookups happen *outside* the per-cell timer — with
the cache on, ``mean_time_s`` is pure planning time over prebuilt
geometry (for the baseline, its prune loop); run ``cache=False`` to
measure the paper-literal geometry-included time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.planner import plan_tour
from repro.core.reduce import resolve_reduction
from repro.energy.model import EnergyModel
from repro.experiments.artifacts import (CACHEABLE_METHODS, ArtifactCache,
                                         resolve_cache)
from repro.experiments.continuation import (chainable_spec,
                                            continuation_order,
                                            project_warm_nodes,
                                            tour_seed_points)
from repro.experiments.config import ExperimentConfig
from repro.network.sensor_network import SensorNetwork
from repro.obs.ledger import get_ledger, record_event
from repro.obs.record import (
    config_hash,
    flatten_perf,
    perf_counter_metrics,
    sanitize_config,
)
from repro.obs.tracer import Tracer, TracerLike, activated, get_tracer, span
from repro.sim.validate import cross_validate
from repro.utils.errors import InvalidParameterError
from repro.utils.timing import Timer

#: MB per GB — figure axes in the paper are GB.
MB_PER_GB = 1000.0


@dataclass(frozen=True)
class AlgoSpec:
    """One plotted algorithm: display name, planner method, fixed options."""

    name: str
    method: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepRow:
    """One aggregated data point (one algorithm at one parameter value)."""

    param_name: str
    param_value: float
    algorithm: str
    mean_volume_gb: float
    std_volume_gb: float
    mean_time_s: float
    std_time_s: float
    n_instances: int
    #: Mean planner-kernel work counters across instances (engine,
    #: sites_rescored, deltas_recomputed, ... — see
    #: ``CollectionTour.meta["perf"]``).  Diagnostic only: deliberately
    #: excluded from :meth:`as_dict` so committed CSV schemas stay stable.
    perf: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict for CSV writers."""
        return {
            "param_name": self.param_name,
            "param_value": self.param_value,
            "algorithm": self.algorithm,
            "mean_volume_gb": self.mean_volume_gb,
            "std_volume_gb": self.std_volume_gb,
            "mean_time_s": self.mean_time_s,
            "std_time_s": self.std_time_s,
            "n_instances": self.n_instances,
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The run-to-run reproducible view of the row.

        Drops the measured wall-clock fields (``mean_time_s``,
        ``std_time_s``), keeping everything the planners compute
        deterministically: volumes, instance counts, engine name, and
        the kernel work counters.
        Two sweeps of the same campaign — any ``jobs``, any worker
        completion order, cache on or off — must agree *bitwise* on this
        view; the parallel-equality tests and the CI job compare it.
        """
        det = self.as_dict()
        del det["mean_time_s"], det["std_time_s"]
        if self.perf is not None:
            det["perf"] = dict(self.perf)
        return det


@dataclass
class SweepResult:
    """All rows of one sweep plus the configuration that produced them."""

    config: ExperimentConfig
    rows: List[SweepRow]
    #: Execution metadata — ``jobs``, the continuation chain count and
    #: the artifact-cache counters, with the same keys under any
    #: ``jobs``; a pool adds the counts of trace and ledger records it
    #: merged home.  Diagnostic only, never serialised into the CSVs.
    meta: Dict[str, Any] = field(default_factory=dict)

    def series(self, algorithm: str) -> List[SweepRow]:
        """The rows of one algorithm, ordered by parameter value."""
        return sorted((r for r in self.rows if r.algorithm == algorithm),
                      key=lambda r: r.param_value)

    def algorithms(self) -> List[str]:
        """Distinct algorithm names in plot order of first appearance."""
        seen: List[str] = []
        for r in self.rows:
            if r.algorithm not in seen:
                seen.append(r.algorithm)
        return seen


def sweep_cells(algorithms: Sequence[AlgoSpec],
                param_values: Sequence[float]) -> List[tuple]:
    """The sweep's cell list in canonical order: ``(index, value, spec)``.

    Canonical order is parameter values outer, algorithms inner; it
    defines the row order of :class:`SweepResult`, the order of the work
    units (:func:`plan_units`) and the progress-callback order.
    """
    cells = []
    for value in param_values:
        for spec in algorithms:
            cells.append((len(cells), value, spec))
    return cells


def format_progress(cell_index: int, total: int, param_name: str,
                    value: float, row: SweepRow) -> str:
    """One ``[k/total]``-prefixed status line for a finished cell."""
    return (f"[{cell_index + 1}/{total}] "
            f"{param_name}={value:g} {row.algorithm}: "
            f"{row.mean_volume_gb:.2f} GB, "
            f"{row.mean_time_s:.2f} s")


def _emit_sweep_records(config: ExperimentConfig,
                        algorithms: Sequence[AlgoSpec],
                        param_name: str,
                        param_values: Sequence[float],
                        rows: Sequence[SweepRow],
                        *,
                        jobs: int) -> None:
    """Emit one ``sweep.cell`` ledger record per finished cell; a no-op
    when no ledger is active.

    Called *after* every row exists — the parent emits these in canonical
    cell order under any ``jobs``, and nothing here touches the
    rows, so sweep outputs stay bitwise-identical with the ledger on or
    off.  Cell wall-clock is the aggregate planning time
    (``mean_time_s * n_instances``); the counters are the deterministic
    per-instance means from ``row.perf``.
    """
    if get_ledger() is None:
        return
    campaign = config.as_dict()
    for index, value, spec in sweep_cells(algorithms, param_values):
        row = rows[index]
        perf = row.perf or {}
        payload = sanitize_config({
            "campaign": campaign, "param_name": param_name,
            "param_value": float(value), "algorithm": spec.name,
            "method": spec.method, "kwargs": spec.kwargs})
        record_event(
            "sweep.cell",
            label=spec.name,
            config_hash=config_hash(payload),
            engine=perf.get("engine"),
            jobs=jobs,
            wall_s=row.mean_time_s * row.n_instances,
            metrics={"counters": perf_counter_metrics(perf)},
            extra={"cell": index, "param_name": param_name,
                   "param_value": float(value),
                   "mean_volume_gb": row.mean_volume_gb,
                   "n_instances": row.n_instances})


def _with_site_reduction(make_kwargs: Callable[[ExperimentConfig, float,
                                                AlgoSpec], Dict[str, Any]],
                         transport: Any
                         ) -> Callable[[ExperimentConfig, float, AlgoSpec],
                                       Dict[str, Any]]:
    """Wrap *make_kwargs* to inject a ``site_reduction`` planner kwarg.

    Injection targets only the δ-grid planners (the benchmark hovers over
    sensors directly — nothing to reduce) and never overrides a
    reduction a spec sets explicitly.  *transport* is the JSON-safe form
    from :meth:`~repro.core.reduce.SiteReduction.transport` (a level
    string or a plain dict), so the wrapped kwargs remain shippable to
    parallel worker processes as data.
    """
    def wrapped(config: ExperimentConfig, value: float,
                spec: AlgoSpec) -> Dict[str, Any]:
        kwargs = make_kwargs(config, value, spec)
        if spec.method not in CACHEABLE_METHODS or "site_reduction" in kwargs:
            return kwargs
        augmented = dict(kwargs)
        augmented["site_reduction"] = transport
        return augmented
    return wrapped


#: One work unit: plain data, JSON-safe whenever the planner kwargs are
#: (see :func:`plan_units`).
Unit = Dict[str, Any]


def plan_units(config: ExperimentConfig,
               algorithms: Sequence[AlgoSpec],
               param_name: str,
               param_values: Sequence[float],
               *,
               n_instances: int,
               make_energy: Callable[[ExperimentConfig, float], EnergyModel],
               make_kwargs: Callable[[ExperimentConfig, float, AlgoSpec],
                                     Dict[str, Any]],
               validate: bool,
               delta_continuation: bool) -> List[Unit]:
    """Cut the sweep grid into work units, in canonical order.

    Each spec is classified once: a ``chain`` when *delta_continuation*
    is set and :func:`~repro.experiments.continuation.chainable_spec`
    holds, else plain ``cell`` units.  A cell unit covers one value x
    every instance; a chain unit every value x one instance.  Units are
    ordered by their first cell index, then instance, and each carries
    its canonical ``unit`` index, the ``cells``, ``values`` and
    ``instances`` it covers, and per value the energy-model fields and
    planner kwargs.
    """
    kinds = ["chain" if delta_continuation
             and chainable_spec(config, spec, param_values, make_kwargs)
             else "cell" for spec in algorithms]
    cells = sweep_cells(algorithms, param_values)
    n_specs = len(algorithms)
    units: List[Unit] = []

    def add(kind: str, s_idx: int, indices: List[int],
            instances: List[int]) -> None:
        spec = algorithms[s_idx]
        values = [cells[index][1] for index in indices]
        units.append({
            "unit": len(units), "kind": kind,
            "algorithm": spec.name, "method": spec.method,
            "param_name": param_name, "cells": indices,
            "values": [float(v) for v in values], "instances": instances,
            "energies": [asdict(make_energy(config, v)) for v in values],
            "kwargs": [make_kwargs(config, v, spec) for v in values],
            "validate": validate})

    for index in range(len(cells)):
        s_idx = index % n_specs
        if kinds[s_idx] == "cell":
            add("cell", s_idx, [index], list(range(n_instances)))
        elif index < n_specs:           # the spec's first value
            for i in range(n_instances):
                add("chain", s_idx,
                    list(range(s_idx, len(cells), n_specs)), [i])
    return units


def execute_unit(unit: Unit,
                 instances: Sequence[SensorNetwork],
                 radio: Any,
                 cache: Optional[ArtifactCache]) -> List[List[Sample]]:
    """Plan one work unit; returns samples per instance, then per value.

    The one function every unit kind runs through under any ``jobs``:
    ``run_sweep`` calls it inline for ``jobs=1`` and the pool calls it
    inside a worker, so the timers wrap the same planning calls and the
    samples are bitwise-identical either way.  Opens the unit's
    ``runner.cell`` / ``runner.chain`` span.
    """
    kind = unit["kind"]
    spec = AlgoSpec(unit["algorithm"], unit["method"])
    energies = [EnergyModel(**fields) for fields in unit["energies"]]
    kwargs, validate = unit["kwargs"], unit["validate"]
    nets = [instances[i] for i in unit["instances"]]
    attrs: Dict[str, Any]
    if kind == "cell":
        attrs = {"cell": unit["cells"][0], "value": unit["values"][0]}
    else:
        attrs = {"instance": unit["instances"][0], "width": len(energies)}
    with span(f"runner.{kind}", unit=unit["unit"], param=unit["param_name"],
              algorithm=spec.name, **attrs):
        if kind == "cell":
            return [[_instance_sample(net, spec, energies[0], radio,
                                      kwargs=kwargs[0], validate=validate,
                                      cache=cache)]
                    for net in nets]
        assert cache is not None    # run_sweep refuses chains without it
        return [_plan_chain_instance(net, spec, unit["values"], energies,
                                     radio, kwargs_by_value=kwargs,
                                     validate=validate, cache=cache)
                for net in nets]


def _map_in_process(units: Sequence[Unit],
                    instances: Sequence[SensorNetwork],
                    radio: Any, cache: bool, meta: Dict[str, Any]
                    ) -> Iterator[Tuple[Unit, List[List[Sample]]]]:
    """Yield ``(unit, execute_unit(unit))`` for every unit, in unit order.

    After the last unit, records in *meta* the artifact-cache counters
    and, when tracing or keeping a ledger, how many span and ledger
    records the units added — the counts a pool reports for its merge.
    """
    artifact_cache = resolve_cache(cache)
    tracer, ledger = get_tracer(), get_ledger()
    tracing = isinstance(tracer, Tracer)
    # Ring-buffer drops count too: the tracer saw those spans.
    spans0 = len(tracer) + tracer.dropped if tracing else 0
    records0 = len(ledger) if ledger is not None else 0
    for unit in units:
        yield unit, execute_unit(unit, instances, radio, artifact_cache)
    if artifact_cache is not None:
        meta["cache"] = artifact_cache.stats()
    if tracing:
        meta["trace_records"] = len(tracer) + tracer.dropped - spans0
    if ledger is not None:
        meta["ledger_records"] = len(ledger) - records0


def run_sweep(config: ExperimentConfig,
              instances: Sequence[SensorNetwork],
              algorithms: Sequence[AlgoSpec],
              param_name: str,
              param_values: Sequence[float],
              *,
              make_energy: Callable[[ExperimentConfig, float], EnergyModel],
              make_kwargs: Callable[[ExperimentConfig, float, AlgoSpec], Dict[str, Any]],
              validate: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              trace: Optional[TracerLike] = None,
              jobs: int = 1,
              cache: bool = True,
              site_reduction: Any = None,
              delta_continuation: bool = False) -> SweepResult:
    """Run a full sweep and aggregate per-cell statistics.

    Parameters
    ----------
    config:
        The campaign configuration.
    instances:
        The shared network instance set (see
        :func:`repro.experiments.instances.make_instances`); every row
        is a mean over it, so it must not be empty.
    algorithms:
        Plotted algorithms.
    param_name, param_values:
        The swept axis (``"capacity"`` or ``"delta"``).
    make_energy:
        Maps (config, param value) to the :class:`EnergyModel` for a cell.
    make_kwargs:
        Maps (config, param value, spec) to planner kwargs for a cell.
        Under ``jobs > 1`` the returned kwargs must be JSON-serialisable
        (they are shipped to worker processes as data, not pickled).
    validate:
        Cross-validate every planned tour against the simulator (cheap
        relative to planning; catches planner regressions during sweeps).
    progress:
        Optional callback receiving one ``[k/total]``-prefixed status
        line per cell, always in canonical cell order (each line is sent
        once every earlier cell is complete).
    trace:
        Optional :class:`repro.obs.Tracer` activated for the whole sweep;
        every work unit gets a ``runner.cell`` / ``runner.chain`` span
        with the planner's own spans nested underneath.  Under
        ``jobs > 1`` workers record spans into JSONL shards which are
        merged into this tracer after the sweep
        (:mod:`repro.obs.shards`).
    jobs:
        Worker process count; ``1`` runs in-process.
    cache:
        ``True`` (default) — memoize per-(instance, δ) geometry across
        cells in an :class:`~repro.experiments.artifacts.ArtifactCache`
        (one per process; its hit/miss/artifact counts, summed over
        workers, come back as ``meta["cache"]``); ``False`` — rebuild per
        cell, paper-literal.
    site_reduction:
        Candidate-site reduction pre-pass applied to every δ-grid cell
        (``None``/``"off"``, ``"safe"``, ``"aggressive"``, a
        :class:`~repro.core.reduce.SiteReduction`, or its dict form).
        Implemented by wrapping *make_kwargs* with a JSON-safe
        ``site_reduction`` planner kwarg, so it reaches every unit kind
        under any ``jobs`` the same way; benchmark specs and specs that
        already set their own ``site_reduction`` are left alone.
    delta_continuation:
        Plan each Algorithm 1 spec's δ column per instance in descending
        δ order (coarse grids first), warm-starting every finer cell's
        reduction corridor and first GRASP construction from the coarser
        cell's finished tour (:mod:`repro.experiments.continuation`).
        Requires a δ sweep (``param_name == "delta"``) and the artifact
        cache (the warm payloads flow through it); warm tours are kept
        only on strict improvement, so with the reduction off or
        ``safe`` a continuation cell never collects less than its
        cold-start value.  Other specs keep the per-cell path.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not len(instances):
        raise InvalidParameterError(
            "run_sweep needs at least one network instance: every row is "
            "a mean over the instance set")
    if delta_continuation:
        if param_name != "delta":
            raise ValueError(
                f"delta_continuation chains along the swept δ axis; this "
                f"sweep's param_name is {param_name!r}")
        if not cache:
            raise ValueError(
                "delta_continuation needs the artifact cache (cache=True): "
                "warm payloads for the finer grids flow through it")
    reduction = resolve_reduction(site_reduction)
    if reduction.enabled:
        make_kwargs = _with_site_reduction(make_kwargs,
                                           reduction.transport())
    cells = sweep_cells(algorithms, param_values)
    units = plan_units(config, algorithms, param_name, param_values,
                       n_instances=len(instances), make_energy=make_energy,
                       make_kwargs=make_kwargs, validate=validate,
                       delta_continuation=delta_continuation)
    meta: Dict[str, Any] = {
        "jobs": jobs,
        "continuation_chains": sum(u["kind"] == "chain" for u in units)}
    slots: List[List[Optional[Sample]]] = [[None] * len(instances)
                                           for _ in cells]
    rows: Dict[int, SweepRow] = {}
    reported = 0
    with activated(trace):
        if jobs == 1 or not units:
            results = _map_in_process(units, instances,
                                      config.radio_model(), cache, meta)
        else:
            from repro.experiments.parallel import map_units
            results = map_units(units, instances, config, jobs=jobs,
                                cache=bool(cache), meta=meta)
        # Results arrive in unit order; a cell's row is aggregated over
        # its samples in instance order as soon as its last one lands,
        # and progress covers the contiguous prefix of finished rows.
        for unit, samples in results:
            for i, by_value in zip(unit["instances"], samples):
                for index, sample in zip(unit["cells"], by_value):
                    slots[index][i] = sample
            for index in unit["cells"]:
                if None not in slots[index]:
                    _, value, spec = cells[index]
                    rows[index] = _aggregate_samples(param_name, value, spec,
                                                     slots[index])
            while reported in rows:
                if progress is not None:
                    progress(format_progress(reported, len(cells),
                                             param_name, cells[reported][1],
                                             rows[reported]))
                reported += 1
        ordered = [rows[index] for index in range(len(cells))]
        _emit_sweep_records(config, algorithms, param_name, param_values,
                            ordered, jobs=jobs)
    return SweepResult(config=config, rows=ordered, meta=meta)


#: One per-instance measurement: (volume_gb, planning_time_s, perf dict).
Sample = Tuple[float, float, Optional[Dict[str, Any]]]


def _instance_sample(net: SensorNetwork,
                     spec: AlgoSpec,
                     energy: EnergyModel,
                     radio: Any,
                     *,
                     kwargs: Dict[str, Any],
                     validate: bool,
                     cache: Optional[ArtifactCache] = None) -> Sample:
    """Plan one instance of one cell; the timer wraps only the planning."""
    call_kwargs = kwargs
    if cache is not None:
        # Outside the timer: cached sweeps report pure planning time
        # over prebuilt geometry (see the module docstring).
        call_kwargs = cache.augment_kwargs(net, energy, radio,
                                           spec.method, kwargs)
    with Timer() as t:
        tour = plan_tour(net, energy, radio,
                         method=spec.method, **call_kwargs)
    if validate:
        cross_validate(tour, radio)
    return (tour.collected_volume / MB_PER_GB, t.elapsed,
            tour.meta.get("perf"))


def _aggregate_samples(param_name: str, value: float, spec: AlgoSpec,
                       samples: Sequence[Sample]) -> SweepRow:
    """Aggregate one cell's per-instance samples into its sweep row.

    ``run_sweep`` calls it for every cell with the samples in instance
    order under any ``jobs`` and unit kind, so the float reductions are
    identical.
    """
    volumes = [s[0] for s in samples]
    times = [s[1] for s in samples]
    perf_acc: Dict[str, List[float]] = {}
    perf_engine = None
    for _, _, perf in samples:
        if perf:
            perf_engine = perf.get("engine", perf_engine)
            for key, val in flatten_perf(perf).items():
                perf_acc.setdefault(key, []).append(val)
    perf_mean: Optional[Dict[str, Any]] = None
    if perf_acc:
        perf_mean = {k: float(np.mean(v)) for k, v in perf_acc.items()}
        perf_mean["engine"] = perf_engine
    return SweepRow(
        param_name=param_name,
        param_value=float(value),
        algorithm=spec.name,
        mean_volume_gb=float(np.mean(volumes)),
        std_volume_gb=_population_std(volumes),
        mean_time_s=float(np.mean(times)),
        std_time_s=_population_std(times),
        n_instances=len(samples),
        perf=perf_mean)


def _plan_chain_instance(net: SensorNetwork,
                         spec: AlgoSpec,
                         param_values: Sequence[float],
                         energies: Sequence[EnergyModel],
                         radio: Any,
                         *,
                         kwargs_by_value: Sequence[Dict[str, Any]],
                         validate: bool,
                         cache: ArtifactCache) -> List[Sample]:
    """Plan one instance's δ column coarse→fine with warm continuation.

    Cells run in descending δ order; each finer cell's kwargs gain the
    coarser cell's ``corridor_seed`` (consumed by the artifact cache's
    reduction pre-pass) and ``warm_nodes`` (the projected warm-start
    hint for Algorithm 1).  Returns one sample per parameter value, in
    *value* order; the timer wraps each cell's planning call exactly
    like the per-cell path, so ``mean_time_s`` keeps its semantics.

    :func:`execute_unit` runs it for every chain unit — inline or inside
    a pool worker — so the warm payloads never cross a process boundary
    and continuation rows are bitwise-identical across ``jobs``.
    """
    samples: List[Optional[Sample]] = [None] * len(param_values)
    seed_points: Optional[List[List[float]]] = None
    for i in continuation_order(param_values):
        kwargs = dict(kwargs_by_value[i])
        if seed_points:
            kwargs["corridor_seed"] = seed_points
        call_kwargs = cache.augment_kwargs(net, energies[i], radio,
                                           spec.method, kwargs)
        if seed_points:
            warm = project_warm_nodes(seed_points, call_kwargs["sites"])
            if warm is not None:
                call_kwargs["warm_nodes"] = warm
        with Timer() as t:
            tour = plan_tour(net, energies[i], radio,
                             method=spec.method, **call_kwargs)
        if validate:
            cross_validate(tour, radio)
        samples[i] = (tour.collected_volume / MB_PER_GB, t.elapsed,
                      tour.meta.get("perf"))
        seed_points = tour_seed_points(tour) or seed_points
    return [s for s in samples if s is not None]


def _population_std(values: Sequence[float]) -> float:
    """Population standard deviation (``np.std`` with ``ddof=0``).

    The paper averages each data point over its instance set and reports
    dispersion over that *full population* of instances, so ``ddof=0``
    (divide by n) is the right estimator — not the sample ``ddof=1``.
    A single-instance cell has no dispersion by definition: return an
    exact ``0.0`` instead of trusting the float arithmetic to cancel.
    """
    if len(values) == 1:
        return 0.0
    return float(np.std(np.asarray(values, dtype=float), ddof=0))


__all__ = ["AlgoSpec", "SweepRow", "SweepResult", "run_sweep", "MB_PER_GB",
           "sweep_cells", "format_progress", "_with_site_reduction",
           "_emit_sweep_records", "plan_units", "execute_unit",
           "_instance_sample", "_aggregate_samples",
           "_plan_chain_instance", "_population_std"]
