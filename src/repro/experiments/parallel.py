"""Process-pool transport for ``run_sweep(..., jobs=N)``.

:func:`map_units` runs :func:`~repro.experiments.runner.execute_unit` —
the same function the in-process path calls — over a sweep's work units
on ``jobs`` worker processes and yields the results in unit order.  It
adds transport only:

* **the JSON codec** — the :class:`~repro.experiments.config.ExperimentConfig`
  crosses as its :meth:`~repro.experiments.config.ExperimentConfig.as_dict`
  JSON, the instance set once per worker via
  :func:`repro.network.serialization.networks_to_json` (the JSON round
  trip is bitwise-exact, property-tested, which is what makes worker
  tours identical to in-process tours), each unit as its plain-data
  JSON, and each unit's samples back the same way;
* **per-worker state** — an
  :class:`~repro.experiments.artifacts.ArtifactCache` (geometry is built
  once per (instance, δ) *per worker*), and, when the parent traces or
  keeps a ledger, a :class:`~repro.obs.tracer.Tracer` and a
  :class:`~repro.obs.ledger.Ledger` streaming to JSONL shards;
* **the merge** — cache counters are summed, and the trace and ledger
  shards merge into the parent's tracer and ledger after the sweep
  (:mod:`repro.obs.shards`).

Futures are read in submission order, so the parent consumes results in
unit order no matter which worker finishes first.  Planning time is
measured inside the worker around the planning call only — queue wait
and transport never pollute the paper's Figs. 3(b)/4(b)/5(b) quantity.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.artifacts import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import Sample, Unit, execute_unit
from repro.network.sensor_network import SensorNetwork
from repro.network.serialization import networks_from_json, networks_to_json
from repro.obs.ledger import Ledger, get_ledger, set_ledger
from repro.obs.record import RunRecord
from repro.obs.shards import (
    append_shard,
    merge_ledger_shards,
    merge_trace_shards,
    shard_path,
)
from repro.obs.tracer import Tracer, activated, get_tracer, span

#: Worker-process state installed by :func:`_init_worker` (one per worker).
_WORKER: Dict[str, Any] = {}


def _encode(unit: Unit) -> str:
    """One work unit as JSON; raises if its planner kwargs are not data."""
    try:
        return json.dumps(unit)
    except TypeError as exc:
        raise TypeError(
            f"parallel sweeps ship planner kwargs to workers as JSON; "
            f"make_kwargs returned non-serialisable options for "
            f"{unit['algorithm']!r} at "
            f"{unit['param_name']}={unit['value']:g}: {exc}") from exc


def _init_worker(config_json: str, instances_json: str, cache_enabled: bool,
                 tracing: bool, shard_dir: str, ledgering: bool,
                 ledger_mem: bool) -> None:
    """Per-worker setup: decode instances once, build cache/tracer/ledger.

    When the parent has an active run ledger (``ledgering``), the worker
    installs its own :class:`~repro.obs.ledger.Ledger` streaming to a
    ``ledger-shard-<pid>.jsonl`` file — the facade's ``planner.call``
    records land there and are merged back by the parent.
    """
    config = ExperimentConfig.from_dict(json.loads(config_json))
    _WORKER["radio"] = config.radio_model()
    _WORKER["instances"] = networks_from_json(instances_json)
    _WORKER["cache"] = ArtifactCache() if cache_enabled else None
    _WORKER["tracer"] = Tracer() if tracing else None
    _WORKER["shard_dir"] = shard_dir
    if ledgering:
        set_ledger(Ledger(shard_path(shard_dir, os.getpid(), kind="ledger"),
                          track_memory=ledger_mem))
    else:
        set_ledger(None)        # never inherit a forked parent ledger


def _run_unit(unit_json: str) -> str:
    """Worker entry: :func:`execute_unit` on one unit, results as JSON.

    Runs under the worker's tracer, stamps the worker pid on the unit's
    span and appends the unit's spans to this worker's trace shard (so a
    crashed worker still leaves the spans of every unit it finished).
    Returns the samples — JSON ``[volume_gb, time_s, perf]`` triples, an
    exact float round trip — with the worker's cache counters.
    """
    cache: Optional[ArtifactCache] = _WORKER["cache"]
    tracer: Optional[Tracer] = _WORKER["tracer"]
    with activated(tracer):
        samples = execute_unit(json.loads(unit_json), _WORKER["instances"],
                               _WORKER["radio"], cache)
    pid = os.getpid()
    if tracer is not None:
        records = tracer.records()
        for rec in records:
            if rec["parent"] is None:
                rec["attrs"]["worker"] = pid
        append_shard(records, shard_path(_WORKER["shard_dir"], pid))
        tracer.clear()
    return json.dumps({
        "worker": pid,
        "samples": samples,
        "cache": cache.stats() if cache is not None else None,
    })


def map_units(units: Sequence[Unit],
              instances: Sequence[SensorNetwork],
              config: ExperimentConfig,
              *,
              jobs: int,
              cache: bool,
              meta: Dict[str, Any]
              ) -> Iterator[Tuple[Unit, List[Sample]]]:
    """Yield ``(unit, execute_unit(unit))`` for every unit, in unit order,
    computed on a pool of up to *jobs* worker processes.

    Every unit is encoded before any worker starts, so non-JSON planner
    kwargs raise a descriptive :class:`TypeError` up front.  After the
    last unit, the per-worker artifact-cache counters are summed into
    ``meta["cache"]`` (same keys as
    :meth:`~repro.experiments.artifacts.ArtifactCache.stats`), and the
    trace and ledger shards are merged into the active tracer and ledger
    (``meta["trace_records"]`` / ``meta["ledger_records"]`` count them).
    """
    payloads = [_encode(unit) for unit in units]
    active = get_tracer()
    parent_ledger = get_ledger()
    worker_cache_stats: Dict[int, Dict[str, int]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as shard_dir:
        with span("parallel.sweep", jobs=jobs, units=len(units)), \
                ProcessPoolExecutor(
                    max_workers=min(jobs, len(units)),
                    initializer=_init_worker,
                    initargs=(json.dumps(config.as_dict()),
                              networks_to_json(instances), cache,
                              isinstance(active, Tracer), shard_dir,
                              parent_ledger is not None,
                              bool(parent_ledger is not None
                                   and parent_ledger.track_memory))) as pool:
            futures = [pool.submit(_run_unit, payload)
                       for payload in payloads]
            for unit, future in zip(units, futures):
                result = json.loads(future.result())
                if result["cache"] is not None:
                    worker_cache_stats[result["worker"]] = result["cache"]
                yield unit, result["samples"]
        if isinstance(active, Tracer):
            merged = merge_trace_shards(shard_dir)
            active.ingest(merged)
            meta["trace_records"] = len(merged)
        if parent_ledger is not None:
            # Worker records (the facade's planner.call entries) come
            # home in canonical order before the parent emits its
            # per-cell aggregates, exactly as in process.
            shard_records = merge_ledger_shards(shard_dir)
            parent_ledger.extend(
                RunRecord.from_dict(rec) for rec in shard_records)
            meta["ledger_records"] = len(shard_records)
    if cache:
        meta["cache"] = {key: sum(s[key] for s in worker_cache_stats.values())
                         for key in ArtifactCache().stats()}


__all__ = ["map_units"]
