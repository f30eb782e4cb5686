"""Registered benchmark suites behind ``repro-bench`` / ``python -m repro.obs bench``.

Adapters over the scenarios the ad-hoc ``benchmarks/bench_*.py`` scripts
time — single planner calls per algorithm, miniature Fig. 3 / Fig. 5
sweeps — packaged as named :class:`BenchCase` entries so one harness can
run them, ledger them, and gate them.  Each case is:

* **self-contained** — a zero-argument callable building its own reduced
  instance from a JSON config payload (which is also what the case's
  ``config_hash`` is computed over, so a changed workload never gets
  silently compared against an old baseline);
* **deterministically counted** — besides wall-clock, every case reports
  the planner kernel's work counters (``kernel.*``), which are identical
  across hosts and are what the CI gate really keys on.

The ``smoke`` suite is the CI-sized selection (seconds, not minutes);
run it with::

    repro-bench run --suite smoke --out new.jsonl
    repro-bench compare baseline.jsonl new.jsonl --gate

``REPRO_BENCH_INJECT_SLEEP_S=<seconds>`` injects a sleep into every
case's timed region — the knob the gate-correctness tests (and the
BENCH_PR8 demo) use to manufacture a regression on demand.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.ledger import Ledger, ledger_active, record_event
from repro.obs.memprof import PeakMemory
from repro.obs.record import config_hash

#: Environment knob: inject this many seconds of sleep into every case's
#: timed region (regression-gate demos and tests only).
ENV_INJECT_SLEEP = "REPRO_BENCH_INJECT_SLEEP_S"


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark scenario.

    ``fn`` runs the workload once and returns a result payload:
    ``{"counters": {...}, "engine": ..., "extra": {...}}`` — counters are
    the deterministic work counts folded into the ledger record.
    """

    name: str
    suites: Tuple[str, ...]
    config: Dict[str, Any]
    fn: Callable[[], Dict[str, Any]]


_REGISTRY: Dict[str, BenchCase] = {}


def register_case(case: BenchCase) -> BenchCase:
    """Add *case* to the registry (name must be unique)."""
    if case.name in _REGISTRY:
        raise ValueError(f"bench case {case.name!r} already registered")
    _REGISTRY[case.name] = case
    return case


def get_case(name: str) -> BenchCase:
    """The registered case *name* (raises ``KeyError`` when unknown)."""
    return _REGISTRY[name]


def suite_cases(suite: str) -> List[BenchCase]:
    """Every case in *suite*, in registration order."""
    return [c for c in _REGISTRY.values() if suite in c.suites]


def suites() -> List[str]:
    """All suite names, sorted."""
    return sorted({s for c in _REGISTRY.values() for s in c.suites})


# -- Harness ------------------------------------------------------------ #


def _injected_sleep_s() -> float:
    """The test-only sleep injected into each timed region (default 0)."""
    raw = os.environ.get(ENV_INJECT_SLEEP)
    return float(raw) if raw else 0.0


def run_case(case: BenchCase, *, repeats: int = 1,
             track_memory: bool = False,
             suite: Optional[str] = None) -> List[Any]:
    """Run *case* ``repeats`` times, emitting one ledger record per run.

    Requires an active ledger (install one with
    :class:`~repro.obs.ledger.ledger_active` or run via
    :func:`run_suite`); returns the emitted records.
    """
    inject_s = _injected_sleep_s()
    records = []
    for repeat in range(repeats):
        with PeakMemory(enabled=track_memory) as mem:
            t0 = time.perf_counter()
            payload = case.fn()
            if inject_s > 0.0:
                time.sleep(inject_s)
            wall_s = time.perf_counter() - t0
        rec = record_event(
            "bench.case",
            label=case.name,
            config_hash=config_hash(case.config),
            engine=payload.get("engine"),
            wall_s=wall_s,
            metrics={"counters": dict(payload.get("counters", {}))},
            mem_peak_bytes=mem.peak_bytes,
            extra={"suite": suite, "repeat": repeat,
                   **payload.get("extra", {})})
        if rec is not None:
            records.append(rec)
    return records


def run_suite(suite: str, *, repeats: int = 1,
              ledger: Optional[Ledger] = None,
              progress: Optional[Callable[[str], None]] = None) -> Ledger:
    """Run every case of *suite*; returns the ledger holding the records.

    A fresh in-memory :class:`Ledger` is created when none is given; pass
    ``Ledger(path)`` to stream records to a JSONL file as they complete.
    """
    cases = suite_cases(suite)
    if not cases:
        raise ValueError(f"unknown or empty bench suite {suite!r}; "
                         f"available: {suites()}")
    target = ledger if ledger is not None else Ledger()
    with ledger_active(target):
        for case in cases:
            t0 = time.perf_counter()
            run_case(case, repeats=repeats,
                     track_memory=target.track_memory, suite=suite)
            if progress is not None:
                progress(f"{case.name}: {repeats} run(s) in "
                         f"{time.perf_counter() - t0:.2f} s")
    return target


# -- Registered cases --------------------------------------------------- #
#
# Workload imports stay inside the case functions: the obs layer has no
# upward dependency on core/experiments except when a case actually runs
# (the `cli.py demo` discipline).


def _tour_counters(tour: Any) -> Dict[str, float]:
    """The kernel work counters of one planned tour, dotted-namespaced."""
    from repro.obs.record import perf_counter_metrics
    return perf_counter_metrics(tour.meta.get("perf") or {})


def _rows_counters(rows: Any) -> Dict[str, float]:
    """Summed kernel work counters over a sweep's aggregated rows."""
    acc: Dict[str, float] = {}
    for row in rows:
        for key, value in (row.perf or {}).items():
            if key == "engine":
                continue
            name = f"kernel.{key}"
            acc[name] = acc.get(name, 0.0) + float(value)
    return acc


#: Shared reduced-scale payloads (also the hashed case configs).
_PLAN_CONFIG: Dict[str, Any] = {
    "n_nodes": 60, "n_instances": 1, "seed": 20200518, "delta": 20.0}
_SWEEP_CONFIG: Dict[str, Any] = {
    "n_nodes": 40, "n_instances": 2, "seed": 20200518, "delta": 20.0,
    "capacity_sweep": [3e4, 6e4], "k_values": [2]}
#: GRASP seed of the ``plan.alg1`` case: an unseeded plan would draw a
#: fresh RNG tape per run and make its ``grasp.ls_*`` counters vary.
_ALG1_SEED = 1


def _plan_workload(method: str, **kwargs: Any) -> Dict[str, Any]:
    """Plan one reduced instance with *method*; returns the case payload."""
    from repro.core.planner import plan_tour
    from repro.experiments.config import reduced_settings
    from repro.experiments.instances import make_instances
    config = reduced_settings().scaled(
        n_nodes=_PLAN_CONFIG["n_nodes"],
        n_instances=_PLAN_CONFIG["n_instances"],
        seed=_PLAN_CONFIG["seed"], delta=_PLAN_CONFIG["delta"])
    net = make_instances(config)[0]
    tour = plan_tour(net, config.energy_model(), config.radio_model(),
                     method=method, delta=config.delta, **kwargs)
    perf = tour.meta.get("perf") or {}
    return {"counters": _tour_counters(tour),
            "engine": perf.get("engine"),
            "extra": {"collected_gb": round(tour.collected_volume / 1e3, 3),
                      "n_hovers": tour.n_hovers}}


def _sweep_config() -> Any:
    from repro.experiments.config import reduced_settings
    return reduced_settings().scaled(
        n_nodes=_SWEEP_CONFIG["n_nodes"],
        n_instances=_SWEEP_CONFIG["n_instances"],
        seed=_SWEEP_CONFIG["seed"], delta=_SWEEP_CONFIG["delta"],
        capacity_sweep=tuple(_SWEEP_CONFIG["capacity_sweep"]),
        k_values=tuple(_SWEEP_CONFIG["k_values"]))


def _fig3_workload() -> Dict[str, Any]:
    """Miniature Fig. 3 capacity sweep (sequential, cached)."""
    from repro.experiments.fig3 import run_fig3
    result = run_fig3(_sweep_config(), n_restarts=1, jobs=1, cache=True)
    return {"counters": _rows_counters(result.rows),
            "extra": {"rows": len(result.rows)}}


def _fig5_workload() -> Dict[str, Any]:
    """Miniature Fig. 5 capacity sweep (sequential, cached)."""
    from repro.experiments.fig5 import run_fig5
    result = run_fig5(_sweep_config(), jobs=1, cache=True)
    return {"counters": _rows_counters(result.rows),
            "extra": {"rows": len(result.rows)}}


register_case(BenchCase(
    name="plan.alg1", suites=("smoke",),
    config={**_PLAN_CONFIG, "method": "algorithm1",
            "planner_seed": _ALG1_SEED},
    fn=lambda: _plan_workload("algorithm1", seed=_ALG1_SEED)))
register_case(BenchCase(
    name="plan.alg2_kernel", suites=("smoke",),
    config={**_PLAN_CONFIG, "method": "algorithm2"},
    fn=lambda: _plan_workload("algorithm2")))
register_case(BenchCase(
    name="plan.alg2_reduce", suites=("smoke",),
    config={**_PLAN_CONFIG, "method": "algorithm2",
            "site_reduction": "aggressive"},
    fn=lambda: _plan_workload("algorithm2", site_reduction="aggressive")))
register_case(BenchCase(
    name="plan.alg3_kernel", suites=("smoke",),
    config={**_PLAN_CONFIG, "method": "algorithm3", "K": 2},
    fn=lambda: _plan_workload("algorithm3", K=2)))
register_case(BenchCase(
    name="plan.benchmark", suites=("smoke",),
    config={**_PLAN_CONFIG, "method": "benchmark"},
    fn=lambda: _plan_workload("benchmark")))
register_case(BenchCase(
    name="sweep.fig3", suites=("smoke",),
    config={**_SWEEP_CONFIG, "figure": "fig3"},
    fn=_fig3_workload))
register_case(BenchCase(
    name="sweep.fig5", suites=("smoke",),
    config={**_SWEEP_CONFIG, "figure": "fig5"},
    fn=_fig5_workload))


__all__ = ["BenchCase", "register_case", "get_case", "suite_cases",
           "suites", "run_case", "run_suite", "ENV_INJECT_SLEEP"]
