"""One fresh benchmark process: set up, time a workload, report.

``run.py`` starts this script once per set-up sample and once per timed
run, and reads the JSON object it prints as its last stdout line::

    python3 benchmarks/e2e/child.py '{"root": ..., "workload": ..., ...}'

Spec keys: ``root`` (checkout root), ``workload``, ``seed``, ``smoke``,
``mode``, ``seconds`` and ``trace``.

``mode="setup"`` only sets up.  ``mode="bench"`` first warms up with one
untimed runner call on a ``--smoke``-size network, then times the public
figure runner (tracing off) on one instance per call, round-robin over
the workload's instances, in whole rounds until another round would
overrun ``seconds`` counted from the start of the process; at least one
round runs.  It reports every call's wall time, planning time and rows,
the process's peak RSS, and each instance's
:func:`repro.core.bounds.collection_upper_bound` per row, computed after
the timed rounds.

With ``trace`` exactly one round runs, over the first half of the
instances so that the run takes about as long as an untraced one, and
each timed call is followed by the traced replay of the same instance.
The replay walks the instance's cells in canonical order through each
layer's public function (artifact cache, planner facade, simulator) with
a span around every call, so the per-layer times come from this file,
not from the program.  It reports the engine each replayed tour ran on,
so ``run.py`` can check that the replay took the runner's path.

Every timing is paired with a calibration: a fixed kernel of
Python-level and NumPy work owned by this file, timed right before and
right after the timed call.  The host's speed drifts by tens of percent
over minutes; the program and the kernel slow down together, so
``run.py`` divides one by the other (see ``CALIBRATION_REF_S`` there).

Set-up is timed from the start of :func:`main`: importing the program
plus generating the instance set, the cost every fresh process pays.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from workloads import WORKLOADS, size_of

#: Planner method → the replay layer its ``plan_tour`` calls are charged to.
PLAN_LAYERS = {"algorithm1": "alg1.plan", "algorithm2": "alg2.plan",
               "algorithm3": "alg3.plan", "benchmark": "baseline.plan"}

#: Kernel repetitions per calibration sample (about 20 ms in all).
CALIBRATION_REPEATS = 3


class Calibration:
    """A fixed CPU kernel whose time tracks the host's momentary speed."""

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(20200518)
        self._np = np
        self._vec = rng.random(100_000)
        self._idx = rng.integers(0, self._vec.size, 20_000)
        self._mat = rng.random((160, 160))
        self.sample()  # first-call costs stay out of the samples

    def _kernel(self) -> None:
        total = 0
        table: Dict[int, int] = {}
        for i in range(30_000):
            total += i * i
            table[i & 1023] = total
        for _ in range(8):
            w = self._vec * 1.0001 + 0.5
            float(w[self._idx].sum())
            int(self._np.argmax(w))
        self._mat @ self._mat

    def sample(self) -> float:
        """Seconds for one calibration sample."""
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_REPEATS):
            self._kernel()
        return time.perf_counter() - t0

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(fn(), seconds, calibration seconds)``; the calibration is
        the mean of one sample right before and one right after."""
        before = self.sample()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        return result, seconds, (before + self.sample()) / 2


class Spans:
    """In-memory span totals: seconds per layer name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


def _array_bytes(obj: Any) -> int:
    """Bytes held by the numpy arrays among *obj*'s attributes."""
    import numpy as np
    return sum(v.nbytes for v in vars(obj).values()
               if isinstance(v, np.ndarray))


def _setup(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Import the program and build the workload's instances."""
    import repro
    from repro.experiments.config import reduced_settings
    from repro.experiments.instances import make_instances

    src = (Path(spec["root"]) / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from the checkout's {src}")
    workload = WORKLOADS[spec["workload"]]
    size = size_of(workload, spec["smoke"])
    overrides = {"n_instances": size["n_instances"], "seed": spec["seed"]}
    if size["n_nodes"] is not None:
        overrides["n_nodes"] = size["n_nodes"]
    config = reduced_settings().scaled(**overrides)
    t0 = time.perf_counter()
    instances = make_instances(config)
    generate_s = time.perf_counter() - t0
    return {"workload": workload, "config": config, "instances": instances,
            "generate_s": generate_s}


def figure_plan(figure: str, config: Any) -> Tuple[list, tuple,
                                                   Callable, Callable]:
    """``(algorithms, param_values, make_energy, make_kwargs)`` of a runner.

    Mirrors what ``run_fig3`` / ``run_fig4`` pass to ``run_sweep`` with
    their defaults, so the replay plans the same cells.
    """
    from repro.experiments.fig3 import fig3_algorithms
    from repro.experiments.fig4 import fig4_algorithms

    def with_delta(value: float, spec: Any) -> Dict[str, Any]:
        kwargs = dict(spec.kwargs)
        if spec.method != "benchmark":
            kwargs["delta"] = value
        return kwargs

    if figure == "fig3":
        return (fig3_algorithms(config), config.capacity_sweep,
                lambda v: config.energy_model(capacity=v),
                lambda v, spec: dict(spec.kwargs))
    return (fig4_algorithms(config), config.delta_sweep,
            lambda v: config.energy_model(), with_delta)


def _cells(ctx: Dict[str, Any]) -> list:
    from repro.experiments.runner import sweep_cells
    algorithms, values, _, _ = figure_plan(ctx["workload"].figure,
                                           ctx["config"])
    return sweep_cells(algorithms, values)


def _runner(figure: str) -> Callable:
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import run_fig4
    return {"fig3": run_fig3, "fig4": run_fig4}[figure]


def _call(ctx: Dict[str, Any], net: Any, cal: Calibration) -> Dict[str, Any]:
    """One timed figure-runner call on one instance, with its rows."""
    runner = _runner(ctx["workload"].figure)
    result, wall_s, calib_s = cal.timed(
        lambda: runner(ctx["config"], [net]))
    cells = _cells(ctx)
    if [r.algorithm for r in result.rows] != [s.name for _, _, s in cells]:
        raise RuntimeError("runner rows are not in canonical cell order")
    return {"wall_s": wall_s, "calib_s": calib_s,
            "planning_s": sum(r.mean_time_s for r in result.rows),
            "rows": [{"method": spec.method, "det": row.deterministic_dict()}
                     for row, (_, _, spec) in zip(result.rows, cells)],
            "cache": result.meta.get("cache")}


def bench(ctx: Dict[str, Any], seconds: float, trace: bool,
          t_start: float) -> Dict[str, Any]:
    """Whole rounds of timed calls (see the module docstring)."""
    from repro.experiments.instances import make_instances

    cal = Calibration()
    runner = _runner(ctx["workload"].figure)
    # Warm-up: lazy imports and first-call allocations stay untimed.
    small = ctx["config"].scaled(
        n_nodes=size_of(ctx["workload"], True)["n_nodes"], n_instances=1)
    runner(small, make_instances(small))
    instances = ctx["instances"]
    if trace:
        instances = instances[:(len(instances) + 1) // 2]
    calls: List[List[Dict[str, Any]]] = [[] for _ in instances]
    replays: List[Dict[str, Any]] = []
    while True:
        t_round = time.perf_counter()
        for i, net in enumerate(instances):
            try:
                calls[i].append(_call(ctx, net, cal))
            except Exception:  # counted by run.py as failed cells
                calls[i].append({"error": traceback.format_exc()})
            if trace:
                replays.append(_safe(lambda: replay_instance(ctx, net, cal)))
        now = time.perf_counter()
        if trace or now - t_start + (now - t_round) > seconds:
            break
    bounds = [_safe(lambda: {"bounds_gb": _row_bounds(ctx, net)})
              for net in instances]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"calls": calls, "replays": replays, "bounds": bounds,
            "peak_rss_mb": peak_rss_mb}


def _safe(fn: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    try:
        return fn()
    except Exception:  # counted by run.py as failed cells
        return {"error": traceback.format_exc()}


def _row_bounds(ctx: Dict[str, Any], net: Any) -> List[float]:
    """Per cell, the instance's collection upper bound (GB)."""
    from repro.core.bounds import collection_upper_bound
    from repro.core.hovering import build_hovering_sites
    from repro.experiments.runner import MB_PER_GB

    config = ctx["config"]
    radio = config.radio_model()
    _, _, make_energy, make_kwargs = figure_plan(ctx["workload"].figure,
                                                 config)
    # The bound depends on the cell only through its δ and energy model,
    # so most cells share one.
    by_point: Dict[Tuple[float, Any], float] = {}
    sites: Dict[float, Any] = {}
    bounds = []
    for _, value, spec in _cells(ctx):
        # The baseline has no grid of its own; any δ-grid gives a valid
        # hover bound for it (every site drains at least one sensor at B).
        delta = float(make_kwargs(value, spec).get("delta", config.delta))
        energy = make_energy(value)
        if (delta, energy) not in by_point:
            if delta not in sites:
                sites[delta] = build_hovering_sites(net, radio, delta)
            report = collection_upper_bound(net, energy, radio, delta=delta,
                                            sites=sites[delta])
            by_point[(delta, energy)] = report.value / MB_PER_GB
        bounds.append(by_point[(delta, energy)])
    return bounds


def replay_instance(ctx: Dict[str, Any], net: Any,
                    cal: Calibration) -> Dict[str, Any]:
    """The traced replay of one instance (see the module docstring)."""
    import numpy as np

    from repro.core.planner import plan_tour
    from repro.experiments.artifacts import CACHEABLE_METHODS, ArtifactCache
    from repro.experiments.runner import MB_PER_GB
    from repro.geometry.distance import pairwise_distances
    from repro.obs.record import flatten_perf
    from repro.sim.validate import cross_validate
    from repro.tsp.christofides import christofides_tour

    config = ctx["config"]
    radio = config.radio_model()
    _, _, make_energy, make_kwargs = figure_plan(ctx["workload"].figure,
                                                 config)
    spans = Spans()
    cache = ArtifactCache()
    counts: Dict[str, float] = defaultdict(float)
    perf: Dict[str, Dict[str, Any]] = {}
    volumes = []
    engines = []

    def walk() -> None:
        for _, value, spec in _cells(ctx):
            energy = make_energy(value)
            kwargs = make_kwargs(value, spec)
            call = dict(kwargs)
            if spec.method in CACHEABLE_METHODS:
                delta = float(kwargs["delta"])
                before = cache.misses
                with spans.span("hovering.build"):
                    sites = cache.sites(net, radio, delta)
                if cache.misses > before:
                    counts["hovering.calls"] += 1
                    counts["hovering.sites"] += sites.n_sites
                    counts["hovering.bytes"] += _array_bytes(sites)
                call["sites"] = sites
            if spec.method == "algorithm1":
                if kwargs.get("overlap", "conflict") == "conflict":
                    before = cache.misses
                    with spans.span("conflicts.build"):
                        lists = cache.conflict_neighbors(net, radio, delta,
                                                         sites=sites)
                    if cache.misses > before:
                        counts["conflicts.pairs"] += (
                            sum(len(x) for x in lists) // 2)
                    call["conflict_neighbors"] = lists
                before = cache.misses
                with spans.span("auxgraph.build"):
                    graph = cache.graph(net, radio, delta, energy,
                                        sites=sites)
                with spans.span("auxgraph.transpose"):
                    getattr(graph, "costs_t", None)
                if cache.misses > before:
                    counts["auxgraph.bytes"] += _array_bytes(graph)
                call["graph"] = graph
            with spans.span(PLAN_LAYERS[spec.method]):
                tour = plan_tour(net, energy, radio, method=spec.method,
                                 **call)
            with spans.span("sim.validate"):
                cross_validate(tour, radio)
            volumes.append(tour.collected_volume / MB_PER_GB)
            engines.append((tour.meta.get("perf") or {}).get("engine"))
            acc = perf.setdefault(spec.method,
                                  {"tours": 0, "sums": {}, "present": {}})
            acc["tours"] += 1
            tour_perf = flatten_perf(tour.meta.get("perf") or {})
            for key, val in tour_perf.items():
                acc["sums"][key] = acc["sums"].get(key, 0.0) + val
                acc["present"][key] = acc["present"].get(key, 0) + 1

    _, total_s, calib_s = cal.timed(walk)
    # Every span so far lies inside the traced total; the Christofides
    # probe below is outside it.
    self_s = total_s - sum(spans.seconds.values())

    # One extra Christofides call, outside the traced total: the
    # baseline's tour-construction share without its pruning loop.
    dist = pairwise_distances(np.vstack([net.depot[None, :], net.positions]))
    with spans.span("tsp.christofides"):
        christofides_tour(dist, start=0)
    return {"total_s": total_s, "self_s": self_s, "calib_s": calib_s,
            "layers": dict(spans.seconds), "counts": dict(counts),
            "perf": perf, "volumes": volumes, "engines": engines}


def main(argv: List[str]) -> int:
    t_start = time.perf_counter()
    spec = json.loads(argv[1])
    out: Dict[str, Any] = {"mode": spec["mode"]}
    try:
        ctx = _setup(spec)
        out["setup_s"] = time.perf_counter() - t_start
        out["setup_calib_s"] = Calibration().sample()
        out["generate_s"] = ctx["generate_s"]
        out["cells"] = len(_cells(ctx))
        if spec["mode"] == "bench":
            out.update(bench(ctx, spec["seconds"], spec["trace"], t_start))
    except Exception:  # reported to run.py, which counts the failed cells
        out["error"] = traceback.format_exc()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
