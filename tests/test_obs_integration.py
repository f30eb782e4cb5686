"""Integration: tracing is invisible to planner outputs and covers the stack.

Two guarantees the observability layer ships with:

* **identity** — a traced ``plan_tour`` returns a bitwise-identical tour
  to an untraced one, for every registered planner (tracing only reads
  clocks, never touches planner state);
* **coverage** — one traced plan + simulated mission produces spans from
  every instrumented layer (planner facade, greedy policy, kernel,
  orienteering/TSP subroutines, simulator), properly rooted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planner import PLANNERS, plan_tour
from repro.obs.tracer import Tracer, activated, get_tracer
from repro.sim.simulator import simulate_mission


def tours_identical(a, b) -> bool:
    return (np.array_equal(a.points, b.points)
            and np.array_equal(a.sojourns, b.sojourns)
            and np.array_equal(a.collected, b.collected))


@pytest.mark.parametrize("method", sorted(PLANNERS))
def test_traced_plan_bitwise_identical(method, small_net, energy, radio):
    kwargs = {"seed": 5} if method == "algorithm1" else {}
    plain = plan_tour(small_net, energy, radio, method=method,
                      delta=40.0, **kwargs)
    tracer = Tracer()
    traced = plan_tour(small_net, energy, radio, method=method,
                       delta=40.0, trace=tracer, **kwargs)
    assert tours_identical(plain, traced)
    assert len(tracer.records()) > 0
    # meta matches too: perf holds counts only, no wall-clock.
    assert plain.meta == traced.meta


@pytest.mark.parametrize("method", sorted(PLANNERS))
def test_trace_param_leaves_global_tracer_untouched(method, small_net,
                                                    energy, radio):
    before = get_tracer()
    kwargs = {"seed": 1} if method == "algorithm1" else {}
    plan_tour(small_net, energy, radio, method=method, delta=40.0,
              trace=Tracer(), **kwargs)
    assert get_tracer() is before


def test_root_span_wraps_everything(small_net, energy, radio):
    tracer = Tracer()
    plan_tour(small_net, energy, radio, method="algorithm2", delta=40.0,
              trace=tracer)
    records = tracer.records()
    roots = [r for r in records if r["parent"] is None]
    assert [r["name"] for r in roots] == ["planner.plan_tour"]
    assert roots[0]["attrs"] == {"method": "algorithm2",
                                 "n_nodes": small_net.n_nodes}
    # Every other span ultimately parents to the root.
    by_id = {r["id"]: r for r in records}
    for rec in records:
        cur = rec
        while cur["parent"] is not None:
            cur = by_id[cur["parent"]]
        assert cur is roots[0]


def test_span_coverage_of_planner_kernel_layers(small_net, energy, radio):
    tracer = Tracer()
    tour = plan_tour(small_net, energy, radio, method="algorithm2",
                     delta=40.0, trace=tracer)
    with activated(tracer):
        simulate_mission(tour, radio)
    names = {r["name"] for r in tracer.records()}
    for expected in ("planner.plan_tour", "alg2.round", "kernel.rescore",
                     "kernel.insertion", "sim.mission", "sim.hover",
                     "sim.leg"):
        assert expected in names, expected


def test_span_coverage_algorithm1_orienteering(small_net, energy, radio):
    tracer = Tracer()
    plan_tour(small_net, energy, radio, method="algorithm1", delta=40.0,
              seed=5, trace=tracer)
    names = {r["name"] for r in tracer.records()}
    assert {"alg1.reduction", "orienteering.solve"} <= names


def test_span_coverage_algorithm3(small_net, energy, radio):
    tracer = Tracer()
    plan_tour(small_net, energy, radio, method="algorithm3", delta=40.0,
              K=2, trace=tracer)
    names = {r["name"] for r in tracer.records()}
    assert {"alg3.greedy", "alg3.round", "kernel.partial"} <= names


def test_span_coverage_benchmark_christofides(small_net, energy, radio):
    tracer = Tracer()
    plan_tour(small_net, energy, radio, method="benchmark", trace=tracer)
    names = {r["name"] for r in tracer.records()}
    assert {"benchmark.prune", "tsp.christofides"} <= names


def test_run_sweep_trace_records_cells(tiny_net, radio):
    from repro.energy.model import EnergyModel
    from repro.experiments.config import reduced_settings
    from repro.experiments.runner import AlgoSpec, run_sweep

    config = reduced_settings()
    tracer = Tracer()
    result = run_sweep(
        config, [tiny_net], [AlgoSpec(name="Alg2", method="algorithm2")],
        "capacity", [2e4, 4e4],
        make_energy=lambda cfg, v: EnergyModel(
            capacity=v, hover_power=150.0, travel_power=100.0, speed=10.0),
        make_kwargs=lambda cfg, v, spec: {"delta": 40.0},
        validate=False, trace=tracer)
    assert len(result.rows) == 2
    cells = [r for r in tracer.records() if r["name"] == "runner.cell"]
    assert len(cells) == 2
    assert {c["attrs"]["value"] for c in cells} == {2e4, 4e4}
    # Planner roots nest under their cell span.
    cell_ids = {c["id"] for c in cells}
    plans = [r for r in tracer.records()
             if r["name"] == "planner.plan_tour"]
    assert plans and all(p["parent"] in cell_ids for p in plans)


def test_fig5_spans_carry_phase_time():
    # meta["perf"] holds counts only, so a sweep's per-phase time must be
    # in its spans: every round and every kernel.* phase.
    from repro.experiments.config import reduced_settings
    from repro.experiments.fig5 import run_fig5

    config = reduced_settings().scaled(
        n_nodes=22, n_instances=1, capacity_sweep=(1.5e4, 3e4),
        delta=25.0, k_values=(2,), seed=11)
    tracer = Tracer()
    with activated(tracer):
        result = run_fig5(config)
    records = tracer.records()
    names = {r["name"] for r in records}
    assert {"runner.cell", "alg2.round", "alg3.round", "kernel.rescore",
            "kernel.insertion", "kernel.partial"} <= names
    assert all(r["dur_s"] >= 0.0 for r in records
               if r["name"].startswith("kernel."))
    for row in result.rows:
        assert not any(k.startswith("seconds") for k in row.perf)
