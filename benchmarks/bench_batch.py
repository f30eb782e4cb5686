"""Batch-engine benchmark: one stacked column vs a per-variant loop.

Plans the *same* paper-scale Fig. 5 capacity column (one instance,
``--variants`` battery capacities, fixed δ) two ways:

1. ``kernel`` — one :func:`plan_algorithm2` call per capacity (the
   per-cell engine the sweeps used before PR 6),
2. ``batch``  — one :func:`plan_algorithm2_batch` call for the whole
   column (``BatchPlannerKernel``: stacked Eq. 11/12 state, union
   dirty-set rescoring, shared distance-row cache),

self-checks that every variant's tour is bitwise-identical between the
two engines, and writes a JSON report with host metadata, the batch
round counter, and the ``kernel.batch.*`` span totals recorded through
:mod:`repro.obs`.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_batch.py --out BENCH_PR6.json

The headline number is ``speedups.batch_vs_kernel`` (column wall-clock
ratio, best of ``--repeats``); PR 6 targets >= 3x at the defaults.
Hovering-site construction is shared and excluded from both timings —
the sweeps memoize it in the artifact cache, so only planning differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List

import numpy as np

from repro.core import plan_algorithm2
from repro.core.batch import plan_algorithm2_batch
from repro.core.hovering import build_hovering_sites
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import make_instances
from repro.obs.tracer import Tracer, activated


def _tour_fingerprint(tour) -> Dict[str, Any]:
    """The deterministic view of one tour (no wall-clock, no counters).

    Engine-internal perf counters are excluded: the two engines count
    work differently (the kernel rescores per cell, the batch engine
    per union dirty set) — the bitwise guarantee covers the tour.
    """
    return {
        "points": tour.points.tolist(),
        "sojourns": tour.sojourns.tolist(),
        "collected": tour.collected.tolist(),
        "n_visited": tour.meta["n_visited"],
        "iterations": tour.meta["iterations"],
    }


def _run_kernel(net, energies, radio, delta, sites, *,
                scoring: str, repeats: int) -> Dict[str, Any]:
    times: List[float] = []
    tours = None
    for _ in range(repeats):
        start = time.perf_counter()
        tours = [plan_algorithm2(net, energy, radio, delta,
                                 scoring=scoring, sites=sites)
                 for energy in energies]
        times.append(time.perf_counter() - start)
    return {"wall_s": min(times),
            "wall_s_all": [round(t, 4) for t in times],
            "tours": tours}


def _run_batch(net, energies, radio, delta, sites, *,
               scoring: str, repeats: int) -> Dict[str, Any]:
    times: List[float] = []
    tours = None
    for _ in range(repeats):
        start = time.perf_counter()
        tours = plan_algorithm2_batch(net, energies, radio, delta,
                                      scoring=scoring, sites=sites)
        times.append(time.perf_counter() - start)
    # One extra *untimed* traced run for the span breakdown, so the
    # timed repeats above pay no tracer overhead (the kernel loop is
    # untraced, keeping the comparison symmetric).
    tracer = Tracer()
    with activated(tracer):
        plan_algorithm2_batch(net, energies, radio, delta,
                              scoring=scoring, sites=sites)
    return {"wall_s": min(times),
            "wall_s_all": [round(t, 4) for t in times],
            "spans": _span_totals(tracer.records()),
            "tours": tours}


def _span_totals(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate the batch engine's span trace into the report shape."""
    count: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    for rec in records:
        count[rec["name"]] += 1
        total[rec["name"]] += rec["dur_s"]
    names = sorted(n for n in count
                   if n.startswith(("batch.", "kernel.batch.")))
    return {name: {"count": count[name],
                   "total_s": round(total[name], 4)}
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=None,
                        help="sensor count |V| (default: paper scale)")
    parser.add_argument("--variants", type=int, default=16,
                        help="capacities in the column (default 16)")
    parser.add_argument("--cap-lo", type=float, default=2e5,
                        help="smallest capacity in J (default 2e5)")
    parser.add_argument("--cap-hi", type=float, default=9.5e5,
                        help="largest capacity in J (default 9.5e5)")
    parser.add_argument("--delta", type=float, default=10.0,
                        help="hovering-grid edge length (default 10 m, "
                             "the paper's Fig. 5 setting)")
    parser.add_argument("--scoring", choices=["ratio", "award"],
                        default="ratio")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per engine, best kept "
                             "(default 3)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)

    config = ExperimentConfig()
    if args.nodes is not None:
        config = config.scaled(n_nodes=args.nodes)
    net = make_instances(config, 1)[0]
    radio = config.radio_model()
    energies = [config.energy_model(capacity=c)
                for c in np.linspace(args.cap_lo, args.cap_hi,
                                     args.variants)]
    sites = build_hovering_sites(net, radio, args.delta)
    print(f"column: |V|={config.n_nodes}, m={len(sites.points)} sites, "
          f"B={args.variants} capacities, delta={args.delta}",
          file=sys.stderr)

    print(f"running kernel ({args.variants} plan calls)...",
          file=sys.stderr)
    kernel = _run_kernel(net, energies, radio, args.delta, sites,
                         scoring=args.scoring, repeats=args.repeats)
    print(f"  {kernel['wall_s']:.2f} s", file=sys.stderr)
    print("running batch (1 stacked call)...", file=sys.stderr)
    batch = _run_batch(net, energies, radio, args.delta, sites,
                       scoring=args.scoring, repeats=args.repeats)
    print(f"  {batch['wall_s']:.2f} s", file=sys.stderr)

    # Determinism self-check: the batch column must be bitwise-identical
    # to the per-variant kernel loop on every deterministic field.
    identical = all(
        _tour_fingerprint(kb) == _tour_fingerprint(bb)
        for kb, bb in zip(kernel["tours"], batch["tours"]))
    if not identical:
        print("FATAL: batch tours differ from kernel tours",
              file=sys.stderr)
        return 1

    round_span = batch["spans"].get("batch.round", {})
    report = {
        "benchmark": "bench_batch",
        "column": {
            "figure": "fig5",
            "n_nodes": config.n_nodes,
            "n_sites": len(sites.points),
            "delta": args.delta,
            "scoring": args.scoring,
            "capacities": [round(float(c), 1) for c in
                           np.linspace(args.cap_lo, args.cap_hi,
                                       args.variants)],
            "iterations_per_variant": [
                t.meta["iterations"] for t in batch["tours"]],
            "repeats": args.repeats,
        },
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "engines": {
            "kernel": {k: v for k, v in kernel.items() if k != "tours"},
            "batch": {k: v for k, v in batch.items() if k != "tours"},
        },
        "batch_rounds": round_span.get("count", 0),
        "speedups": {
            "batch_vs_kernel": round(kernel["wall_s"] / batch["wall_s"],
                                     3),
        },
        "deterministic_tours_identical": True,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
