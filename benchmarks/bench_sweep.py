"""Sweep-executor benchmark: jobs=1 vs jobs=N, artifact cache on vs off.

Times the *same* miniature Fig. 3 campaign under three execution modes:

1. ``seq-nocache``   — jobs=1, geometry rebuilt every cell (paper-literal),
2. ``seq-cache``     — jobs=1, per-(instance, δ) artifact cache,
3. ``par-cache``     — jobs=N process pool, per-worker artifact cache,

self-checks that all three produce bitwise-identical deterministic rows
(:meth:`SweepRow.deterministic_dict`), and writes a JSON report with host
metadata.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_sweep.py --out BENCH_PR5.json

Speedup caveat: mode 3 only beats mode 2 when the host has spare cores
(``host.cpu_count`` is recorded in the report — on a single-core runner
the pool adds IPC overhead and *loses*); the cache win in mode 2 vs
mode 1 is CPU-count independent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict

from repro.experiments.config import reduced_settings
from repro.experiments.fig3 import run_fig3


def _bench_config(nodes: int, instances: int, sweep_points: int):
    capacities = tuple(3e4 + 2e4 * i for i in range(sweep_points))
    return reduced_settings().scaled(
        n_nodes=nodes, n_instances=instances,
        capacity_sweep=capacities, delta=15.0, seed=20200518)


def _run_mode(config, *, jobs: int, cache: bool,
              repeats: int) -> Dict[str, Any]:
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_fig3(config, n_restarts=1, jobs=jobs, cache=cache)
        times.append(time.perf_counter() - start)
    return {
        "jobs": jobs,
        "cache": cache,
        "wall_s": min(times),
        "wall_s_all": [round(t, 4) for t in times],
        # Hit/miss/artifact counts, summed over workers under any jobs.
        "cache_stats": result.meta.get("cache"),
        "rows": [row.deterministic_dict() for row in result.rows],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=80,
                        help="sensor count |V| (default 80)")
    parser.add_argument("--instances", type=int, default=3,
                        help="instances per data point (default 3)")
    parser.add_argument("--sweep-points", type=int, default=4,
                        help="capacity values in the sweep (default 4)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel mode (default 4)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed repetitions per mode, best kept "
                             "(default 2)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)

    config = _bench_config(args.nodes, args.instances, args.sweep_points)
    modes = {
        "seq-nocache": dict(jobs=1, cache=False),
        "seq-cache": dict(jobs=1, cache=True),
        "par-cache": dict(jobs=args.jobs, cache=True),
    }
    results: Dict[str, Dict[str, Any]] = {}
    for name, opts in modes.items():
        print(f"running {name} (jobs={opts['jobs']}, "
              f"cache={opts['cache']})...", file=sys.stderr)
        results[name] = _run_mode(config, repeats=args.repeats, **opts)
        print(f"  {results[name]['wall_s']:.2f} s", file=sys.stderr)

    # Determinism self-check: every mode must agree bitwise on the
    # deterministic row view; a mismatch means the executor is broken.
    baseline = results["seq-nocache"]["rows"]
    for name, mode in results.items():
        if mode["rows"] != baseline:
            print(f"FATAL: {name} rows differ from seq-nocache",
                  file=sys.stderr)
            return 1

    report = {
        "benchmark": "bench_sweep",
        "campaign": {
            "figure": "fig3",
            "n_nodes": args.nodes,
            "n_instances": args.instances,
            "capacity_sweep": list(config.capacity_sweep),
            "delta": config.delta,
            "cells": 2 * args.sweep_points,
            "repeats": args.repeats,
        },
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "modes": {
            name: {k: v for k, v in mode.items() if k != "rows"}
            for name, mode in results.items()
        },
        "speedups": {
            "cache_at_jobs1": round(results["seq-nocache"]["wall_s"]
                                    / results["seq-cache"]["wall_s"], 3),
            f"jobs{args.jobs}_vs_jobs1": round(
                results["seq-cache"]["wall_s"]
                / results["par-cache"]["wall_s"], 3),
        },
        "deterministic_rows_identical": True,
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
