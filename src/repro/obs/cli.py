"""Command-line interface: ``python -m repro.obs <command>`` / ``repro-bench``.

Subcommands
-----------
``report``
    Summarise a JSONL trace into the per-span-name table (count, total,
    mean, p95, self time); ``--chrome-trace out.json`` additionally
    converts the spans for about://tracing / Perfetto, and
    ``--format json`` emits the statistics machine-readably.
``demo``
    Run one traced ``plan_tour`` (plus an independent simulator flight)
    on a small seeded instance and write the trace — the one-command way
    to produce an inspectable profile, used by the CI trace-artifact job.
``bench``
    Run a registered benchmark suite (:mod:`repro.obs.bench`), writing
    one ledger record per case run to ``--out``.
``compare``
    Diff two ledger JSONL files case-by-case (:mod:`repro.obs.regress`);
    ``--gate`` exits non-zero on any regression, or when the baseline has
    cases and none of them matched, which is how CI gates.

The ``repro-bench`` console script (:func:`bench_main`) exposes the last
two as ``repro-bench run`` / ``repro-bench compare``.

Exit codes: 0 — success; 1 — gate failure; 2 — usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.export import read_jsonl, write_chrome_trace, write_jsonl
from repro.obs.report import render_table, summarize
from repro.obs.tracer import Tracer, activated


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace tooling: summarise and convert planner traces.")
    sub = parser.add_subparsers(dest="command")

    report = sub.add_parser(
        "report", help="summarise a JSONL trace into a per-span table")
    report.add_argument("trace", help="JSONL trace file (one span per line)")
    report.add_argument("--chrome-trace", metavar="OUT.json", default=None,
                        help="also write a Chrome trace_event conversion "
                             "for about://tracing / Perfetto")
    report.add_argument("--format", choices=("table", "json"),
                        default="table", help="report format")
    report.add_argument("--top", type=int, default=0,
                        help="only the N largest span names by total time")

    demo = sub.add_parser(
        "demo", help="run one traced plan_tour and write the trace")
    demo.add_argument("--out", default="trace.jsonl",
                      help="JSONL trace destination (default: trace.jsonl)")
    demo.add_argument("--chrome-trace", metavar="OUT.json", default=None,
                      help="also write the Chrome trace_event conversion")
    demo.add_argument("--nodes", type=int, default=60,
                      help="sensor count of the demo instance (default: 60)")
    demo.add_argument("--method", default="algorithm2",
                      help="planner method to trace (default: algorithm2)")
    demo.add_argument("--delta", type=float, default=40.0,
                      help="hovering-grid edge length in metres")
    demo.add_argument("--seed", type=int, default=7,
                      help="instance seed (default: 7)")

    _add_bench_parser(sub, "bench")
    _add_compare_parser(sub, "compare")
    return parser


def _add_bench_parser(sub, name: str) -> argparse.ArgumentParser:
    bench = sub.add_parser(
        name, help="run a registered benchmark suite into a run ledger")
    bench.add_argument("--suite", default="smoke",
                       help="registered suite name (default: smoke)")
    bench.add_argument("--out", default="bench-ledger.jsonl",
                       help="ledger JSONL destination "
                            "(default: bench-ledger.jsonl)")
    bench.add_argument("--repeats", type=int, default=1,
                       help="timed runs per case (default: 1)")
    bench.add_argument("--mem", action="store_true",
                       help="also record tracemalloc peak memory per run")
    return bench


def _add_compare_parser(sub, name: str) -> argparse.ArgumentParser:
    comp = sub.add_parser(
        name, help="diff two run ledgers with regression thresholds")
    comp.add_argument("old", help="baseline ledger JSONL")
    comp.add_argument("new", help="candidate ledger JSONL")
    comp.add_argument("--gate", action="store_true",
                      help="exit 1 when any case regresses or no baseline "
                           "case matched (CI mode)")
    comp.add_argument("--time-ratio", type=float, default=None,
                      help="max allowed NEW/OLD wall p50 ratio")
    comp.add_argument("--mem-ratio", type=float, default=None,
                      help="max allowed NEW/OLD peak-memory ratio")
    comp.add_argument("--counter-ratio", type=float, default=None,
                      help="max allowed NEW/OLD work-counter ratio")
    comp.add_argument("--min-time-s", type=float, default=None,
                      help="ignore time deltas on cases faster than this")
    comp.add_argument("--format", choices=("table", "json"),
                      default="table", help="report format")
    return comp


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    if not path.exists():
        print(f"error: trace file {args.trace!r} not found", file=sys.stderr)
        return 2
    records = read_jsonl(path)
    stats = summarize(records)
    if args.format == "json":
        print(json.dumps({"version": 1, "spans": len(records),
                          "stats": [s.as_dict() for s in stats]}, indent=2))
    else:
        print(f"{len(records)} span(s) in {path}")
        print(render_table(stats, top=args.top))
    if args.chrome_trace:
        n = write_chrome_trace(records, args.chrome_trace)
        print(f"wrote {n} trace event(s) to {args.chrome_trace}",
              file=sys.stderr)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    # Planner/simulator imports stay local: the obs layer has no upward
    # dependency except inside this convenience command.
    from repro.core.planner import plan_tour
    from repro.energy.model import EnergyModel
    from repro.geometry.region import Region
    from repro.network.generator import NetworkGenerator
    from repro.radio.link import RadioModel
    from repro.sim.simulator import simulate_mission

    generator = NetworkGenerator(Region.square(400.0),
                                 volume_range=(50.0, 500.0))
    net = generator.uniform(args.nodes, seed=args.seed)
    energy = EnergyModel(capacity=6e4, hover_power=150.0,
                         travel_power=100.0, speed=10.0)
    radio = RadioModel(bandwidth=150.0, transmission_range=50.0, altitude=0.0)

    tracer = Tracer()
    tour = plan_tour(net, energy, radio, method=args.method,
                     delta=args.delta, trace=tracer)
    with activated(tracer):
        simulate_mission(tour, radio)

    records = tracer.records()
    write_jsonl(records, args.out)
    if args.chrome_trace:
        write_chrome_trace(records, args.chrome_trace)
    print(f"planned {tour.collected_volume:.1f} MB with {args.method}; "
          f"wrote {len(records)} span(s) to {args.out}"
          + (f" and {args.chrome_trace}" if args.chrome_trace else ""),
          file=sys.stderr)
    print(render_table(summarize(records), top=15))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import run_suite
    from repro.obs.ledger import Ledger
    out = Path(args.out)
    if out.exists():
        out.unlink()                       # ledgers append; start fresh
    try:
        ledger = run_suite(
            args.suite, repeats=args.repeats,
            ledger=Ledger(out, track_memory=args.mem),
            progress=lambda line: print(line, file=sys.stderr))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(ledger)} run record(s) to {out}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs.ledger import Ledger
    from repro.obs.regress import Thresholds, compare
    for path in (args.old, args.new):
        if not Path(path).exists():
            print(f"error: ledger file {path!r} not found", file=sys.stderr)
            return 2
    overrides = {name: value for name, value in (
        ("time_ratio", args.time_ratio), ("mem_ratio", args.mem_ratio),
        ("counter_ratio", args.counter_ratio),
        ("min_time_s", args.min_time_s)) if value is not None}
    report = compare(Ledger.read(args.old), Ledger.read(args.new),
                     Thresholds(**overrides))
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    if args.gate and report.compared_nothing:
        print(f"error: none of the baseline's cases matched {args.new!r} "
              "(empty ledger, or every config hash changed)",
              file=sys.stderr)
        return 1
    if args.gate and not report.passed:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "compare":
        return _cmd_compare(args)
    parser.print_help()
    return 2


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-bench`` entry point: ``run`` and ``compare`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark observatory: run registered suites into a "
                    "run ledger and gate on ledger diffs.")
    sub = parser.add_subparsers(dest="command")
    _add_bench_parser(sub, "run")
    _add_compare_parser(sub, "compare")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_bench(args)
    if args.command == "compare":
        return _cmd_compare(args)
    parser.print_help()
    return 2


__all__ = ["main", "bench_main"]
