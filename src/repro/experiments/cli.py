"""Command-line entry point: ``repro-experiments`` / ``python -m repro.experiments``.

Examples
--------
Run the reduced-scale Fig. 4 sweep and print markdown tables::

    repro-experiments fig4 --scale reduced

Run all figures at reduced scale, writing CSVs into ``results/``::

    repro-experiments all --scale reduced --out results/

Full paper scale (slow — hours, exactly like the paper's own runs)::

    repro-experiments fig3 --scale paper
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Dict

from repro.experiments.ascii_plot import render_sweep
from repro.experiments.claims import (
    check_fig3_claims,
    check_fig4_claims,
    check_fig5_claims,
    claims_to_markdown,
)
from repro.experiments.config import ExperimentConfig, paper_settings, reduced_settings
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.runner import SweepResult
from repro.experiments.tables import rows_to_csv, rows_to_markdown
from repro.obs.tracer import activated
from repro.utils.errors import InvalidParameterError

RUNNERS: Dict[str, Callable[..., SweepResult]] = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
}

CLAIM_CHECKERS = {
    "fig3": check_fig3_claims,
    "fig4": check_fig4_claims,
    "fig5": check_fig5_claims,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's evaluation figures.")
    parser.add_argument("figure", choices=[*RUNNERS, "all", "report"],
                        help="which figure to reproduce, or 'report' to "
                             "regenerate the markdown report from the CSVs "
                             "in --out")
    parser.add_argument("--ascii", action="store_true",
                        help="also render the two panels as terminal charts")
    parser.add_argument("--svg", type=pathlib.Path, default=None,
                        help="directory to write per-panel SVG charts into")
    parser.add_argument("--claims", action="store_true",
                        help="check the paper's headline claims against "
                             "the measured results and print a PASS/FAIL table")
    parser.add_argument("--scale", choices=["paper", "reduced"],
                        default="reduced",
                        help="paper-exact or laptop-scale settings")
    parser.add_argument("--instances", type=int, default=None,
                        help="override the number of random instances")
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the sensor count |V|")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory for CSV output (default: print only)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        help="record a structured span trace of the runs "
                             "and write it as JSONL to this path (inspect "
                             "with 'python -m repro.obs report'); with "
                             "--jobs N worker shards are merged in")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes per sweep (default 1: "
                             "in-process); results are identical to "
                             "--jobs 1 up to measured wall-clock")
    parser.add_argument("--no-cache", action="store_true",
                        help="rebuild per-instance geometry every cell "
                             "instead of memoizing it across the sweep "
                             "(paper-literal per-cell timings)")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = paper_settings() if args.scale == "paper" else reduced_settings()
    overrides = {}
    if args.instances is not None:
        overrides["n_instances"] = args.instances
    if args.nodes is not None:
        overrides["n_nodes"] = args.nodes
    if args.seed is not None:
        overrides["seed"] = args.seed
    return config.scaled(**overrides) if overrides else config


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    try:
        config = _config_from_args(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.figure == "report":
        from repro.experiments.report import generate_report
        directory = args.out if args.out is not None else pathlib.Path("results")
        print(generate_report(directory, label=config.label,
                              ascii_charts=args.ascii))
        return 0
    progress = None if args.quiet else (lambda line: print("  " + line,
                                                           file=sys.stderr))
    tracer = None
    if args.trace is not None:
        from repro.obs.tracer import Tracer
        tracer = Tracer()
    figures = list(RUNNERS) if args.figure == "all" else [args.figure]
    for fig in figures:
        print(f"== {fig} ({config.label} scale, |V|={config.n_nodes}, "
              f"{config.n_instances} instances, jobs={args.jobs}) ==",
              file=sys.stderr)
        with activated(tracer):
            result = RUNNERS[fig](config, progress=progress,
                                  jobs=args.jobs, cache=not args.no_cache)
        print(rows_to_markdown(result, title=f"{fig} — {config.label} scale"))
        if args.ascii:
            print(render_sweep(result, panel="volume"))
            print()
            print(render_sweep(result, panel="time"))
            print()
        if args.claims:
            print(claims_to_markdown(CLAIM_CHECKERS[fig](result)))
            print()
        if args.svg is not None:
            from repro.experiments.svg_plot import render_sweep_svg
            args.svg.mkdir(parents=True, exist_ok=True)
            for panel, suffix in (("volume", "a"), ("time", "b")):
                path = args.svg / f"{fig}{suffix}_{config.label}.svg"
                path.write_text(render_sweep_svg(
                    result, panel=panel,
                    title=f"{fig}({suffix}) — {config.label} scale"))
                print(f"wrote {path}", file=sys.stderr)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"{fig}_{config.label}.csv"
            path.write_text(rows_to_csv(result))
            print(f"wrote {path}", file=sys.stderr)
    if tracer is not None:
        from repro.obs.export import write_jsonl
        write_jsonl(tracer.records(), args.trace)
        print(f"wrote {args.trace} ({len(tracer.records())} spans)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())


__all__ = ["main", "RUNNERS", "CLAIM_CHECKERS"]
