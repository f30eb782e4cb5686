"""Command-line interface: ``python -m repro.analysis check [paths]``.

Exit codes: 0 — clean (or everything baselined); 1 — non-baselined
findings; 2 — usage error.  ``--update-baseline`` rewrites
``analysis-baseline.json`` with the current findings so a tree with known
debt can adopt the gate immediately and burn the baseline down over time.

``--flow`` additionally runs the interprocedural rules
(:mod:`repro.analysis.flow`): the invocation ``python -m repro.analysis
--flow`` is shorthand for ``check --flow`` (leading-option arguments
imply the ``check`` subcommand).  ``--callgraph-out FILE`` exports the
run's call graph (``.dot`` for GraphViz, anything else as JSON) and
``--stats`` appends a one-line run summary (files, functions, edges,
findings by rule).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.engine import Baseline, Finding, Project, render_json, render_text, run_rules
from repro.analysis.rules import default_rules

#: Default baseline file, relative to the project root.
BASELINE_NAME = "analysis-baseline.json"


def check_paths(root: Path, paths: Sequence[Path], *,
                flow: bool = False) -> List[Finding]:
    """Run every default rule over *paths*; returns unfiltered findings.

    Library entry point used by the test-suite and pre-commit hooks; the
    CLI adds baseline handling on top.  ``flow=True`` adds the
    interprocedural rules (call graph + dataflow).
    """
    project = Project.load(root, paths)
    return run_rules(project, _selected_rules(flow))


def _selected_rules(flow: bool):
    rules = default_rules()
    if flow:
        from repro.analysis.flow import flow_rules
        rules = rules + flow_rules()
    return rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: project-specific static analysis "
                    "(planner invariants, RNG discipline, hot-path purity, "
                    "interprocedural flow rules)")
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser(
        "check", help="run all rules over the given paths (default: src)")
    check.add_argument("paths", nargs="*", default=["src"],
                       help="files or directories to analyse")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
    check.add_argument("--root", default=".",
                       help="project root holding PAPER.md, docs/ and the "
                            "baseline (default: cwd)")
    check.add_argument("--baseline", default=None,
                       help=f"baseline file (default: <root>/{BASELINE_NAME})")
    check.add_argument("--update-baseline", action="store_true",
                       help="rewrite the baseline with the current findings "
                            "and exit 0")
    check.add_argument("--flow", action="store_true",
                       help="also run the interprocedural flow rules "
                            "(determinism taint, transport purity, "
                            "batch-surface parity)")
    check.add_argument("--callgraph-out", default=None, metavar="FILE",
                       help="export the call graph (.dot -> GraphViz, "
                            "else JSON); implies building it")
    check.add_argument("--stats", action="store_true",
                       help="print a run summary line (files, functions, "
                            "call-graph edges, findings by rule)")

    sub.add_parser("rules", help="list the shipped rules")
    return parser


def _cmd_rules() -> int:
    from repro.analysis.flow import flow_rules
    for rule in default_rules():
        print(f"{rule.rule_id:18} {rule.description}")
    for rule in flow_rules():
        print(f"{rule.rule_id:18} [flow] {rule.description}")
    return 0


def _export_callgraph(project: Project, out: str) -> None:
    from repro.analysis.flow import FlowContext
    graph = FlowContext.for_project(project).graph
    path = Path(out)
    if path.suffix == ".dot":
        path.write_text(graph.to_dot(), encoding="utf-8")
    else:
        path.write_text(json.dumps(graph.to_json_dict(), indent=2) + "\n",
                        encoding="utf-8")


def _stats_line(project: Project, findings: Sequence[Finding]) -> str:
    from repro.analysis.flow import FlowContext
    graph = FlowContext.for_project(project).graph
    by_rule: dict = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    per_rule = " ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
    return (f"stats: files={len(project.modules)} "
            f"functions={len(graph.functions)} "
            f"edges={len(graph.edges)} "
            f"findings={len(findings)}"
            + (f" [{per_rule}]" if per_rule else ""))


def _cmd_check(args: argparse.Namespace) -> int:
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"error: root {args.root!r} is not a directory",
              file=sys.stderr)
        return 2
    baseline_path = (Path(args.baseline) if args.baseline
                     else root / BASELINE_NAME)
    project = Project.load(root, [Path(p) for p in args.paths])
    findings = run_rules(project, _selected_rules(args.flow))

    if args.callgraph_out:
        _export_callgraph(project, args.callgraph_out)

    if args.update_baseline:
        Baseline.write(baseline_path, findings)
        print(f"baseline updated: {len(findings)} finding(s) recorded in "
              f"{baseline_path}")
        return 0

    baseline = Baseline.load(baseline_path)
    new, baselined = baseline.split(findings)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(new, baselined=len(baselined),
                   checked=len(project.modules)))
    if args.stats:
        print(_stats_line(project, new))
    return 1 if new else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        # ``python -m repro.analysis --flow`` == ``check --flow``.
        argv = ["check"] + argv
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "rules":
        return _cmd_rules()
    if args.command == "check":
        return _cmd_check(args)
    parser.print_help()
    return 2


__all__ = ["main", "check_paths", "BASELINE_NAME"]
