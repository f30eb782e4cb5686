"""Command-line interface: ``python -m repro.analysis check [paths]``.

Exit codes: 0 — clean (or everything baselined); 1 — non-baselined
findings; 2 — usage error (a ``--root`` that is not a directory, or a
path that does not exist under it).  ``--update-baseline`` rewrites
``analysis-baseline.json`` with the current findings so a tree with known
debt can adopt the gate immediately and burn the baseline down over time.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.engine import Baseline, Finding, Project, render_json, render_text, run_rules
from repro.analysis.rules import default_rules

#: Default baseline file, relative to the project root.
BASELINE_NAME = "analysis-baseline.json"


def check_paths(root: Path, paths: Sequence[Path]) -> List[Finding]:
    """Run every default rule over *paths*; returns unfiltered findings.

    Library entry point used by the test-suite and pre-commit hooks; the
    CLI adds baseline handling on top.
    """
    project = Project.load(root, paths)
    return run_rules(project, default_rules())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: project-specific static analysis "
                    "(planner invariants, RNG discipline, hot-path purity)")
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

    sub.add_parser("rules", help="list the shipped rules")
    return parser


def _cmd_rules() -> int:
    for rule in default_rules():
        print(f"{rule.rule_id:18} {rule.description}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"error: root {args.root!r} is not a directory",
              file=sys.stderr)
        return 2
    # Project.load skips a path that does not exist, so a typo would
    # pass the gate with nothing checked.
    missing = [p for p in args.paths if not (root / p).exists()]
    if missing:
        print(f"error: no such path under root {args.root!r}: "
              + ", ".join(repr(p) for p in missing), file=sys.stderr)
        return 2
    baseline_path = (Path(args.baseline) if args.baseline
                     else root / BASELINE_NAME)
    project = Project.load(root, [Path(p) for p in args.paths])
    findings = run_rules(project, default_rules())

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
    return 1 if new else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "rules":
        return _cmd_rules()
    if args.command == "check":
        return _cmd_check(args)
    parser.print_help()
    return 2


__all__ = ["main", "check_paths", "BASELINE_NAME"]
