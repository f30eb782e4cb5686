"""The ``--flow`` acceptance criteria as tests.

The repo's own ``src`` tree must be clean under the interprocedural
rules with the shipped (empty) baseline, and the whole flow pass —
call graph, taint fixpoint, both rules — must stay fast enough for
the CI ``lint-flow`` job's 30-second pin.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.cli import check_paths
from repro.analysis.engine import Project
from repro.analysis.flow import FlowContext
from repro.analysis.flow.transport import _discover

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_src_tree_is_flow_clean():
    findings = check_paths(REPO_ROOT, [REPO_ROOT / "src"], flow=True)
    assert findings == [], "\n".join(f.location + " " + f.message
                                     for f in findings)


def test_flow_pass_is_fast_enough_for_ci():
    start = time.perf_counter()
    check_paths(REPO_ROOT, [REPO_ROOT / "src"], flow=True)
    elapsed_s = time.perf_counter() - start
    assert elapsed_s < 30.0, (
        f"flow pass took {elapsed_s:.1f}s; the CI lint-flow job pins 30s")


def test_transport_surface_is_the_one_worker_entry():
    """``flow-transport`` finds worker entries only at ``submit`` and
    ``initializer=`` sites, so switching the sweep pool to ``map`` or
    ``imap`` would silently drop the worker boundary from the lint."""
    project = Project.load(REPO_ROOT, [Path("src")])
    surface = _discover(FlowContext.for_project(project).graph)
    assert sorted((info.module.rel, info.name)
                  for info in surface.entries.values()) == [
        ("src/repro/experiments/parallel.py", "_init_worker"),
        ("src/repro/experiments/parallel.py", "_run_unit")]
