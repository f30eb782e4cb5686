"""Interprocedural flow analysis for repro-lint (``--flow``).

This subpackage layers a call graph (:mod:`.callgraph`), a determinism
taint lattice (:mod:`.taint`), and a JSON-safety lattice
(:mod:`.jsonsafe`) on top of the per-file engine, and ships two rules
that consume them:

* ``flow-determinism`` (:mod:`.determinism`) — nondeterminism sources
  must not reach planner returns, SweepRow fields, cache keys, or span
  attributes;
* ``flow-transport`` (:mod:`.transport`) — the parallel worker boundary
  only carries provably JSON-safe data.

The expensive shared artifacts (call graph, taint fixpoint) are computed
once per :class:`~repro.analysis.engine.Project` through
:class:`FlowContext` and reused by every flow rule in the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.engine import Project, Rule
from repro.analysis.flow.callgraph import CallGraph, build_call_graph
from repro.analysis.flow.determinism import FlowDeterminismRule
from repro.analysis.flow.taint import SinkSpec, TaintAnalysis
from repro.analysis.flow.transport import FlowTransportRule

_CONTEXT_ATTR = "_repro_flow_context"


class FlowContext:
    """Per-project cache of the call graph and taint fixpoints."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._taint: Dict[type, TaintAnalysis] = {}

    @classmethod
    def for_project(cls, project: Project) -> "FlowContext":
        """The project's cached context, building it on first use."""
        ctx: Optional[FlowContext] = getattr(project, _CONTEXT_ATTR, None)
        if ctx is None:
            ctx = cls(build_call_graph(project))
            setattr(project, _CONTEXT_ATTR, ctx)
        return ctx

    def taint_analysis(self, sinks: SinkSpec) -> TaintAnalysis:
        """A taint fixpoint for *sinks*, cached by sink-spec type."""
        key = type(sinks)
        if key not in self._taint:
            self._taint[key] = TaintAnalysis(self.graph, sinks)
        return self._taint[key]


def flow_rules() -> List[Rule]:
    """The interprocedural rules, in deterministic order."""
    return [FlowDeterminismRule(), FlowTransportRule()]


__all__ = ["FlowContext", "flow_rules", "FlowDeterminismRule",
           "FlowTransportRule", "CallGraph", "build_call_graph"]
