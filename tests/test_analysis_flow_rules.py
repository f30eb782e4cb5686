"""Fixture-driven tests for the two interprocedural flow rules.

Each fixture package under ``tests/flow_fixtures/<name>/src/repro/``
ships at least one deliberate true positive, one inline-suppressed case,
and one clean negative; the tests assert all three behaviours plus the
multi-hop interprocedural traces the findings must carry.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import Project, run_rules
from repro.analysis.flow import FlowContext, flow_rules
from repro.analysis.flow.determinism import FlowDeterminismRule
from repro.analysis.flow.transport import FlowTransportRule

FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"


def load_fixture(name: str) -> Project:
    return Project.load(FIXTURES / name, [Path("src")])


def raw_findings(project: Project, rule) -> list:
    """Rule output before suppression (run_rules applies the allows)."""
    return sorted(rule.check(project),
                  key=lambda f: (f.path, f.line, f.message))


class TestFlowDeterminism:
    def test_reported_and_suppressed_split(self):
        project = load_fixture("determinism")
        kept = run_rules(project, [FlowDeterminismRule()])
        assert [(f.path, f.line) for f in kept] == [
            ("src/repro/flowfix/planner.py", 30),
            ("src/repro/flowfix/planner.py", 40),
        ]

    def test_planner_return_true_positive_is_multi_hop(self):
        project = load_fixture("determinism")
        kept = run_rules(project, [FlowDeterminismRule()])
        ret = next(f for f in kept if "planner return value" in f.message)
        assert "time.perf_counter()" in ret.message
        assert "plan_fixture" in ret.message
        # The trace must cross both function boundaries on the way from
        # the clock module to the planner-return sink.
        assert "clock.py:18" in ret.hint
        assert "_pad" in ret.hint
        assert "plan_fixture" in ret.hint

    def test_span_attribute_sink_fires(self):
        project = load_fixture("determinism")
        kept = run_rules(project, [FlowDeterminismRule()])
        span = next(f for f in kept if "span attribute" in f.message)
        assert "'pad'" in span.message

    def test_inline_allow_suppresses_id_key(self):
        project = load_fixture("determinism")
        raw = raw_findings(project, FlowDeterminismRule())
        assert any("unstable_key" in f.message for f in raw)
        kept = run_rules(project, [FlowDeterminismRule()])
        assert not any("unstable_key" in f.message for f in kept)

    def test_negatives_stay_clean(self):
        project = load_fixture("determinism")
        raw = raw_findings(project, FlowDeterminismRule())
        assert not any("plan_quiet" in f.message for f in raw)
        assert not any("by stable_key()" in f.message for f in raw)


class TestFlowTransport:
    def test_numpy_scalar_return_is_reported_with_evidence(self):
        project = load_fixture("transport")
        kept = run_rules(project, [FlowTransportRule()])
        assert [(f.path, f.line) for f in kept] == [
            ("src/repro/flowtp/worker.py", 22)]
        finding = kept[0]
        assert "work_unit" in finding.message
        assert "numpy" in finding.message
        # Evidence must follow the call into the helper module.
        assert "stats.py:18" in finding.hint
        assert "summarize" in finding.hint

    def test_inline_allow_suppresses_bytes_return(self):
        project = load_fixture("transport")
        raw = raw_findings(project, FlowTransportRule())
        assert any("noisy_unit" in f.message for f in raw)
        kept = run_rules(project, [FlowTransportRule()])
        assert not any("noisy_unit" in f.message for f in kept)

    def test_safe_worker_is_clean(self):
        project = load_fixture("transport")
        raw = raw_findings(project, FlowTransportRule())
        assert not any("clean_unit" in f.message for f in raw)


class TestFlowContext:
    def test_call_graph_and_taint_are_cached_per_project(self):
        project = load_fixture("determinism")
        ctx = FlowContext.for_project(project)
        assert FlowContext.for_project(project) is ctx
        from repro.analysis.flow.determinism import DeterminismSinks
        first = ctx.taint_analysis(DeterminismSinks())
        assert ctx.taint_analysis(DeterminismSinks()) is first

    def test_flow_rules_order_is_stable(self):
        ids = [r.rule_id for r in flow_rules()]
        assert ids == ["flow-determinism", "flow-transport"]
