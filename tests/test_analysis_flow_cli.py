"""CLI surface of the flow analysis: ``--flow``, ``--callgraph-out``,
``--stats``, the ``rules`` listing, and the pinned JSON report schema."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.engine import Finding, render_json

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "tests" / "flow_fixtures" / "determinism"
GOLDEN = REPO_ROOT / "tests" / "golden" / "flow_determinism_report.json"


class TestFlowFlag:
    def test_flow_findings_fail_the_fixture(self, capsys):
        rc = main(["check", "src", "--root", str(FIXTURE), "--flow"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "flow-determinism" in out

    def test_without_flow_the_fixture_is_clean(self, capsys):
        rc = main(["check", "src", "--root", str(FIXTURE)])
        assert rc == 0
        assert "OK: 0 findings" in capsys.readouterr().out

    def test_leading_option_implies_check(self, capsys):
        # `python -m repro.analysis --flow` == `check --flow` (with the
        # default src path resolved against --root).
        rc = main(["--flow", "--root", str(FIXTURE)])
        assert rc == 1
        assert "flow-determinism" in capsys.readouterr().out


class TestGoldenJsonReport:
    def test_report_matches_golden_file(self, capsys):
        rc = main(["check", "src", "--root", str(FIXTURE), "--flow",
                   "--format", "json"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out) \
            == json.loads(GOLDEN.read_text())

    def test_schema_fields_are_pinned(self):
        payload = json.loads(GOLDEN.read_text())
        assert payload["version"] == 1
        assert set(payload) == {"version", "checked_files", "baselined",
                                "findings"}
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "severity",
                                    "message", "hint"}

    def test_json_orders_errors_before_warnings(self):
        findings = [
            Finding(rule="b", path="a.py", line=1, message="later",
                    severity="warning"),
            Finding(rule="a", path="z.py", line=9, message="first",
                    severity="error"),
        ]
        payload = json.loads(render_json(findings, checked=2))
        assert [f["severity"] for f in payload["findings"]] \
            == ["error", "warning"]


class TestCallgraphExport:
    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        main(["check", "src", "--root", str(FIXTURE), "--flow",
              "--callgraph-out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        qnames = {f["qname"] for f in payload["functions"]}
        assert "repro.flowfix.clock:jitter" in qnames
        assert any(e["callee"] == "repro.flowfix.clock:jitter"
                   for e in payload["edges"])

    def test_dot_export(self, tmp_path, capsys):
        out = tmp_path / "graph.dot"
        main(["check", "src", "--root", str(FIXTURE),
              "--callgraph-out", str(out)])
        capsys.readouterr()
        assert out.read_text().startswith("digraph")


class TestStats:
    def test_summary_line_shape(self, capsys):
        rc = main(["check", "src", "--root", str(FIXTURE), "--flow",
                   "--stats"])
        assert rc == 1
        lines = capsys.readouterr().out.strip().splitlines()
        stats = lines[-1]
        assert stats.startswith("stats: files=2 functions=")
        assert "edges=" in stats
        assert "findings=2" in stats
        assert "[flow-determinism=2]" in stats

    def test_clean_run_reports_zero_findings(self, capsys):
        rc = main(["check", "src", "--root", str(FIXTURE), "--stats"])
        assert rc == 0
        stats = capsys.readouterr().out.strip().splitlines()[-1]
        assert "findings=0" in stats
        assert "[" not in stats


class TestRulesListing:
    def test_flow_rules_are_listed_and_tagged(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("flow-determinism", "flow-transport"):
            assert rule_id in out
        assert "[flow]" in out
