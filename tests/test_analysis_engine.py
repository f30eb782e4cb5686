"""Engine-level tests for repro-lint: findings, directives, suppression,
baseline round-trip, reporters, and the CLI."""

from __future__ import annotations

import json
import textwrap

from repro.analysis.cli import BASELINE_NAME, check_paths, main
from repro.analysis.engine import (
    Baseline,
    Finding,
    Project,
    SourceModule,
    render_json,
    render_text,
    run_rules,
)


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class EchoRule:
    """Test double: emits one pre-baked finding per module."""

    rule_id = "echo"
    description = "emit one finding per module"

    def __init__(self, line=1, message="echoed"):
        self.line = line
        self.message = message

    def check(self, project):
        for mod in project.modules:
            yield Finding(rule=self.rule_id, path=mod.rel, line=self.line,
                          message=self.message, hint="ignore me")


class TestFinding:
    def test_location_and_key(self):
        f = Finding(rule="r", path="src/a.py", line=7, message="m")
        assert f.location == "src/a.py:7"
        assert f.key() == ("r", "src/a.py", "m")

    def test_to_dict_roundtrips_through_json(self):
        f = Finding(rule="r", path="src/a.py", line=7, message="m",
                    severity="warning", hint="h")
        assert json.loads(json.dumps(f.to_dict())) == {
            "rule": "r", "path": "src/a.py", "line": 7,
            "severity": "warning", "message": "m", "hint": "h"}


class TestSourceModule:
    def test_directive_scan(self, tmp_path):
        src = write(tmp_path / "src" / "m.py", """
            # repro: hot-path
            def f():
                # repro: cold-path
                x = 1  # repro: allow[echo, other-rule]
                return x
        """)
        mod = SourceModule.parse(src, tmp_path)
        assert mod.markers == [(2, "hot-path"), (4, "cold-path")]
        assert mod.allows == {5: {"echo", "other-rule"}}

    def test_syntax_error_becomes_finding(self, tmp_path):
        src = write(tmp_path / "src" / "bad.py", "def f(:\n")
        mod = SourceModule.parse(src, tmp_path)
        assert mod.tree is None
        assert mod.syntax_error is not None
        assert mod.syntax_error.rule == "parse-error"
        project = Project(tmp_path, [mod])
        assert [f.rule for f in run_rules(project, [])] == ["parse-error"]


class TestSuppression:
    def make(self, tmp_path, source):
        src = write(tmp_path / "src" / "m.py", source)
        mod = SourceModule.parse(src, tmp_path)
        return Project(tmp_path, [mod])

    def test_same_line_allow(self, tmp_path):
        project = self.make(tmp_path, "x = 1  # repro: allow[echo]\n")
        assert run_rules(project, [EchoRule(line=1)]) == []

    def test_comment_line_above_allow(self, tmp_path):
        project = self.make(tmp_path, """
            # repro: allow[echo] -- known debt
            x = 1
        """)
        assert run_rules(project, [EchoRule(line=3)]) == []

    def test_code_line_above_does_not_suppress(self, tmp_path):
        # The directive must be on the finding's line or a *comment* line
        # directly above — a trailing allow on unrelated code is ignored.
        project = self.make(tmp_path, """
            x = 1  # repro: allow[echo]
            y = 2
        """)
        assert len(run_rules(project, [EchoRule(line=3)])) == 1

    def test_wildcard_allow(self, tmp_path):
        project = self.make(tmp_path, "x = 1  # repro: allow[*]\n")
        assert run_rules(project, [EchoRule(line=1)]) == []

    def test_directive_above_decorator_reaches_decorated_def(self, tmp_path):
        # A finding anchored on the `def` line of a decorated function is
        # covered by a directive written where humans write it: above the
        # decorator stack.
        project = self.make(tmp_path, """
            # repro: allow[echo] -- decorated def
            @staticmethod
            @property
            def f():
                return 1
        """)
        assert run_rules(project, [EchoRule(line=5)]) == []

    def test_directive_on_decorator_line_reaches_decorated_def(self, tmp_path):
        project = self.make(tmp_path, """
            @staticmethod  # repro: allow[echo]
            def f():
                return 1
        """)
        assert run_rules(project, [EchoRule(line=3)]) == []

    def test_decorated_def_other_rule_still_reported(self, tmp_path):
        project = self.make(tmp_path, """
            # repro: allow[other]
            @staticmethod
            def f():
                return 1
        """)
        assert len(run_rules(project, [EchoRule(line=4)])) == 1

    def test_code_above_decorator_does_not_suppress(self, tmp_path):
        project = self.make(tmp_path, """
            x = 1  # repro: allow[echo]
            @staticmethod
            def f():
                return 1
        """)
        assert len(run_rules(project, [EchoRule(line=4)])) == 1

    def test_other_rule_allow_does_not_suppress(self, tmp_path):
        project = self.make(tmp_path, "x = 1  # repro: allow[other]\n")
        assert len(run_rules(project, [EchoRule(line=1)])) == 1


class TestBaseline:
    def test_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").entries == set()

    def test_write_load_split_roundtrip(self, tmp_path):
        path = tmp_path / BASELINE_NAME
        old = Finding(rule="r", path="a.py", line=3, message="legacy")
        Baseline.write(path, [old])
        baseline = Baseline.load(path)
        # Line drift must not un-baseline a finding.
        drifted = Finding(rule="r", path="a.py", line=99, message="legacy")
        fresh = Finding(rule="r", path="a.py", line=4, message="new debt")
        new, baselined = baseline.split([drifted, fresh])
        assert new == [fresh]
        assert baselined == [drifted]


class TestReporters:
    FINDINGS = [Finding(rule="r", path="a.py", line=2, message="boom",
                        hint="do the thing")]

    def test_text_has_anchor_hint_and_summary(self):
        out = render_text(self.FINDINGS, baselined=1, checked=5)
        assert "a.py:2: error[r] boom" in out
        assert "hint: do the thing" in out
        assert "1 finding(s) in 5 file(s) (1 baselined)" in out

    def test_text_clean_summary(self):
        assert "OK: 0 findings in 3 file(s)" == render_text([], checked=3)

    def test_json_schema(self):
        payload = json.loads(render_json(self.FINDINGS, checked=5))
        assert payload["version"] == 1
        assert payload["checked_files"] == 5
        assert payload["findings"][0]["message"] == "boom"

    def test_json_report_fields_are_pinned(self, tmp_path, capsys):
        """The CLI's JSON report on a per-file rule's finding: exactly
        these keys, at the top level and in each finding."""
        write(tmp_path / "src" / "repro" / "net" / "g.py", TestCli.BAD)
        assert main(["check", "src", "--root", str(tmp_path),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"version", "checked_files", "baselined",
                                "findings"}
        assert (payload["version"], payload["checked_files"],
                payload["baselined"]) == (1, 1, 0)
        [finding] = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "severity",
                                "message", "hint"}
        assert (finding["rule"], finding["path"], finding["line"],
                finding["severity"]) == (
            "rng-discipline", "src/repro/net/g.py", 2, "error")
        assert finding["message"] and finding["hint"]

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


class TestCli:
    def seed_tree(self, tmp_path, body="x = 1\n"):
        write(tmp_path / "src" / "repro" / "net" / "g.py", body)
        return tmp_path

    BAD = "import numpy as np\nrng = np.random.default_rng(3)\n"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path)
        assert main(["check", "src", "--root", str(root)]) == 0
        assert "OK: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path, self.BAD)
        assert main(["check", "src", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "rng-discipline" in out
        assert "g.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path, self.BAD)
        assert main(["check", "src", "--root", str(root),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "rng-discipline"

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path, self.BAD)
        assert main(["check", "src", "--root", str(root),
                     "--update-baseline"]) == 0
        baseline = json.loads((root / BASELINE_NAME).read_text())
        assert len(baseline["findings"]) == 1
        capsys.readouterr()
        # Baselined debt no longer fails the gate...
        assert main(["check", "src", "--root", str(root)]) == 0
        assert "(1 baselined)" in capsys.readouterr().out
        # ...but fresh debt still does.
        write(root / "src" / "repro" / "net" / "h.py", self.BAD)
        assert main(["check", "src", "--root", str(root)]) == 1

    def test_bad_root_exits_two(self, tmp_path):
        assert main(["check", "src", "--root",
                     str(tmp_path / "missing")]) == 2

    def test_missing_path_exits_two(self, tmp_path, capsys):
        # A typo must not pass the gate with that path unchecked.
        root = self.seed_tree(tmp_path, self.BAD)
        assert main(["check", "src", "tets", "--root", str(root)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'tets'" in err and "'src'" not in err

    def test_missing_path_leaves_the_baseline_alone(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path, self.BAD)
        assert main(["check", "src", "--root", str(root),
                     "--update-baseline"]) == 0
        before = (root / BASELINE_NAME).read_bytes()
        capsys.readouterr()
        assert main(["check", "src", "tets", "--root", str(root),
                     "--update-baseline"]) == 2
        assert "'tets'" in capsys.readouterr().err
        assert (root / BASELINE_NAME).read_bytes() == before

    def test_rules_subcommand_lists_all_seven(self, capsys):
        assert main(["rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "rng-discipline", "hot-path-purity", "registry-sync",
            "export-drift", "units-suffix", "paper-eq-refs",
            "obs-span-naming"]

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "repro-lint" in capsys.readouterr().out

    def test_check_paths_library_entry(self, tmp_path):
        root = self.seed_tree(tmp_path, self.BAD)
        findings = check_paths(root, [root / "src"])
        assert [f.rule for f in findings] == ["rng-discipline"]
