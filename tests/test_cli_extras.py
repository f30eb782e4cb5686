"""Tests for the CLI's --svg / --claims / report paths and __main__."""

import json
import subprocess
import sys

import pytest

from repro.experiments.cli import main


class TestSvgFlag:
    def test_writes_panel_svgs(self, capsys, tmp_path):
        rc = main(["fig5", "--scale", "reduced", "--nodes", "20",
                   "--instances", "1", "--quiet", "--svg", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig5a_reduced.svg").exists()
        assert (tmp_path / "fig5b_reduced.svg").exists()
        svg = (tmp_path / "fig5a_reduced.svg").read_text()
        assert svg.startswith("<svg")

    def test_claims_flag_prints_table(self, capsys, tmp_path):
        rc = main(["fig5", "--scale", "reduced", "--nodes", "20",
                   "--instances", "1", "--quiet", "--claims"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| C7 |" in out


class TestReportCommand:
    def test_report_from_results_dir(self, capsys, tmp_path):
        # Produce a results dir, then regenerate the report from it.
        rc = main(["fig5", "--scale", "reduced", "--nodes", "20",
                   "--instances", "1", "--quiet", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["report", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert "claims pass" in out

    def test_report_missing_dir_fails(self, tmp_path):
        from repro.utils.errors import InvalidParameterError
        with pytest.raises(InvalidParameterError):
            main(["report", "--out", str(tmp_path / "nothing")])


class TestModuleEntryPoint:
    def test_python_m_invocation(self, tmp_path):
        # Smoke-test `python -m repro.experiments --help` end to end.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--help"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "repro-experiments" in proc.stdout


class TestSeedOverride:
    def test_seed_changes_results(self, capsys):
        rc = main(["fig5", "--scale", "reduced", "--nodes", "15",
                   "--instances", "1", "--quiet", "--seed", "1"])
        out1 = capsys.readouterr().out
        rc = main(["fig5", "--scale", "reduced", "--nodes", "15",
                   "--instances", "1", "--quiet", "--seed", "2"])
        out2 = capsys.readouterr().out
        assert rc == 0
        assert out1 != out2

    def test_same_seed_reproduces_volumes(self, capsys):
        # Wall-clock timings (panel b) vary run to run; the collected
        # volumes (panel a) must be byte-identical for the same seed.
        def volume_panel(text):
            return text.split("(b) Planning time")[0]

        main(["fig5", "--scale", "reduced", "--nodes", "15",
              "--instances", "1", "--quiet", "--seed", "3"])
        out1 = capsys.readouterr().out
        main(["fig5", "--scale", "reduced", "--nodes", "15",
              "--instances", "1", "--quiet", "--seed", "3"])
        out2 = capsys.readouterr().out
        assert volume_panel(out1) == volume_panel(out2)


class TestTraceFlag:
    def test_all_writes_one_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(["all", "--nodes", "15", "--instances", "1", "--quiet",
                   "--trace", str(trace)])
        assert rc == 0
        names = [json.loads(line)["name"]
                 for line in trace.read_text().splitlines()]
        assert "runner.cell" in names
        # Every figure's planners ran under the one tracer.
        assert {"alg1.reduction", "alg2.round", "alg3.round"} <= set(names)


class TestBadArguments:
    @pytest.mark.parametrize("flag, value", [
        ("--nodes", "0"), ("--instances", "0"), ("--seed", "-1"),
        ("--jobs", "0")])
    def test_one_error_line_and_exit_2(self, capsys, flag, value):
        # Config errors used to print a traceback and exit 1.
        rc = main(["fig5", "--quiet", flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", [["--site-reduction", "safe"],
                                      ["--delta-continuation"]])
    def test_removed_flags_rejected_by_argparse(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["fig4", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
