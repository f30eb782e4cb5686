"""Tests for the benchmark observatory: registry, harness, CLI, gate.

End-to-end gate correctness is pinned here the way ISSUE acceptance asks:
an injected slowdown (``REPRO_BENCH_INJECT_SLEEP_S``) must fail
``repro-bench compare --gate``, and an identical re-run must pass it.
Real planner workloads are kept to one cheap case; everything else runs
on synthetic registered cases so the file stays fast.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    ENV_INJECT_SLEEP,
    BenchCase,
    _REGISTRY,
    get_case,
    register_case,
    run_case,
    run_suite,
    suite_cases,
    suites,
)
from repro.obs.cli import bench_main, main
from repro.obs.ledger import Ledger, get_ledger, ledger_active, set_ledger
from repro.obs.record import config_hash


@pytest.fixture(autouse=True)
def clean_ambient_ledger():
    previous = set_ledger(None)
    yield
    set_ledger(previous)


@pytest.fixture
def synthetic_case():
    """A registered no-op case in its own suite, removed afterwards."""
    case = BenchCase(
        name="test.noop", suites=("_test_suite",),
        config={"n": 1},
        fn=lambda: {"counters": {"kernel.ops": 3.0}, "engine": "kernel",
                    "extra": {"rows": 1}})
    register_case(case)
    yield case
    _REGISTRY.pop(case.name, None)


class TestRegistry:
    def test_smoke_suite_registered(self):
        assert "smoke" in suites()
        names = [c.name for c in suite_cases("smoke")]
        assert "plan.alg2_kernel" in names
        assert "sweep.fig5" in names

    def test_duplicate_name_rejected(self, synthetic_case):
        with pytest.raises(ValueError, match="already registered"):
            register_case(synthetic_case)

    def test_get_case(self, synthetic_case):
        assert get_case("test.noop") is synthetic_case
        with pytest.raises(KeyError):
            get_case("test.unknown")

    def test_suite_cases_empty_for_unknown(self):
        assert suite_cases("no_such_suite") == []


class TestRunCase:
    def test_emits_one_record_per_repeat(self, synthetic_case):
        with ledger_active(Ledger()):
            records = run_case(synthetic_case, repeats=3, suite="s")
        assert [r.extra["repeat"] for r in records] == [0, 1, 2]
        for r in records:
            assert r.event == "bench.case"
            assert r.label == "test.noop"
            assert r.config_hash == config_hash(synthetic_case.config)
            assert r.engine == "kernel"
            assert r.metrics["counters"] == {"kernel.ops": 3.0}
            assert r.extra["suite"] == "s"
            assert r.extra["rows"] == 1
            assert r.wall_s >= 0.0

    def test_without_ledger_returns_nothing(self, synthetic_case):
        assert run_case(synthetic_case) == []

    def test_track_memory_stamps_peak(self, synthetic_case):
        with ledger_active(Ledger()):
            records = run_case(synthetic_case, track_memory=True)
        assert records[0].mem_peak_bytes is not None

    def test_memory_off_by_default(self, synthetic_case):
        with ledger_active(Ledger()):
            records = run_case(synthetic_case)
        assert records[0].mem_peak_bytes is None

    def test_injected_sleep_inflates_wall(self, synthetic_case, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_SLEEP, "0.05")
        with ledger_active(Ledger()):
            records = run_case(synthetic_case)
        assert records[0].wall_s >= 0.05


class TestRunSuite:
    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown or empty"):
            run_suite("no_such_suite")

    def test_runs_every_case_into_fresh_ledger(self, synthetic_case):
        lines = []
        ledger = run_suite("_test_suite", repeats=2, progress=lines.append)
        assert len(ledger) == 2
        assert get_ledger() is None        # scope restored
        assert len(lines) == 1
        assert lines[0].startswith("test.noop: 2 run(s)")

    def test_streams_into_given_ledger(self, synthetic_case, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = run_suite("_test_suite", ledger=Ledger(path))
        assert ledger.path == path
        assert len(Ledger.read(path)) == 1

    def test_real_planner_case_counts_kernel_work(self):
        # One cheap real workload end-to-end: the adapter wiring from
        # plan_tour's meta["perf"] into ledger counters.
        with ledger_active(Ledger()):
            records = run_case(get_case("plan.alg2_kernel"), suite="smoke")
        rec = records[0]
        assert rec.engine == "kernel"
        assert rec.metrics["counters"]["kernel.insertions"] > 0
        assert rec.extra["collected_gb"] > 0


def write_ledger(path, records):
    ledger = Ledger()
    ledger.extend(records)
    ledger.write(path)
    return path


def fake_records(wall_s=1.0, ops=100.0, label="test.gate",
                 config_hash="feed"):
    from repro.obs.record import RunRecord
    return [RunRecord(event="bench.case", label=label,
                      config_hash=config_hash, wall_s=wall_s,
                      metrics={"counters": {"kernel.ops": ops}})]


class TestCompareCli:
    def test_missing_file_is_usage_error(self, tmp_path):
        ok = write_ledger(tmp_path / "ok.jsonl", fake_records())
        assert main(["compare", str(ok), str(tmp_path / "nope.jsonl")]) == 2

    def test_identical_ledgers_gate_passes(self, tmp_path, capsys):
        old = write_ledger(tmp_path / "old.jsonl", fake_records())
        new = write_ledger(tmp_path / "new.jsonl", fake_records())
        assert main(["compare", str(old), str(new), "--gate"]) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_regression_fails_gate_only_with_flag(self, tmp_path, capsys):
        old = write_ledger(tmp_path / "old.jsonl", fake_records(wall_s=0.1))
        new = write_ledger(tmp_path / "new.jsonl", fake_records(wall_s=0.9))
        assert main(["compare", str(old), str(new)]) == 0
        assert main(["compare", str(old), str(new), "--gate"]) == 1
        assert "gate: FAIL" in capsys.readouterr().out

    def test_threshold_overrides(self, tmp_path):
        old = write_ledger(tmp_path / "old.jsonl", fake_records(wall_s=0.1))
        new = write_ledger(tmp_path / "new.jsonl", fake_records(wall_s=0.15))
        args = ["compare", str(old), str(new), "--gate"]
        assert main(args) == 0
        assert main(args + ["--time-ratio", "1.2"]) == 1

    def test_counter_gate_via_cli(self, tmp_path):
        old = write_ledger(tmp_path / "old.jsonl", fake_records(ops=100.0))
        new = write_ledger(tmp_path / "new.jsonl", fake_records(ops=150.0))
        assert main(["compare", str(old), str(new), "--gate"]) == 1

    def test_json_format(self, tmp_path, capsys):
        old = write_ledger(tmp_path / "old.jsonl", fake_records())
        new = write_ledger(tmp_path / "new.jsonl", fake_records())
        assert main(["compare", str(old), str(new),
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["compared_nothing"] is False
        assert data["cases"][0]["label"] == "test.gate"

    @pytest.mark.parametrize("candidate", ["empty", "rehashed"])
    def test_gate_fails_when_no_baseline_case_matched(self, tmp_path,
                                                      capsys, candidate):
        # An empty run, or one whose every config hash drifted, lists
        # each baseline case as removed; the gate must not pass that.
        old = write_ledger(tmp_path / "old.jsonl",
                           fake_records() + fake_records(label="other"))
        new = write_ledger(tmp_path / "new.jsonl",
                           [] if candidate == "empty"
                           else fake_records(config_hash="beef"))
        assert main(["compare", str(old), str(new)]) == 0
        capsys.readouterr()
        assert main(["compare", str(old), str(new), "--gate"]) == 1
        captured = capsys.readouterr()
        assert "gate: FAIL (no baseline case matched)" in captured.out
        assert "none of the baseline's cases matched" in captured.err

    def test_gate_passes_on_superset_of_baseline(self, tmp_path, capsys):
        old = write_ledger(tmp_path / "old.jsonl", fake_records())
        new = write_ledger(tmp_path / "new.jsonl",
                           fake_records() + fake_records(label="added"))
        assert main(["compare", str(old), str(new), "--gate"]) == 0
        assert "gate: PASS" in capsys.readouterr().out


class TestBenchCli:
    def test_unknown_suite_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "ledger.jsonl"
        assert main(["bench", "--suite", "no_such", "--out", str(out)]) == 2
        assert "unknown or empty" in capsys.readouterr().err

    def test_bench_writes_fresh_ledger(self, synthetic_case, tmp_path):
        out = tmp_path / "ledger.jsonl"
        out.write_text("stale\n")
        assert main(["bench", "--suite", "_test_suite",
                     "--out", str(out), "--repeats", "2"]) == 0
        records = Ledger.read(out)
        assert len(records) == 2          # stale content replaced

    def test_bench_mem_flag(self, synthetic_case, tmp_path):
        out = tmp_path / "ledger.jsonl"
        assert main(["bench", "--suite", "_test_suite",
                     "--out", str(out), "--mem"]) == 0
        assert Ledger.read(out)[0].mem_peak_bytes is not None


class TestReproBenchEntryPoint:
    def test_no_command_prints_help(self, capsys):
        assert bench_main([]) == 2
        assert "repro-bench" in capsys.readouterr().out

    def test_run_then_gate_round_trip(self, synthetic_case, tmp_path,
                                      monkeypatch, capsys):
        base = tmp_path / "base.jsonl"
        fresh = tmp_path / "fresh.jsonl"
        slow = tmp_path / "slow.jsonl"
        assert bench_main(["run", "--suite", "_test_suite",
                           "--out", str(base)]) == 0
        # Identical re-run passes the gate...
        assert bench_main(["run", "--suite", "_test_suite",
                           "--out", str(fresh)]) == 0
        assert bench_main(["compare", str(base), str(fresh), "--gate"]) == 0
        # ...and an injected slowdown fails it.
        monkeypatch.setenv(ENV_INJECT_SLEEP, "0.2")
        assert bench_main(["run", "--suite", "_test_suite",
                           "--out", str(slow)]) == 0
        monkeypatch.delenv(ENV_INJECT_SLEEP)
        capsys.readouterr()
        assert bench_main(["compare", str(base), str(slow), "--gate",
                           "--min-time-s", "1e-6", "--time-ratio", "3"]) == 1
        assert "gate: FAIL" in capsys.readouterr().out

    def test_console_script_registered(self):
        from pathlib import Path
        # pyproject declares the entry point the CI workflow invokes.
        text = Path(__file__).resolve().parents[1].joinpath(
            "pyproject.toml").read_text()
        assert 'repro-bench = "repro.obs.cli:bench_main"' in text
