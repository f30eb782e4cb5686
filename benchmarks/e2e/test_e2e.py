"""Smoke tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; every
workload runs once untraced and once traced, at ``--smoke`` size
(seconds).
"""

from __future__ import annotations

import copy
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def raw():
    """Per workload: one untraced run, then one traced run."""
    return {name: [run.collect_run(name, run.DEFAULT_SEED, smoke=True,
                                   seconds=0.0, trace=trace)
                   for trace in (False, True)]
            for name in run.WORKLOADS}


@pytest.fixture(scope="module")
def reports(raw):
    return {name: run.summarize(runs) for name, runs in raw.items()}


def test_every_benchmark_metric_is_emitted_with_its_unit(reports):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for report in reports.values():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            line = run.contract_line(report, bool(trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            assert {k: v["unit"] for k, v in line["metrics"].items()} \
                == expected
            assert all(isinstance(v["value"], (int, float))
                       for v in line["metrics"].values())


def test_all_checks_pass(reports):
    for report in reports.values():
        checks = report["checks"]
        assert checks["attempted"] > 0
        assert checks["failed"] == 0 and checks["failed_frac"] == 0.0, \
            checks["failures"]


def test_replay_spans_cover_the_traced_total(raw):
    for _, traced in raw.values():
        assert traced["bench"]["replays"]
        for replay in traced["bench"]["replays"]:
            # The replay's own loop (self time) is a sliver of the total.
            assert 0.0 <= replay["self_s"] < 0.1 * replay["total_s"]


def test_corrupted_row_volume_is_counted_as_failed(raw):
    untraced, traced = raw["fig4-reduced"]
    bad = copy.deepcopy(traced)
    row = bad["bench"]["calls"][0][0]["rows"][0]
    row["det"]["mean_volume_gb"] += 1e-9
    report = run.summarize([bad])
    assert report["checks"]["failed"] == 1
    assert report["checks"]["failed_frac"] > 0.0
    assert report["checks"]["failures"] == ["replay volume differs from row"]
    bad["bench"]["replays"] = []
    twice = run.summarize([untraced, bad])
    assert twice["checks"]["failures"] == ["rows differ between runs"]


def test_replay_on_another_engine_is_counted_as_failed(raw):
    bad = copy.deepcopy(raw["fig4-reduced"][1])
    bad["bench"]["replays"][0]["engines"][1] = "batch"
    report = run.summarize([bad])
    assert report["checks"]["failed"] == 1
    assert report["checks"]["failures"] == ["replay engine differs from row"]


def test_failed_call_counts_all_its_cells(raw):
    bad = copy.deepcopy(raw["fig3-reduced"][0])
    bad["bench"]["calls"][1][0] = {"error": "Traceback\nValueError: boom\n"}
    report = run.summarize([bad])
    cells = bad["bench"]["cells"]
    assert report["checks"]["failed"] == cells
    assert report["checks"]["failures"] == ["call raised: ValueError: boom"]


def test_compare_verdicts(reports):
    a = {"seed": 1, "size": "smoke", "host": {}, "workloads": reports}
    text, ok = run.compare(a, a)
    assert ok and "worse" not in text and "changed" not in text
    b = copy.deepcopy(a)
    wall = b["workloads"]["fig4-reduced"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        wall[key] *= 2.0
    volume = b["workloads"]["fig4-reduced"]["end_to_end"]["volume_gb"]
    volume["samples"] = [v + 1.0 for v in volume["samples"]]
    text, ok = run.compare(a, b)
    assert not ok
    assert "-> worse" in text and "-> changed" in text
    # A different run count alone is no change of a deterministic value.
    c = copy.deepcopy(a)
    ratio = c["workloads"]["fig4-reduced"]["end_to_end"]["bound_ratio"]
    ratio["samples"] = ratio["samples"] * 3
    text, ok = run.compare(a, c)
    assert ok and "changed" not in text


def _cli(args, cwd):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_timed_mode_prints_the_result_line_last():
    done = _cli(["--workload", "fig4-reduced", "--seed", "3", "--smoke",
                 "--seconds", "0", "--trace", "0"], run.ROOT)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"]
                                    for m in BENCHMARK["end_to_end"]}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli(["--workload", "fig4-reduced", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
