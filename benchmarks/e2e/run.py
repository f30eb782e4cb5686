"""End-to-end benchmark of the figure pipeline (see README.md here).

Every set-up sample and every timed run is one fresh process
(``child.py``) with BLAS/OpenMP pinned to one thread.  Two ways to run
it, from the root of a checkout::

    # all workloads, --repeats round-robin runs, then one traced run each
    python3 benchmarks/e2e/run.py --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

    # one run of one workload; the last stdout line is one JSON object
    # {"correct", "attempted", "failed", "metrics"}
    python3 benchmarks/e2e/run.py --workload fig4-reduced --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` follows
every timed call with a traced replay, over the first half of the
instances, and reports the per-layer metrics.
The program is imported from ``src/`` of this checkout only; without it
the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import DEFAULT_SEED, WORKLOADS, size_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"

#: Thread-pool variables pinned to 1 in every benchmark process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: One run (set-up samples plus the timed process) ends within this long;
#: a process still running then is killed and its cells count as failed.
RUN_LIMIT_S = 170.0

#: Set-up-only processes per run.  ``setup_s`` is the median over them
#: and the timed process's own set-up.
SETUP_SAMPLES = 2

#: One calibration sample (``child.Calibration.sample``) on the reference
#: host of README.md, in seconds: the median of 370 samples taken over
#: 30 runs.  Every time is reported as ``measured * CALIBRATION_REF_S /
#: calibration``, using the calibration taken next to it, so it reads as
#: seconds on the reference host at its median speed.  That host's speed
#: drifts by up to 40% between runs; across seeds the calibrated times
#: spread 2-4 times less than the measured ones (README.md).
CALIBRATION_REF_S = 0.0191

#: End-to-end metrics: unit and which direction is better.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "planning_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "volume_gb": ("GB", "higher"),
    "bound_ratio": ("ratio", "higher"),
}

#: End-to-end metrics fixed by the inputs: equal seeds must give equal values.
DETERMINISTIC = ("volume_gb", "bound_ratio")

#: Per-layer metrics and their units.
PER_LAYER = {
    "network.generate_s": "s",
    "hovering.build_s": "s",
    "geometry.build_s": "s",
    "planner.plan_s": "s",
    "baseline.plan_s": "s",
    "tsp.christofides_s": "s",
    "sim.validate_s": "s",
    "runner.self_s": "s",
    "hovering.calls": "count",
    "hovering.sites": "count",
    "hovering.bytes": "bytes",
    "conflicts.pairs": "count",
    "auxgraph.bytes": "bytes",
    "grasp.restarts": "count",
    "grasp.constructions_deduped": "count",
    "grasp.ls_moves": "count",
    "kernel.sites_rescored": "count",
    "kernel.deltas_recomputed": "count",
    "kernel.insertions": "count",
    "baseline.ratios_rescored": "count",
    "artifacts.hits": "count",
    "artifacts.misses": "count",
    "trace.overhead_frac": "fraction",
}

#: Replay span names summed into each per-layer time metric.  Layers a
#: workload never calls (Algorithm 1's on fig4) are grouped with
#: ones it does, so every time metric is measured on every workload.
LAYER_GROUPS = {
    "hovering.build_s": ("hovering.build",),
    "geometry.build_s": ("hovering.build", "conflicts.build",
                         "auxgraph.build", "auxgraph.transpose"),
    "planner.plan_s": ("alg1.plan", "alg2.plan", "alg3.plan"),
    "baseline.plan_s": ("baseline.plan",),
    "tsp.christofides_s": ("tsp.christofides",),
    "sim.validate_s": ("sim.validate",),
}

#: Per-layer counters read from ``meta["perf"]``: planner methods, key.
PERF_COUNTERS = {
    "grasp.restarts": (("algorithm1",), "grasp.restarts"),
    "grasp.constructions_deduped": (("algorithm1",),
                                    "grasp.constructions_deduped"),
    "grasp.ls_moves": (("algorithm1",), "grasp.ls_moves"),
    "kernel.sites_rescored": (("algorithm2", "algorithm3"), "sites_rescored"),
    "kernel.deltas_recomputed": (("algorithm2", "algorithm3"),
                                 "deltas_recomputed"),
    "kernel.insertions": (("algorithm2", "algorithm3"), "insertions"),
    "baseline.ratios_rescored": (("benchmark",), "ratios_rescored"),
}

#: Counts the replay computes itself from the artifacts it builds.
REPLAY_COUNTS = ("hovering.calls", "hovering.sites", "hovering.bytes",
                 "conflicts.pairs", "auxgraph.bytes")


class Refused(Exception):
    """The requested run cannot be measured here (exit code 2)."""


# -- Host ---------------------------------------------------------------- #


def _version(package: str) -> Optional[str]:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def host_fingerprint() -> Dict[str, Any]:
    """CPU counts, interpreter and library versions, and the git commit."""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
        "git_commit": _git_commit(),
    }


# -- Processes ----------------------------------------------------------- #


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run one benchmark process to completion; its JSON report."""
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps({"root": str(ROOT), **spec})],
        stdout=subprocess.PIPE, env=_child_env(), cwd=str(ROOT), text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {**spec, "error": f"timed out after {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {**spec, "error": f"exit code {proc.returncode}, no report"}


def collect_run(name: str, seed: int, smoke: bool, seconds: float,
                trace: bool) -> Dict[str, Any]:
    """One run: the set-up samples, then one timed process.

    The set-up samples count towards *seconds*.
    """
    start = time.perf_counter()
    spec = {"workload": name, "seed": seed, "smoke": smoke}
    setups = [run_child({**spec, "mode": "setup"}, RUN_LIMIT_S)
              for _ in range(SETUP_SAMPLES)]
    spent = time.perf_counter() - start
    bench = run_child({**spec, "mode": "bench", "seconds": seconds - spent,
                       "trace": trace}, RUN_LIMIT_S - spent)
    return {**spec, "trace": trace, "setups": setups, "bench": bench}


# -- Metrics and checks -------------------------------------------------- #


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Nearest-rank (q1, median, q3)."""
    from repro.obs.metrics import quantile_sorted
    ordered = sorted(values)
    return (quantile_sorted(ordered, 0.25), quantile_sorted(ordered, 0.5),
            quantile_sorted(ordered, 0.75))


def _stats(values: Sequence[float]) -> Dict[str, Any]:
    q1, med, q3 = _quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": list(values)}


def _calibrated(seconds: float, calib_s: float) -> float:
    return seconds * CALIBRATION_REF_S / calib_s


def _error(report: Dict[str, Any]) -> str:
    return report["error"].strip().splitlines()[-1]


class Checks:
    """Failed cells, keyed by (run, round, instance, cell), with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Dict[Tuple[int, ...], str] = {}

    def fail(self, key: Tuple[int, ...], reason: str) -> None:
        self.failed.setdefault(key, reason)

    def fail_all(self, prefix: Tuple[int, ...], cells: int,
                 reason: str) -> None:
        for c in range(cells):
            self.fail(prefix + (c,), reason)

    def summary(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": len(self.failed),
                "failed_frac": len(self.failed) / max(1, self.attempted),
                "failures": sorted(set(self.failed.values()))}


def _cells_of(raw: Dict[str, Any]) -> int:
    """Cells per instance (the figure's algorithms x sweep values)."""
    for report in [raw["bench"], *raw["setups"]]:
        if "cells" in report:
            return report["cells"]
    return 1


def _check_run(raw: Dict[str, Any], r: int, checks: Checks
               ) -> Optional[List[List[Dict[str, Any]]]]:
    """Every correctness check on one run; counts its cells as attempted.

    Returns each instance's rows from its first successful call (the
    reference later calls, the replay and later runs must match), or
    ``None`` when some instance has none or its bounds raised.
    """
    n_instances = size_of(WORKLOADS[raw["workload"]],
                          raw["smoke"])["n_instances"]
    cells = _cells_of(raw)
    bench = raw["bench"]
    for report in raw["setups"]:
        if "error" in report:
            checks.fail_all((r, 0, 0), cells, "set-up raised: "
                            + _error(report))
    if "error" in bench:
        checks.attempted += n_instances * cells
        for i in range(n_instances):
            checks.fail_all((r, 0, i), cells, "run raised: " + _error(bench))
        return None
    reference: List[Optional[List[Dict[str, Any]]]] = []
    for i, calls in enumerate(bench["calls"]):
        ref = None
        for k, call in enumerate(calls):
            checks.attempted += cells
            if "error" in call:
                checks.fail_all((r, k, i), cells, "call raised: "
                                + _error(call))
                continue
            if ref is None:
                ref = call["rows"]
            for c, (row, first) in enumerate(zip(call["rows"], ref)):
                if row["det"] != first["det"]:
                    checks.fail((r, k, i, c), "rows differ between rounds")
        bound = bench["bounds"][i]
        if "error" in bound:
            checks.fail_all((r, 0, i), cells, "bound raised: "
                            + _error(bound))
            ref = None
        reference.append(ref)
        if ref is not None:
            for c, (row, b) in enumerate(zip(ref, bound["bounds_gb"])):
                if row["det"]["mean_volume_gb"] > b * (1 + 1e-9):
                    checks.fail((r, 0, i, c),
                                "collected above the upper bound")
    for i, replay in enumerate(bench["replays"]):
        if "error" in replay:
            checks.fail_all((r, 0, i), cells, "replay raised: "
                            + _error(replay))
            continue
        if reference[i] is None:
            continue
        for c, row in enumerate(reference[i]):
            if replay["volumes"][c] != row["det"]["mean_volume_gb"]:
                checks.fail((r, 0, i, c), "replay volume differs from row")
            # The runner may route a cell past plan_tour (e.g. a batch
            # column); the replay's layer numbers would then describe
            # code the runner no longer runs.
            if replay["engines"][c] != (row["det"].get("perf")
                                        or {}).get("engine"):
                checks.fail((r, 0, i, c), "replay engine differs from row")
    if any(ref is None for ref in reference):
        return None
    return reference  # type: ignore[return-value]


def _run_values(raw: Dict[str, Any],
                rows: List[List[Dict[str, Any]]]) -> Dict[str, Any]:
    """One run's end-to-end values, calibrated and raw."""
    bench = raw["bench"]
    setups = [(r["setup_s"], r["setup_calib_s"])
              for r in raw["setups"] + [bench] if "setup_calib_s" in r]
    calls = bench["calls"]

    def per_instance(key: str, calibrate: bool) -> float:
        return sum(statistics.median(
            _calibrated(c[key], c["calib_s"]) if calibrate else c[key]
            for c in instance) for instance in calls)

    ratios = [row["det"]["mean_volume_gb"] / b
              for inst, bound in zip(rows, bench["bounds"])
              for row, b in zip(inst, bound["bounds_gb"])
              if row["method"] != "benchmark"]
    values = {
        "setup_s": statistics.median(_calibrated(s, c) for s, c in setups),
        "wall_s": per_instance("wall_s", True),
        "planning_s": per_instance("planning_s", True),
        "peak_rss_mb": bench["peak_rss_mb"],
        "volume_gb": sum(row["det"]["mean_volume_gb"]
                         for inst in rows for row in inst),
        "bound_ratio": sum(ratios) / len(ratios),
    }
    measured = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": per_instance("wall_s", False),
        "planning_s": per_instance("planning_s", False),
        "host_speed": CALIBRATION_REF_S / statistics.median(
            c["calib_s"] for instance in calls for c in instance),
        "rounds": min(len(instance) for instance in calls),
    }
    return {"values": values, "measured": measured}


def _perf_counter(replays: List[Dict[str, Any]], methods: Sequence[str],
                  key: str) -> Optional[float]:
    """A ``meta["perf"]`` counter summed over the replayed tours.

    0 when no tour of *methods* ran; ``None`` when some tour lacks *key*.
    """
    total = 0.0
    for replay in replays:
        for method in methods:
            acc = replay["perf"].get(method)
            if acc is None:
                continue
            if acc["present"].get(key, 0) != acc["tours"]:
                return None
            total += acc["sums"][key]
    return total


def _layer_values(raw: Dict[str, Any]) -> Dict[str, Any]:
    """One traced run's per-layer values (times calibrated)."""
    bench = raw["bench"]
    replays = bench["replays"]
    values: Dict[str, Any] = {}
    for metric, spans in LAYER_GROUPS.items():
        values[metric] = sum(_calibrated(sum(r["layers"].get(s, 0.0)
                                             for s in spans), r["calib_s"])
                             for r in replays)
    values["runner.self_s"] = sum(_calibrated(r["self_s"], r["calib_s"])
                                  for r in replays)
    values["network.generate_s"] = _calibrated(bench["generate_s"],
                                               bench["setup_calib_s"])
    for name in REPLAY_COUNTS:
        values[name] = sum(r["counts"].get(name, 0) for r in replays)
    for metric, (methods, key) in PERF_COUNTERS.items():
        values[metric] = _perf_counter(replays, methods, key)
    firsts = [instance[0] for instance in bench["calls"]]
    for stat in ("hits", "misses"):
        values[f"artifacts.{stat}"] = (
            sum(c["cache"][stat] for c in firsts)
            if all(c.get("cache") for c in firsts) else None)
    traced = sum(_calibrated(r["total_s"], r["calib_s"]) for r in replays)
    untraced = sum(_calibrated(c["wall_s"], c["calib_s"]) for c in firsts)
    values["trace.overhead_frac"] = traced / untraced - 1
    return values


def summarize(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Metrics and checks of one workload's runs (all of one seed).

    End-to-end metrics are the median and quartiles over the untraced
    runs; per-layer metrics the median over the traced runs.
    """
    first = runs[0]
    workload = WORKLOADS[first["workload"]]
    checks = Checks()
    per_run = []
    reference = None
    for r, raw in enumerate(runs):
        rows = _check_run(raw, r, checks)
        if rows is None:
            continue
        if reference is None:
            reference = rows
        # A traced run covers only the first instances.
        for i, (inst, inst_ref) in enumerate(zip(rows, reference)):
            for c, (row, ref) in enumerate(zip(inst, inst_ref)):
                if row["det"] != ref["det"]:
                    checks.fail((r, 0, i, c), "rows differ between runs")
        per_run.append((raw, _run_values(raw, rows)))
    report: Dict[str, Any] = {
        "figure": workload.figure,
        **size_of(workload, first["smoke"]),
        "end_to_end": {}, "measured": {},
        "checks": checks.summary(),
    }
    # Tracing off: a traced run covers half the instances, its calls
    # alternating with replays.
    timed = [v for raw, v in per_run if not raw["trace"]]
    if timed:
        for name, (unit, _) in END_TO_END.items():
            report["end_to_end"][name] = {
                "unit": unit, **_stats([v["values"][name] for v in timed])}
        for name in timed[0]["measured"]:
            report["measured"][name] = _stats(
                [v["measured"][name] for v in timed])
    traced = [_layer_values(raw) for raw, _ in per_run if raw["trace"]]
    if traced:
        report["per_layer"] = {
            name: {"unit": unit, "value": _median([t[name] for t in traced])}
            for name, unit in PER_LAYER.items()}
    return report


def _median(values: Sequence[Optional[float]]) -> Optional[float]:
    if any(v is None for v in values):
        return None
    return _quartiles(values)[1]


# -- Ledger -------------------------------------------------------------- #


def _ledger_run(path: Optional[str], raw: Dict[str, Any]) -> None:
    """Append one ``bench.case`` record for one run."""
    bench = raw["bench"]
    if path is None or "error" in bench \
            or any("error" in c for inst in bench["calls"] for c in inst):
        return
    from repro.obs.ledger import Ledger, ledger_active, record_event
    from repro.obs.record import PERF_SECONDS_PREFIX, config_hash

    workload = WORKLOADS[raw["workload"]]
    firsts = [instance[0] for instance in bench["calls"]]
    counters: Dict[str, float] = {}
    for call in firsts:
        for row in call["rows"]:
            for key, value in (row["det"].get("perf") or {}).items():
                if key != "engine" and not key.startswith(PERF_SECONDS_PREFIX):
                    name = f"kernel.{key}"
                    counters[name] = counters.get(name, 0.0) + value
        for stat in ("hits", "misses"):
            if call.get("cache"):
                name = f"artifacts.{stat}"
                counters[name] = counters.get(name, 0.0) + call["cache"][stat]
    payload = {"workload": raw["workload"], "seed": raw["seed"],
               **size_of(workload, raw["smoke"])}
    with ledger_active(Ledger(path)):
        record_event(
            "bench.case", label=f"e2e.{raw['workload']}",
            config_hash=config_hash(payload), jobs=1,
            wall_s=sum(c["wall_s"] for c in firsts),
            metrics={"counters": counters},
            mem_peak_bytes=int(bench["peak_rss_mb"] * 1024 * 1024),
            extra={"workload": raw["workload"], "seed": raw["seed"],
                   "wall_cal_s": sum(_calibrated(c["wall_s"], c["calib_s"])
                                     for c in firsts)})


# -- Output -------------------------------------------------------------- #


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def render(report: Dict[str, Any]) -> str:
    """Every metric of every workload by name and unit, plus the checks."""
    lines = ["host: " + json.dumps(report["host"], sort_keys=True),
             f"seed: {report['seed']}  size: {report['size']}"]
    for name, wl in report["workloads"].items():
        lines.append(f"\n== {name} ({wl['figure']}, "
                     f"{wl['n_instances']} instances)")
        for metric, s in wl["end_to_end"].items():
            lines.append(f"  {metric:<28} {_fmt(s['median']):>12} "
                         f"{s['unit']:<8} q1 {_fmt(s['q1'])}  "
                         f"q3 {_fmt(s['q3'])}  n={s['n']}")
        for metric, s in wl["measured"].items():
            lines.append(f"  measured {metric:<19} {_fmt(s['median']):>12}"
                         f"          q1 {_fmt(s['q1'])}  "
                         f"q3 {_fmt(s['q3'])}  n={s['n']}")
        for metric, s in wl.get("per_layer", {}).items():
            lines.append(f"  {metric:<28} {_fmt(s['value']):>12} "
                         f"{s['unit']}")
        c = wl["checks"]
        lines.append(f"  checks: {c['attempted']} cells, {c['failed']} "
                     f"failed (failed_frac {c['failed_frac']:g})")
        lines += [f"    FAILED: {reason}" for reason in c["failures"]]
    return "\n".join(lines)


def contract_line(wl: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The one-line result: end-to-end medians, or per-layer values."""
    if trace:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in wl.get("per_layer", {}).items()}
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in wl["end_to_end"].items()}
    return {"correct": wl["checks"]["failed"] == 0,
            "attempted": max(1, wl["checks"]["attempted"]),
            "failed": wl["checks"]["failed"], "metrics": metrics}


# -- Compare ------------------------------------------------------------- #


def _benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, bool]:
    """Per workload and end-to-end metric, A vs B against the bounds.

    Verdicts: ``within`` the bound, ``worse`` beyond it, ``unresolved``
    when either side's quartile spread exceeds the bound.  With equal
    seed and size the deterministic metrics and the per-layer counts
    must match exactly (``equal`` / ``changed``).
    """
    bounds = {m["name"]: float(m["bound"])
              for m in _benchmark_spec()["end_to_end"]}
    same_inputs = a["seed"] == b["seed"] and a["size"] == b["size"]
    lines = [f"A host: {json.dumps(a['host'], sort_keys=True)}",
             f"B host: {json.dumps(b['host'], sort_keys=True)}"]
    ok = True
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        lines.append(f"\n== {name}")
        for metric, (unit, better) in END_TO_END.items():
            ea, eb = wa["end_to_end"], wb["end_to_end"]
            if metric not in ea or metric not in eb:
                continue
            sa, sb = ea[metric], eb[metric]
            verdict = _verdict(metric, better, sa, sb, bounds.get(metric),
                               same_inputs)
            ok = ok and verdict not in ("worse", "changed")
            lines.append(
                f"  {metric:<14} A {_fmt(sa['median'])} [{_fmt(sa['q1'])}, "
                f"{_fmt(sa['q3'])}] n={sa['n']}  B {_fmt(sb['median'])} "
                f"[{_fmt(sb['q1'])}, {_fmt(sb['q3'])}] n={sb['n']} {unit}"
                f"  -> {verdict}")
        if same_inputs:
            changed = []
            for metric, unit in PER_LAYER.items():
                if unit not in ("count", "bytes"):
                    continue
                va = wa.get("per_layer", {}).get(metric, {}).get("value")
                vb = wb.get("per_layer", {}).get(metric, {}).get("value")
                if va != vb:
                    changed.append(f"  {metric:<28} {_fmt(va)} -> "
                                   f"{_fmt(vb)} {unit}  -> changed")
            ok = ok and not changed
            lines += changed or ["  per-layer counts: equal"]
    return "\n".join(lines), ok


def _verdict(metric: str, better: str, sa: Dict[str, Any],
             sb: Dict[str, Any], bound: Optional[float],
             same_inputs: bool) -> str:
    if metric in DETERMINISTIC and same_inputs:
        # The run count may differ between reports; each side must
        # repeat one value exactly.
        values = set(sa["samples"]) | set(sb["samples"])
        return "equal" if len(values) == 1 else "changed"
    if bound is None:
        return "unresolved"
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
    if spread > bound:
        return "unresolved"
    change = (sb["median"] - sa["median"]) / sa["median"]
    worse = change if better == "lower" else -change
    return "worse" if worse > bound else "within"


# -- CLI ----------------------------------------------------------------- #


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description="End-to-end benchmark of the figure pipeline.")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (default: %(default)s)")
    p.add_argument("--seconds", type=float,
                   help="length of one run (default: run_seconds of "
                        "BENCHMARK.json); with --workload, one run whose "
                        "one-line JSON result is printed last")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 reports per-layer metrics")
    p.add_argument("--repeats", type=int, default=None,
                   help="untraced runs per workload without --workload "
                        "(default 3, 1 with --smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long sizes for tests")
    p.add_argument("--out", help="write the full report as JSON")
    p.add_argument("--ledger", help="append bench.case run records (JSONL)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --out reports")
    return p


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or refuse."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise Refused(f"no program source at {src}")
    sys.path.insert(0, str(src))


def collect(names: Sequence[str], seed: int, smoke: bool, seconds: float,
            repeats: int, ledger: Optional[str]
            ) -> Dict[str, List[Dict[str, Any]]]:
    """Round-robin runs over *names*: *repeats* untraced ones, then one
    traced one each."""
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for traced in [False] * repeats + [True]:
        for name in names:
            runs[name].append(collect_run(name, seed, smoke, seconds,
                                          traced))
            _ledger_run(ledger, runs[name][-1])
    return runs


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _import_program()
        if args.compare:
            a, b = (json.loads(Path(p).read_text()) for p in args.compare)
            text, ok = compare(a, b)
            print(text)
            return 0 if ok else 1
        seconds = (args.seconds if args.seconds is not None
                   else float(_benchmark_spec()["run_seconds"]))
    except Refused as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        runs = {args.workload: [collect_run(args.workload, args.seed,
                                            args.smoke, seconds,
                                            bool(args.trace))]}
        _ledger_run(args.ledger, runs[args.workload][0])
    else:
        repeats = args.repeats or (1 if args.smoke else 3)
        runs = collect(list(WORKLOADS), args.seed, args.smoke, seconds,
                       repeats, args.ledger)
    report = {"schema": 2, "seed": args.seed,
              "size": "smoke" if args.smoke else "default",
              "host": host_fingerprint(),
              "workloads": {name: summarize(r) for name, r in runs.items()}}
    report["correct"] = all(wl["checks"]["failed"] == 0
                            for wl in report["workloads"].values())
    print(render(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.workload:
        print(json.dumps(contract_line(report["workloads"][args.workload],
                                       bool(args.trace))))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
