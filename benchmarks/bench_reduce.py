"""Site-reduction benchmark: candidate shrink and end-to-end sweep speedup.

Runs the *same* paper-scale dense-δ Fig. 5 capacity sweep at three
reduction levels — ``off``, ``safe``, ``aggressive`` — on the per-cell
``kernel`` engine, and records for each mode:

1. **shrink** — the candidate-site reduction factor read back from the
   ``reduce.*`` work counters (PR 9 targets >= 5x for ``aggressive`` on
   a dense δ-grid),
2. **speedup** — end-to-end sweep wall-clock ratio against the same
   engine's ``off`` run (best of ``--repeats``),
3. **losslessness** — ``safe`` rows must be bitwise-identical to ``off``
   rows (minus wall-clock), and the claims harness must
   pass R1 (safe: exact volume equality) and R2 (aggressive: bounded
   collected-data loss, ``--max-loss``),
4. **ledger records** — one ``bench.case`` record per (engine, level)
   streamed through the PR-8 run ledger, self-checked round-trip
   compatible with ``repro-bench compare --gate``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_reduce.py --out BENCH_PR9.json

The committed ``BENCH_PR9.json`` records the reference numbers; the
script self-checks every claim above and exits non-zero when one breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.claims import (check_reduction_claims,
                                      reduction_delta_table)
from repro.experiments.config import reduced_settings
from repro.experiments.fig5 import run_fig5
from repro.obs.bench import _rows_counters
from repro.obs.ledger import Ledger, ledger_active, record_event
from repro.obs.record import config_hash
from repro.obs.regress import Thresholds, compare

LEVELS = ("off", "safe", "aggressive")
ENGINES = ("kernel",)


def _bench_config(nodes: int, instances: int, delta: float):
    return reduced_settings().scaled(
        n_nodes=nodes, n_instances=instances, delta=delta, seed=20200518)


def _nontime_rows(result) -> List[Dict[str, Any]]:
    """The rows' deterministic view: full aggregate minus wall-clock."""
    rows = []
    for row in result.rows:
        d = row.as_dict()
        del d["mean_time_s"], d["std_time_s"]
        rows.append(d)
    return rows


def _shrink_factor(result) -> Optional[float]:
    """sites_in / sites_out summed over the sweep's reduced rows."""
    sites_in = sites_out = 0.0
    for row in result.rows:
        perf = row.perf or {}
        sites_in += float(perf.get("reduce.sites_in", 0.0))
        sites_out += float(perf.get("reduce.sites_out", 0.0))
    if sites_out <= 0.0:
        return None
    return sites_in / sites_out


def _run_mode(config, level: str, repeats: int) -> Dict[str, Any]:
    """Best-of-*repeats* wall time of one reduction level's Fig. 5 sweep."""
    kwargs: Dict[str, Any] = {"jobs": 1, "cache": True}
    if level != "off":
        kwargs["site_reduction"] = level
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_fig5(config, **kwargs)
        times.append(time.perf_counter() - start)
    return {"wall_s": min(times),
            "wall_s_all": [round(t, 4) for t in times],
            "result": result}


def _ledger_records(ledger_path, runs, campaign: Dict[str, Any]) -> int:
    """One ``bench.case`` ledger record per timed mode (gate-comparable)."""
    ledger = Ledger(ledger_path)
    with ledger_active(ledger):
        for (engine, level), mode in runs.items():
            record_event(
                "bench.case",
                label=f"reduce.fig5_{engine}.{level}",
                config_hash=config_hash({**campaign, "engine": engine,
                                         "site_reduction": level}),
                engine=engine,
                wall_s=mode["wall_s"],
                metrics={"counters": _rows_counters(mode["result"].rows)},
                extra={"suite": "bench_reduce"})
    return len(ledger)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=80,
                        help="sensor count |V| (default 80)")
    parser.add_argument("--instances", type=int, default=1,
                        help="instances per data point (default 1)")
    parser.add_argument("--delta", type=float, default=8.0,
                        help="grid pitch δ in metres (default 8, the "
                             "dense grid the pre-pass targets)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed sweeps per mode, best kept (default 2)")
    parser.add_argument("--min-shrink", type=float, default=5.0,
                        help="aggressive shrink-factor floor (default 5)")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="aggressive end-to-end speedup floor per "
                             "engine (default 1.2)")
    parser.add_argument("--max-loss", type=float, default=0.1,
                        help="aggressive per-cell collected-volume loss "
                             "bound for claim R2 (default 0.1)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)

    import tempfile
    from pathlib import Path
    config = _bench_config(args.nodes, args.instances, args.delta)
    campaign = {
        "figure": "fig5",
        "n_nodes": args.nodes,
        "n_instances": args.instances,
        "delta": args.delta,
        "capacity_sweep": list(config.capacity_sweep),
        "k_values": list(config.k_values),
        "repeats": args.repeats,
    }

    print("warm-up sweep (untimed)...", file=sys.stderr)
    run_fig5(config, jobs=1, cache=True)
    runs: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for engine in ENGINES:
        for level in LEVELS:
            print(f"running fig5 sweep: engine={engine} level={level}...",
                  file=sys.stderr)
            runs[(engine, level)] = _run_mode(config, level, args.repeats)
            print(f"  {runs[(engine, level)]['wall_s']:.2f} s",
                  file=sys.stderr)

    modes: Dict[str, Any] = {}
    failures: List[str] = []
    for engine in ENGINES:
        off = runs[(engine, "off")]
        per_level: Dict[str, Any] = {}
        for level in LEVELS:
            mode = runs[(engine, level)]
            entry: Dict[str, Any] = {
                "wall_s": round(mode["wall_s"], 4),
                "wall_s_all": mode["wall_s_all"],
            }
            if level != "off":
                shrink = _shrink_factor(mode["result"])
                speedup = off["wall_s"] / mode["wall_s"]
                entry["shrink_factor"] = (None if shrink is None
                                          else round(shrink, 2))
                entry["speedup_vs_off"] = round(speedup, 2)
                if level == "aggressive":
                    if shrink is None or shrink < args.min_shrink:
                        failures.append(
                            f"{engine}/aggressive shrink {shrink} below "
                            f"the {args.min_shrink}x floor")
                    if speedup < args.min_speedup:
                        failures.append(
                            f"{engine}/aggressive speedup {speedup:.2f}x "
                            f"below the {args.min_speedup}x floor")
            per_level[level] = entry
        lossless = (_nontime_rows(off["result"])
                    == _nontime_rows(runs[(engine, "safe")]["result"]))
        per_level["safe"]["rows_identical_to_off"] = lossless
        if not lossless:
            failures.append(f"{engine}/safe rows differ from off")
        modes[engine] = per_level

    base = runs[("kernel", "off")]["result"]
    r1 = check_reduction_claims(base, runs[("kernel", "safe")]["result"],
                                level="safe")[0]
    r2 = check_reduction_claims(base,
                                runs[("kernel", "aggressive")]["result"],
                                level="aggressive",
                                max_loss=args.max_loss)[0]
    for claim in (r1, r2):
        print(claim, file=sys.stderr)
        if not claim.passed:
            failures.append(f"claim {claim.claim_id} failed: {claim.detail}")

    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = Path(tmp) / "bench_reduce.jsonl"
        n_records = _ledger_records(ledger_path, runs, campaign)
        records = Ledger.read(ledger_path)
    roundtrip = compare(records, records,
                        Thresholds(time_ratio=1.5, min_time_s=1e-4))
    if not roundtrip.passed:
        failures.append("identical-ledger gate round-trip failed")
    reduce_counters = [r for r in records
                       if any(k.startswith("kernel.reduce.")
                              for k in r.metrics.get("counters", {}))]
    if len(reduce_counters) != len(ENGINES) * 2:
        failures.append("reduced modes missing kernel.reduce.* counters "
                        "in their ledger records")

    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)

    report = {
        "benchmark": "bench_reduce",
        "campaign": campaign,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "floors": {
            "min_shrink": args.min_shrink,
            "min_speedup": args.min_speedup,
            "max_loss": args.max_loss,
        },
        "modes": modes,
        "claims": {
            "R1": {"passed": r1.passed, "detail": r1.detail},
            "R2": {"passed": r2.passed, "detail": r2.detail},
        },
        "delta_table": reduction_delta_table(
            base, runs[("kernel", "aggressive")]["result"]),
        "ledger": {
            "records": n_records,
            "gate_roundtrip_passed": roundtrip.passed,
        },
        "self_check_passed": not failures,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
