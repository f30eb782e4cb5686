"""Run-ledger records: one structured measurement per planner/sweep/bench run.

A :class:`RunRecord` is the ledger's unit of accounting — every
``plan_tour`` facade call, every ``run_sweep`` cell/column, and every
``repro-bench`` case emits one.  The schema is flat JSON:

``v``
    record schema version (:data:`RECORD_VERSION`);
``event`` / ``label``
    what ran — ``event`` is a dotted ``family.verb`` name
    (``planner.call``, ``sweep.cell``, ``bench.case``; the
    ``obs-span-naming`` lint rule enforces the spelling at emission
    sites), ``label`` distinguishes cases within a family (planner
    method, algorithm display name, bench case);
``config_hash``
    hex digest of the canonically-serialised configuration
    (:func:`config_hash` over the same JSON transport the parallel
    executor ships work units with) — two records with equal hashes ran
    the same campaign;
``engine`` / ``jobs``
    the plan's ``meta["perf"]["engine"]`` path label (``kernel`` for a
    per-cell Algorithm 2/3 plan and the baseline's prune cache, ``batch``
    for a batch column, ``scalar`` for Algorithm 1's restart-by-restart
    GRASP) and worker count;
``wall_s``
    measured wall-clock seconds (**nondeterministic** — excluded from
    :meth:`RunRecord.deterministic_dict`);
``metrics``
    a full :meth:`repro.obs.metrics.MetricsRegistry.snapshot` (work
    counters deterministic, ``timers_s`` wall-clock);
``spans``
    optional per-span-family stats ``{name: {count, total_s, p95_s}}``
    summarised from a tracer, when one was active;
``mem_peak_bytes``
    peak traced allocation (``tracemalloc``), when memory profiling was
    on;
``env``
    host fingerprint (:func:`environment_fingerprint`);
``extra``
    emission-site JSON payload (cell index, parameter value, …);
``ts``
    unix timestamp of emission (nondeterministic, may be ``None``).

Records round-trip **losslessly** through :meth:`RunRecord.as_dict` /
:meth:`RunRecord.from_dict` and JSONL (property-tested in
``tests/test_obs_ledger.py``); the deterministic view is what regression
comparisons and the merge-order tests key on.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

#: Schema version stamped into every record.
RECORD_VERSION = 1

#: Metrics-snapshot sections that carry wall-clock (dropped from the
#: deterministic view alongside ``wall_s``).
_NONDETERMINISTIC_METRICS = ("timers_s", "histograms")

#: Key prefix of measured wall-clock in a tour's ``meta["perf"]``
#: snapshot (``repro.experiments.runner`` re-exports this as
#: ``PERF_SECONDS_PREFIX``; excluded from determinism comparisons).
PERF_SECONDS_PREFIX = "seconds."


def canonical_json(payload: Any) -> str:
    """The canonical serialisation records hash configurations with.

    Same transport discipline as the parallel executor's work units:
    sorted keys, minimal separators, data only.  Raises ``TypeError`` on
    non-JSON input — callers sanitise first (:func:`sanitize_config`).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_hash(payload: Any) -> str:
    """Short stable hex digest of a JSON-serialisable configuration."""
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:16]


def sanitize_config(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A JSON-safe copy of *payload* for hashing.

    Non-JSON values (prebuilt geometry, caches) are replaced by their
    type name — deterministic, unlike their ``repr`` (which embeds
    addresses) — so facade calls with injected artifacts still hash
    stably.
    """
    clean: Dict[str, Any] = {}
    for key, value in payload.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            clean[str(key)] = f"<{type(value).__name__}>"
        else:
            clean[str(key)] = value
    return clean


def flatten_perf(perf: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    """Flatten a (possibly nested) ``meta["perf"]`` dict into dotted keys.

    ``{"sites_rescored": 3, "seconds": {"rescore": 0.1}}`` becomes
    ``{"sites_rescored": 3.0, "seconds.rescore": 0.1}``.  Non-numeric
    leaves (e.g. the ``"engine"`` string) and booleans are skipped.  The
    one flattening shared by the sweep runner's perf aggregation, the
    planner facade's ledger emission, and the bench adapters.
    """
    flat: Dict[str, float] = {}
    for key, val in perf.items():
        dotted = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(flatten_perf(val, prefix=f"{dotted}."))
        elif isinstance(val, bool):
            continue
        elif isinstance(val, (int, float)):
            flat[dotted] = float(val)
    return flat


def perf_counter_metrics(perf: Dict[str, Any],
                         namespace: str = "kernel.") -> Dict[str, float]:
    """The deterministic work counters of one perf snapshot, namespaced.

    Drops the measured ``seconds.*`` entries — what remains is
    hardware-independent (insertions, rescores, ...), the ledger metrics
    a cross-host regression gate can trust.
    """
    return {f"{namespace}{key}": value
            for key, value in flatten_perf(perf).items()
            if not key.startswith(PERF_SECONDS_PREFIX)}


def perf_timer_metrics(perf: Dict[str, Any],
                       namespace: str = "kernel.") -> Dict[str, float]:
    """The measured per-phase seconds of one perf snapshot, namespaced
    as timers (nondeterministic; excluded from deterministic views)."""
    return {f"{namespace}{key[len(PERF_SECONDS_PREFIX):]}": value
            for key, value in flatten_perf(perf).items()
            if key.startswith(PERF_SECONDS_PREFIX)}


def environment_fingerprint() -> Dict[str, Any]:
    """The host facts a regression report needs to read two ledgers.

    Python/numpy versions, platform string, and CPU count — enough to
    spot "the baseline ran on different hardware" without shipping
    anything sensitive.
    """
    try:
        import numpy
        numpy_version = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


@dataclass(frozen=True)
class RunRecord:
    """One ledger entry (see the module docstring for field semantics)."""

    event: str
    label: str
    config_hash: str = ""
    engine: Optional[str] = None
    jobs: int = 1
    wall_s: float = 0.0
    metrics: Dict[str, Any] = field(default_factory=dict)
    spans: Dict[str, Any] = field(default_factory=dict)
    mem_peak_bytes: Optional[int] = None
    env: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    ts: Optional[float] = None
    v: int = RECORD_VERSION

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready dict, inverse of :meth:`from_dict`."""
        return {
            "v": self.v,
            "event": self.event,
            "label": self.label,
            "config_hash": self.config_hash,
            "engine": self.engine,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "metrics": self.metrics,
            "spans": self.spans,
            "mem_peak_bytes": self.mem_peak_bytes,
            "env": self.env,
            "extra": self.extra,
            "ts": self.ts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`as_dict` output (rejects unknown
        keys so a schema bump cannot be silently misread)."""
        if not isinstance(data, dict):
            raise TypeError(f"run record payload must be a dict, "
                            f"got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RunRecord fields: {unknown}")
        return cls(**data)

    def deterministic_dict(self) -> Dict[str, Any]:
        """The run-to-run reproducible view of the record.

        Drops measured wall-clock (``wall_s``, ``ts``, metric timers and
        histograms, span stats), memory, and the host fingerprint —
        keeping the identity fields and the deterministic work counters,
        the same discipline as ``SweepRow.deterministic_dict``.
        """
        det = self.as_dict()
        for key in ("wall_s", "ts", "spans", "mem_peak_bytes", "env"):
            del det[key]
        det["metrics"] = {k: v for k, v in self.metrics.items()
                          if k not in _NONDETERMINISTIC_METRICS}
        return det


__all__ = ["RunRecord", "RECORD_VERSION", "canonical_json", "config_hash",
           "sanitize_config", "environment_fingerprint", "flatten_perf",
           "perf_counter_metrics", "perf_timer_metrics",
           "PERF_SECONDS_PREFIX"]
