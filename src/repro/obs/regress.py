"""Regression observatory: aggregate run ledgers and gate on their diff.

``repro-bench compare OLD NEW --gate`` is the CI back-stop for every perf
claim the repo has accumulated (kernel ~14-20x, cache and pool
speedups): it aggregates two ledgers (:func:`aggregate`), matches
benchmark cases by ``(event, label, config_hash)`` — so a case whose
*configuration* changed is reported as new, never silently compared —
and applies :class:`Thresholds` to the per-case deltas
(:func:`compare`).

What is compared per matched case:

* **wall time** — p50 over the case's samples (nearest-rank,
  :func:`repro.obs.metrics.quantile_sorted`), gated by ``time_ratio``
  but only when the baseline p50 clears ``min_time_s`` (sub-millisecond
  cases are timer noise, not signal);
* **peak memory** — max ``mem_peak_bytes``, gated by ``mem_ratio`` when
  both ledgers measured it;
* **work counters** — the deterministic ``metrics.counters`` from the
  records, gated by ``counter_ratio``.  Counters are hardware- and
  load-independent, so this is the gate that travels across CI hosts:
  an algorithmic regression (more rescores, more delta recomputations)
  fails here even when wall-clock noise would hide it.

Aggregation is **order-insensitive** — samples are sorted before
quantiles, counters/memory take maxima — so the verdict of a compare can
never depend on ledger merge order (property-tested in
``tests/test_obs_regress.py``).  Improvements (faster, fewer counted
operations) never fail the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import quantile_sorted
from repro.obs.record import RunRecord

#: The identity a benchmark case is matched across ledgers by.
CaseKey = Tuple[str, str, str]


@dataclass(frozen=True)
class Thresholds:
    """Gate configuration: how much worse NEW may be before failing.

    Ratios are ``new / old`` upper bounds; the defaults are deliberately
    generous (catch 2x blow-ups, not scheduler noise) because CI hosts
    are shared and unwarmed.  Counters get the tight ratio — they are
    deterministic, so anything beyond float-mean jitter is a real
    algorithmic change.
    """

    time_ratio: float = 2.0
    mem_ratio: float = 2.0
    counter_ratio: float = 1.05
    min_time_s: float = 1e-3

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for report JSON."""
        return {"time_ratio": self.time_ratio, "mem_ratio": self.mem_ratio,
                "counter_ratio": self.counter_ratio,
                "min_time_s": self.min_time_s}


@dataclass(frozen=True)
class CaseStats:
    """Order-insensitive aggregate of one case's ledger records."""

    event: str
    label: str
    config_hash: str
    n: int
    wall_p50_s: float
    wall_p95_s: float
    mem_peak_bytes: Optional[int]
    counters: Dict[str, float]

    @property
    def key(self) -> CaseKey:
        """The cross-ledger matching identity."""
        return (self.event, self.label, self.config_hash)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict for report JSON."""
        return {"event": self.event, "label": self.label,
                "config_hash": self.config_hash, "n": self.n,
                "wall_p50_s": self.wall_p50_s, "wall_p95_s": self.wall_p95_s,
                "mem_peak_bytes": self.mem_peak_bytes,
                "counters": dict(self.counters)}


def aggregate(records: Iterable[RunRecord]) -> Dict[CaseKey, CaseStats]:
    """Aggregate ledger records per case, insensitive to record order.

    Wall-clock samples are sorted before the nearest-rank quantiles,
    counters and peak memory take per-case maxima — a shuffled ledger
    aggregates to the identical stats, which is what makes compare
    verdicts independent of worker-shard merge order.
    """
    walls: Dict[CaseKey, List[float]] = {}
    mems: Dict[CaseKey, List[int]] = {}
    counters: Dict[CaseKey, Dict[str, float]] = {}
    for rec in records:
        key = (rec.event, rec.label, rec.config_hash)
        walls.setdefault(key, []).append(float(rec.wall_s))
        if rec.mem_peak_bytes is not None:
            mems.setdefault(key, []).append(int(rec.mem_peak_bytes))
        acc = counters.setdefault(key, {})
        for name, value in rec.metrics.get("counters", {}).items():
            acc[name] = max(acc.get(name, 0.0), float(value))
    stats: Dict[CaseKey, CaseStats] = {}
    for key, samples in walls.items():
        samples.sort()
        stats[key] = CaseStats(
            event=key[0], label=key[1], config_hash=key[2],
            n=len(samples),
            wall_p50_s=quantile_sorted(samples, 0.5),
            wall_p95_s=quantile_sorted(samples, 0.95),
            mem_peak_bytes=max(mems[key]) if key in mems else None,
            counters=counters.get(key, {}))
    return stats


@dataclass(frozen=True)
class CaseDelta:
    """One matched (or unmatched) case in a compare report."""

    key: CaseKey
    status: str                   # "ok" | "regressed" | "new" | "removed"
    reasons: Tuple[str, ...] = ()
    old: Optional[CaseStats] = None
    new: Optional[CaseStats] = None

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict for report JSON."""
        return {"event": self.key[0], "label": self.key[1],
                "config_hash": self.key[2], "status": self.status,
                "reasons": list(self.reasons),
                "old": self.old.as_dict() if self.old else None,
                "new": self.new.as_dict() if self.new else None}


@dataclass(frozen=True)
class CompareReport:
    """Every case delta plus the gate verdict."""

    deltas: Tuple[CaseDelta, ...]
    thresholds: Thresholds = field(default_factory=Thresholds)

    @property
    def regressions(self) -> List[CaseDelta]:
        """The deltas that fail the gate."""
        return [d for d in self.deltas if d.status == "regressed"]

    @property
    def passed(self) -> bool:
        """True when no matched case regressed (new/removed never fail)."""
        return not self.regressions

    @property
    def compared_nothing(self) -> bool:
        """True when the baseline has cases but NEW matched none of them.

        An empty candidate ledger, or one whose every case changed its
        config hash, would otherwise pass the gate vacuously; ``--gate``
        refuses it.  Partial drift (some cases matched) stays
        informational.
        """
        statuses = {d.status for d in self.deltas}
        return "removed" in statuses and not statuses & {"ok", "regressed"}

    def as_dict(self) -> Dict[str, Any]:
        """JSON report: thresholds, verdict, per-case deltas."""
        return {"passed": self.passed,
                "regressions": len(self.regressions),
                "compared_nothing": self.compared_nothing,
                "thresholds": self.thresholds.as_dict(),
                "cases": [d.as_dict() for d in self.deltas]}

    def render(self) -> str:
        """Human-readable compare table, regressions first."""
        lines = []
        order = {"regressed": 0, "ok": 1, "new": 2, "removed": 3}
        for d in sorted(self.deltas,
                        key=lambda d: (order.get(d.status, 9), d.key)):
            head = f"[{d.status:>9}] {d.key[0]} {d.key[1]}"
            if d.status == "ok" and d.old and d.new:
                ratio = (d.new.wall_p50_s / d.old.wall_p50_s
                         if d.old.wall_p50_s > 0 else float("nan"))
                head += (f"  p50 {d.old.wall_p50_s * 1e3:.2f}ms -> "
                         f"{d.new.wall_p50_s * 1e3:.2f}ms "
                         f"({ratio:.2f}x)")
            lines.append(head)
            for reason in d.reasons:
                lines.append(f"            - {reason}")
        if not self.passed:
            verdict = f"FAIL ({len(self.regressions)} regression(s))"
        elif self.compared_nothing:
            verdict = "FAIL (no baseline case matched)"
        else:
            verdict = "PASS"
        lines.append(f"gate: {verdict}")
        return "\n".join(lines)


def _check_case(old: CaseStats, new: CaseStats,
                t: Thresholds) -> Tuple[str, ...]:
    """The gate reasons for one matched case (empty = within thresholds)."""
    reasons: List[str] = []
    if old.wall_p50_s >= t.min_time_s and old.wall_p50_s > 0:
        ratio = new.wall_p50_s / old.wall_p50_s
        if ratio > t.time_ratio:
            reasons.append(
                f"wall p50 {old.wall_p50_s:.4f}s -> {new.wall_p50_s:.4f}s "
                f"({ratio:.2f}x > {t.time_ratio:.2f}x)")
    if (old.mem_peak_bytes and new.mem_peak_bytes is not None
            and old.mem_peak_bytes > 0):
        ratio = new.mem_peak_bytes / old.mem_peak_bytes
        if ratio > t.mem_ratio:
            reasons.append(
                f"mem peak {old.mem_peak_bytes} -> {new.mem_peak_bytes} "
                f"bytes ({ratio:.2f}x > {t.mem_ratio:.2f}x)")
    for name in sorted(set(old.counters) & set(new.counters)):
        if old.counters[name] <= 0:
            continue
        ratio = new.counters[name] / old.counters[name]
        if ratio > t.counter_ratio:
            reasons.append(
                f"counter {name} {old.counters[name]:g} -> "
                f"{new.counters[name]:g} "
                f"({ratio:.3f}x > {t.counter_ratio:.3f}x)")
    return tuple(reasons)


def compare(old_records: Iterable[RunRecord],
            new_records: Iterable[RunRecord],
            thresholds: Optional[Thresholds] = None) -> CompareReport:
    """Diff two ledgers case-by-case under *thresholds*.

    Cases present only in NEW are ``"new"``, only in OLD ``"removed"`` —
    both informational, never regressions (a changed ``config_hash``
    shows up as one of each, flagging the config drift instead of
    comparing incomparable runs).  Only when *no* baseline case matched
    does the gate fail (:attr:`CompareReport.compared_nothing`).
    """
    t = thresholds if thresholds is not None else Thresholds()
    old_stats = aggregate(old_records)
    new_stats = aggregate(new_records)
    deltas: List[CaseDelta] = []
    for key in sorted(set(old_stats) | set(new_stats)):
        old = old_stats.get(key)
        new = new_stats.get(key)
        if old is None:
            deltas.append(CaseDelta(key=key, status="new", new=new))
        elif new is None:
            deltas.append(CaseDelta(key=key, status="removed", old=old))
        else:
            reasons = _check_case(old, new, t)
            deltas.append(CaseDelta(
                key=key, status="regressed" if reasons else "ok",
                reasons=reasons, old=old, new=new))
    return CompareReport(deltas=tuple(deltas), thresholds=t)


__all__ = ["Thresholds", "CaseStats", "CaseDelta", "CompareReport",
           "aggregate", "compare", "CaseKey"]
