"""``flow-determinism`` — nondeterminism may not reach a reproducible sink.

The repo's core promise is bitwise-identical tours and sweep rows for
any ``jobs=N``.  That promise dies silently when a nondeterministic
value (or ordering) flows — often several calls deep — into one of the
*reproducible sinks*:

* the return value of a planner (any ``repro`` function returning a
  ``CollectionTour``),
* a deterministic :class:`~repro.experiments.runner.SweepRow` field
  (everything except the measured ``mean_time_s``/``std_time_s``),
* a cache key (any ``repro`` function named ``*_key``/``cache_key`` —
  the :class:`~repro.experiments.artifacts.ArtifactCache` and
  ``SparseCoverage`` keying helpers),
* a traced span attribute (``span(..., attr=value)``) — span streams are
  diffed across runs by the observability tests.

This rule seeds the taint lattice of :mod:`repro.analysis.flow.taint`
at the nondeterminism sources (wall-clock reads, unseeded RNG draws,
``id()``/``hash()``/entropy, set iteration, worker completion order),
propagates it interprocedurally via per-function summaries, and reports
every concrete taint observed at a sink, with the full
``source -> hop -> ... -> sink`` trace rendered in the finding's hint.

Known limits (by design): attribute *stores* drop taint, so the
sanctioned wall-clock plumbing (the runner's ``Timer`` feeding
``mean_time_s``/``std_time_s``, spans recording their own durations)
never fires; ``dict`` iteration is insertion-ordered in supported
Pythons and is not a source.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Project
from repro.analysis.flow.callgraph import FunctionInfo, short_name, target_name
from repro.analysis.flow.taint import SinkHit, SinkSpec, render_trace

#: SweepRow constructor fields, in declaration order.
SWEEPROW_FIELDS: Tuple[str, ...] = (
    "param_name", "param_value", "algorithm", "mean_volume_gb",
    "std_volume_gb", "mean_time_s", "std_time_s", "n_instances", "perf")

#: SweepRow fields excluded from ``deterministic_dict()`` — taint landing
#: only there is measured wall-clock, not a reproducibility bug.
_TIME_FIELDS = frozenset({"mean_time_s", "std_time_s"})

_TOUR_ANN_RE = re.compile(r"\bCollectionTour\b|\bTour\b")


class DeterminismSinks(SinkSpec):
    """The reproducible sinks listed in the module docstring."""

    def return_sink(self, info: FunctionInfo) -> Optional[str]:
        if not info.module.is_repro_module:
            return None
        if _TOUR_ANN_RE.search(info.return_annotation):
            return f"the planner return value of {info.short}()"
        if info.name.endswith("_key") or info.name == "cache_key":
            return f"the cache key built by {info.short}()"
        return None

    def call_arg_sinks(self, info: FunctionInfo, call: ast.Call,
                       target: object) -> List[Tuple[str, ast.expr]]:
        if not info.module.is_repro_module:
            return []
        short = short_name(target_name(target))
        out: List[Tuple[str, ast.expr]] = []
        if short == "SweepRow":
            for i, arg in enumerate(call.args):
                if i < len(SWEEPROW_FIELDS) \
                        and SWEEPROW_FIELDS[i] not in _TIME_FIELDS:
                    out.append((f"SweepRow deterministic field "
                                f"{SWEEPROW_FIELDS[i]!r}", arg))
            for kw in call.keywords:
                if kw.arg is None:
                    out.append(("SweepRow deterministic fields (**kwargs)",
                                kw.value))
                elif kw.arg not in _TIME_FIELDS:
                    out.append((f"SweepRow deterministic field {kw.arg!r}",
                                kw.value))
        elif short == "span":
            for kw in call.keywords:
                if kw.arg is not None:
                    out.append((f"traced span attribute {kw.arg!r}",
                                kw.value))
        return out


class FlowDeterminismRule:
    """Report nondeterministic taint reaching a reproducible sink."""

    rule_id = "flow-determinism"
    description = ("nondeterminism sources (clock, unseeded RNG, id(), "
                   "set/completion order) must not flow into planner "
                   "returns, SweepRow fields, cache keys, or span "
                   "attributes")

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.flow import FlowContext
        ctx = FlowContext.for_project(project)
        analysis = ctx.taint_analysis(DeterminismSinks())
        seen: Set[Tuple[str, int, str, str, str]] = set()
        for hit in analysis.all_sink_hits():
            key = (hit.path, hit.line, hit.sink, hit.taint.kind,
                   hit.taint.source)
            if key in seen:
                continue
            seen.add(key)
            yield self._finding(hit)

    def _finding(self, hit: SinkHit) -> Finding:
        return Finding(
            rule=self.rule_id, path=hit.path, line=hit.line,
            message=f"{hit.taint.kind}-nondeterminism from "
                    f"{hit.taint.source} reaches {hit.sink} "
                    f"(in {hit.func}())",
            hint=f"trace: {render_trace(hit.taint)}; thread a seeded "
                 "Generator / sort before iterating / key on stable data, "
                 "or add '# repro: allow[flow-determinism]' with a reason "
                 "if the sink is insensitive to this value")


__all__ = ["FlowDeterminismRule", "DeterminismSinks", "SWEEPROW_FIELDS"]
