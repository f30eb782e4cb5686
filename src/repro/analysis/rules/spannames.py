"""``obs-span-naming`` — dotted lowercase span names at every trace site.

The :mod:`repro.obs` profiling report and Chrome-trace export aggregate by
span *name*; a free-form name ("Rescore!", "kernelRescore") fragments the
aggregation and breaks grepping a trace back to its module.  This rule
checks every ``span("...")`` call site in the ``repro`` package: the first
argument, when it is a string literal, must be a dotted lowercase path

    <module>.<operation>            e.g. ``kernel.rescore``, ``alg2.round``

— at least two dot-separated segments, each ``[a-z][a-z0-9_]*``.  Call
sites passing a non-literal name (a variable, an f-string) are skipped:
the rule is a spelling check, not a data-flow analysis.

Recognised call shapes are the bare helper ``span(...)`` (the idiom used
by ``from repro.obs.tracer import span``) and method calls whose receiver
looks like a tracer (``tracer.span(...)``, ``trace.span(...)``,
``obs.span(...)``, ``self.tracer.span(...)``, …).  Unrelated ``.span``
attributes (e.g. a regex match span) do not fit those shapes.

The same namespace covers the run ledger: ``record_event("...")`` event
names and ``RunRecord(event="...")`` literals must be dotted
``family.verb`` paths — the regression observatory aggregates by these
strings exactly as the trace report aggregates by span name.  Work
counter keys (``meta["perf"]``) are not naming sites: their short names
are namespaced when the ledger folds them (``kernel.*``) and are pinned
by the ``meta["perf"]`` contract.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.engine import Finding, Project, iter_call_name

#: Valid span names: two-plus dotted lowercase segments.
SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Receiver names (last link before ``.span``) treated as tracers.
TRACER_RECEIVERS = frozenset({
    "obs", "trace", "tracer", "_trace", "_tracer", "_active",
})


def _span_call_name(call: ast.Call) -> bool:
    """True when *call* is a recognised span-creation site."""
    chain = iter_call_name(call)
    if not chain or chain[-1] != "span":
        return False
    if len(chain) == 1:                      # bare span("...") helper
        return True
    return chain[-2] in TRACER_RECEIVERS     # tracer.span("..."), etc.


def _first_arg_literal(call: ast.Call) -> Optional[str]:
    """The call's first positional argument when it is a string literal."""
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def _named_literal(call: ast.Call) -> Optional[tuple]:
    """``(name, what)`` for any recognised naming site of *call*.

    Covers ledger event emission (``record_event("...")`` and direct
    ``RunRecord(event="...")`` construction).  Returns ``None`` when
    *call* is neither or the name is not a literal.
    """
    chain = iter_call_name(call)
    if chain and chain[-1] == "record_event":
        name = _first_arg_literal(call)
        return (name, "ledger event") if name is not None else None
    if chain and chain[-1] == "RunRecord":
        for kw in call.keywords:
            if kw.arg == "event" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                return (kw.value.value, "ledger event")
    return None


class ObsSpanNamingRule:
    """Require ``<module>.<operation>`` dotted lowercase span names."""

    rule_id = "obs-span-naming"
    description = ("span()/ledger-event names must be dotted lowercase "
                   "paths (<family>.<verb>, e.g. 'kernel.rescore')")

    def check(self, project: Project) -> Iterator[Finding]:
        for mod in project.repro_modules():
            if mod.tree is None:
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                if _span_call_name(node):
                    name = _first_arg_literal(node)
                    if name is None:  # dynamic name: nothing to spell-check
                        continue
                    if SPAN_NAME_RE.match(name):
                        continue
                    yield Finding(
                        rule=self.rule_id, path=mod.rel, line=node.lineno,
                        message=f"span name {name!r} is not a dotted "
                                "lowercase path (<module>.<operation>)",
                        hint="rename it like 'kernel.rescore' / 'alg2.round' "
                             "so report aggregation and trace grepping stay "
                             "stable")
                    continue
                named = _named_literal(node)
                if named is None:
                    continue
                name, what = named
                if SPAN_NAME_RE.match(name):
                    continue
                yield Finding(
                    rule=self.rule_id, path=mod.rel, line=node.lineno,
                    message=f"{what} name {name!r} is not a dotted "
                            "lowercase path (<family>.<verb>)",
                    hint="name it like 'planner.call' / 'sweep.cell' so "
                         "ledger aggregation and regression matching stay "
                         "stable")


__all__ = ["ObsSpanNamingRule", "SPAN_NAME_RE", "TRACER_RECEIVERS"]
