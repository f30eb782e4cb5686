"""``flow-parity`` — per-cell and batch-column surfaces must not drift apart.

Two invariants keep a ``plan_X`` planner and its stacked
``plan_X_batch`` sibling interchangeable for the sweep layer, and both
are checkable from the call graph without running a planner:

1. **Signature parity** — every ``plan_X_batch`` must accept the same
   planner kwargs as its per-variant sibling ``plan_X``, modulo the
   *dispatch-only* kwarg ``tsp_mode`` (consumed by the column
   dispatcher, never by the stacked formulation) and the structural
   ``energy`` → ``energies`` rename.  A kwarg accepted by one surface
   and silently swallowed (or rejected) by the other is exactly how a
   sweep config stops meaning the same thing per cell and per column.
2. **perf key contract** — every ``perf()`` writer in a family must
   publish the same ``meta["perf"]`` key set: ``engine``, ``seconds``,
   and the family's registered work counters (read from the
   ``metrics.counter(name)`` registration loops).  Downstream consumers
   (``SweepRow.deterministic_dict``, the claims harness, benchmark
   reports) index those keys blind.

A *family* is a two-component module prefix (``repro.core``,
``repro.experiments``): surfaces that must interoperate live in the same
subpackage, and scoping the contract this way keeps unrelated packages
(and test fixtures) from polluting each other's key sets.

Where ``_COLUMN_KWARGS`` declares the batchable planner options, each
declared option must actually exist on both dispatch surfaces.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Project
from repro.analysis.flow.callgraph import CallGraph, FunctionInfo

#: Kwargs consumed by the dispatcher, legitimately absent from batch.
DISPATCH_ONLY = frozenset({"tsp_mode"})

#: The per-variant -> stacked structural parameter rename.
_STRUCTURAL_RENAME = ("energy", "energies")

#: perf keys every writer carries besides the registered counters.
_BASE_PERF_KEYS = frozenset({"engine", "seconds"})


def _family(info_or_mod) -> str:
    """Two-component dotted prefix (``repro.core``)."""
    mod = getattr(info_or_mod, "module", info_or_mod)
    return ".".join(mod.dotted_name.split(".")[:2])


class _PerfWriter:
    """One ``perf()`` method's statically visible key set."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.keys: Set[str] = set()
        self.open = False          #: uses .update(...) — key set unbounded
        self.line = info.lineno
        self._scan()

    def _scan(self) -> None:
        returned: Set[str] = set()
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Return) and isinstance(node.value,
                                                           ast.Dict):
                self.line = node.lineno
                self._take_dict(node.value)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if isinstance(value, ast.Dict):
                    self._take_dict(value)
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript) \
                            and isinstance(tgt.slice, ast.Constant) \
                            and isinstance(tgt.slice.value, str):
                        self.keys.add(tgt.slice.value)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "update":
                self.open = True
            elif isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Name):
                returned.add(node.value.id)

    def _take_dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.keys.add(key.value)


def _registered_counters(graph: CallGraph) -> Dict[str, Set[str]]:
    """Counter names registered per family via ``counter(name)`` loops.

    Matches the pre-registration idiom::

        for name in ("insertions", "drains", ...):
            self.metrics.counter(name)

    (an ``Expr`` statement — chained usage like ``counter("x").inc()``
    is a write, not a registration, and is ignored).
    """
    out: Dict[str, Set[str]] = {}
    for info in graph.repro_functions():
        for node in ast.walk(info.node):
            if not isinstance(node, ast.For) \
                    or not isinstance(node.target, ast.Name) \
                    or not isinstance(node.iter, (ast.Tuple, ast.List)):
                continue
            names = [e.value for e in node.iter.elts
                     if isinstance(e, ast.Constant)
                     and isinstance(e.value, str)]
            if len(names) != len(node.iter.elts) or not names:
                continue
            registers = any(
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "counter"
                and any(isinstance(a, ast.Name)
                        and a.id == node.target.id
                        for a in stmt.value.args)
                for stmt in node.body)
            if registers:
                out.setdefault(_family(info), set()).update(names)
    return out


class FlowParityRule:
    """Diff plan_X/plan_X_batch signatures and perf-key write sites."""

    rule_id = "flow-parity"
    description = ("plan_X/plan_X_batch signatures and perf() key sets "
                   "must agree within a family")

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.flow import FlowContext
        graph = FlowContext.for_project(project).graph
        yield from self._check_signatures(graph)
        yield from self._check_perf(graph)
        yield from self._check_column_kwargs(graph)

    # -- 1. plan_X vs plan_X_batch -------------------------------------- #

    def _check_signatures(self, graph: CallGraph) -> Iterator[Finding]:
        by_name: Dict[Tuple[str, str], FunctionInfo] = {}
        for info in graph.repro_functions():
            if info.cls is None:
                by_name.setdefault((_family(info), info.name), info)
        for (family, name), base in sorted(by_name.items()):
            if name.endswith("_batch"):
                continue
            batch = by_name.get((family, name + "_batch"))
            if batch is None:
                continue
            base_params = set(base.params)
            batch_params = set(batch.params)
            energy, energies = _STRUCTURAL_RENAME
            missing = (base_params - batch_params) - DISPATCH_ONLY
            if energy in missing and energies in batch_params:
                missing.discard(energy)
            for param in sorted(missing):
                yield Finding(
                    rule=self.rule_id, path=batch.module.rel,
                    line=batch.lineno,
                    message=f"batch surface {batch.short}() does not "
                            f"accept planner kwarg {param!r} that "
                            f"{base.short}() accepts",
                    hint=f"add {param!r} to {batch.short}() (or make it "
                         "dispatch-only) so sweep configs mean the same "
                         f"thing per cell and per column; sibling at "
                         f"{base.module.rel}:{base.lineno}")
            extra = batch_params - base_params - {energies}
            for param in sorted(extra):
                yield Finding(
                    rule=self.rule_id, path=batch.module.rel,
                    line=batch.lineno,
                    message=f"batch surface {batch.short}() accepts "
                            f"kwarg {param!r} absent from "
                            f"{base.short}()",
                    hint="a batch-only option cannot be expressed by "
                         "dispatching configs; add it to the per-variant "
                         f"planner too (sibling at "
                         f"{base.module.rel}:{base.lineno})")

    # -- 2. perf key contract ------------------------------------------- #

    def _check_perf(self, graph: CallGraph) -> Iterator[Finding]:
        writers: Dict[str, List[_PerfWriter]] = {}
        for info in graph.repro_functions():
            if info.name == "perf" and info.cls is not None:
                writers.setdefault(_family(info), []).append(
                    _PerfWriter(info))
        counters = _registered_counters(graph)
        for family in sorted(writers):
            fam_writers = writers[family]
            contract: Set[str] = set(_BASE_PERF_KEYS)
            contract |= counters.get(family, set())
            for writer in fam_writers:
                contract |= writer.keys
            for writer in sorted(fam_writers,
                                 key=lambda w: w.info.qname):
                if writer.open:
                    continue       # key set unbounded; counters cover it
                missing = sorted(contract - writer.keys)
                if missing:
                    yield Finding(
                        rule=self.rule_id, path=writer.info.module.rel,
                        line=writer.line,
                        message=f"perf writer {writer.info.short}() "
                                f"omits key(s) {missing} from the "
                                f"{family} meta['perf'] contract",
                        hint="every perf() writer must publish the "
                             "same key set (engine, seconds, and the "
                             "registered counters) so consumers can "
                             "index blind; emit the key (0 if unused) "
                             "or add '# repro: allow[flow-parity]' "
                             "stating why the key cannot exist here")

    # -- 3. _COLUMN_KWARGS declarations --------------------------------- #

    def _check_column_kwargs(self, graph: CallGraph) -> Iterator[Finding]:
        plan_funcs: Dict[str, FunctionInfo] = {}
        for info in graph.repro_functions():
            if info.cls is None:
                plan_funcs.setdefault(info.name, info)
        for env in sorted(graph.envs.values(),
                          key=lambda e: e.module.rel):
            mod = env.module
            if not mod.is_repro_module or mod.tree is None:
                continue
            for stmt in mod.tree.body:
                decl = self._column_kwargs_decl(stmt)
                if decl is None:
                    continue
                line, table = decl
                for method, allowed in sorted(table.items()):
                    base = plan_funcs.get(f"plan_{method}")
                    batch = plan_funcs.get(f"plan_{method}_batch")
                    if base is not None:
                        for kwarg in sorted(set(allowed)
                                            - set(base.params)):
                            yield Finding(
                                rule=self.rule_id, path=mod.rel,
                                line=line,
                                message=f"_COLUMN_KWARGS[{method!r}] "
                                        f"allows {kwarg!r}, which "
                                        f"plan_{method}() does not "
                                        "accept",
                                hint="the column executor would forward "
                                     "an unknown kwarg; fix the table "
                                     "or the planner signature")
                    if batch is not None:
                        for kwarg in sorted(set(allowed) - DISPATCH_ONLY
                                            - set(batch.params)):
                            yield Finding(
                                rule=self.rule_id, path=mod.rel,
                                line=line,
                                message=f"_COLUMN_KWARGS[{method!r}] "
                                        f"allows {kwarg!r}, which "
                                        f"plan_{method}_batch() does "
                                        "not accept",
                                hint="the stacked call would reject the "
                                     "kwarg at sweep time; fix the "
                                     "table or the batch signature")

    @staticmethod
    def _column_kwargs_decl(stmt: ast.stmt
                            ) -> Optional[Tuple[int, Dict[str, List[str]]]]:
        """Parse ``_COLUMN_KWARGS = {"m": frozenset({"a", ...}), ...}``."""
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            return None
        if not any(isinstance(t, ast.Name) and t.id == "_COLUMN_KWARGS"
                   for t in targets):
            return None
        if not isinstance(value, ast.Dict):
            return None
        table: Dict[str, List[str]] = {}
        for key, val in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            names: List[str] = []
            elts: List[ast.expr] = []
            if isinstance(val, ast.Call) and val.args \
                    and isinstance(val.args[0], (ast.Set, ast.List,
                                                 ast.Tuple)):
                elts = val.args[0].elts
            elif isinstance(val, (ast.Set, ast.List, ast.Tuple)):
                elts = val.elts
            for e in elts:
                if isinstance(e, ast.Constant) and isinstance(e.value, str):
                    names.append(e.value)
            table[key.value] = names
        return stmt.lineno, table


__all__ = ["FlowParityRule", "DISPATCH_ONLY"]
