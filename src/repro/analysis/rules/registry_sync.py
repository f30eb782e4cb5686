"""``registry-sync`` — the planner registry, dispatcher, and docs stay in step.

``repro.core.planner.PLANNERS`` (method name -> description) gates how
users reach the planners:

* it must match the ``method == "..."`` dispatch branches inside the
  facade (the ``plan_tour`` entry point or its ``_dispatch`` helper)
  exactly, in both directions;
* ``docs/architecture.md`` must mention every planner method, so the
  architecture document cannot silently fall behind a new registry entry.

The rule reads the registry module from the project root even when the
checked paths do not include it (``check tests`` still sees ``src``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.engine import Finding, Project, SourceModule

_PLANNER_MODULE = "src/repro/core/planner.py"
_ARCH_DOC = "docs/architecture.md"


def _top_level_assign(mod: SourceModule, name: str) -> Optional[ast.expr]:
    """Value of a top-level ``name = ...`` assignment, else None."""
    if mod.tree is None:
        return None
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return stmt.value
    return None


class RegistrySyncRule:
    """Cross-check PLANNERS against dispatch code and docs."""

    rule_id = "registry-sync"
    description = ("the PLANNERS registry must match plan_tour dispatch "
                   "and docs/architecture.md")

    def check(self, project: Project) -> Iterator[Finding]:
        mod = project.ensure_module(_PLANNER_MODULE)
        if mod is None or mod.tree is None:
            return
        value = _top_level_assign(mod, "PLANNERS")
        keys: List[str] = []
        if isinstance(value, ast.Dict):
            for k in value.keys:
                if isinstance(k, ast.Constant) and isinstance(k.value, str):
                    keys.append(k.value)
        if not keys:
            yield Finding(rule=self.rule_id, path=mod.rel, line=1,
                          message="PLANNERS registry not found as a literal "
                                  "dict of string keys",
                          hint="keep PLANNERS a flat {name: description} "
                               "literal so tools can read it")
            return
        dispatched = self._dispatch_strings(mod)
        for key in keys:
            if key not in dispatched:
                yield Finding(
                    rule=self.rule_id, path=mod.rel, line=1,
                    message=f"PLANNERS key {key!r} has no "
                            "'method == ...' dispatch branch in plan_tour",
                    hint="add the dispatch branch or drop the registry entry")
        for name in sorted(dispatched - set(keys)):
            yield Finding(
                rule=self.rule_id, path=mod.rel, line=1,
                message=f"plan_tour dispatches on {name!r} which is missing "
                        "from the PLANNERS registry",
                hint="register the method in PLANNERS (CLIs and experiment "
                     "configs enumerate it)")
        arch = project.read_root_file(_ARCH_DOC)
        if arch is not None:
            for key in keys:
                if key not in arch:
                    yield Finding(
                        rule=self.rule_id, path=mod.rel, line=1,
                        message=f"planner method {key!r} is not mentioned "
                                f"in {_ARCH_DOC}",
                        hint="document the planner in the architecture notes")

    @staticmethod
    def _dispatch_strings(mod: SourceModule) -> Set[str]:
        out: Set[str] = set()
        if mod.tree is None:
            return out
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.FunctionDef)
                    and node.name in ("plan_tour", "_dispatch")):
                continue
            for cmp_node in ast.walk(node):
                if not isinstance(cmp_node, ast.Compare):
                    continue
                if not (isinstance(cmp_node.left, ast.Name)
                        and cmp_node.left.id == "method"):
                    continue
                if len(cmp_node.ops) == 1 \
                        and isinstance(cmp_node.ops[0], (ast.Eq, ast.In)):
                    for comp in cmp_node.comparators:
                        if isinstance(comp, ast.Constant) \
                                and isinstance(comp.value, str):
                            out.add(comp.value)
        return out


__all__ = ["RegistrySyncRule"]
