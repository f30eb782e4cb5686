"""Call-graph construction for the interprocedural flow rules.

The graph is deliberately *name-based and conservative*: it resolves
what a lint pass can resolve without executing code —

* plain calls to functions defined in the same module,
* calls through ``import``/``from .. import`` aliases into other loaded
  modules (matched by dotted module name),
* ``self.method()`` calls inside a class,
* ``var.method()`` calls where ``var`` was locally assigned from a class
  constructor (one level of local type inference, the same inference the
  taint walker uses),

and records everything else as an *external* edge carrying the dotted
call chain (``numpy.random.default_rng``, ``time.perf_counter``).  The
flow rules treat unresolved calls conservatively; the external edges are
exactly where the determinism source tables match.

``CallGraph.to_json_dict`` / ``to_dot`` back the CLI's
``--callgraph-out`` export so CI can archive the graph per run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Project, SourceModule

#: Qualified-name separator between module and in-module path
#: (``repro.core.kernel:PlannerKernel.perf``).
QSEP = ":"


def _param_names(node: ast.AST) -> List[str]:
    """Positional + keyword-only parameter names, minus self/cls."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def ann_text(node: Optional[ast.expr]) -> str:
    """Source text of an annotation node ('' when absent)."""
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ""


@dataclass
class FunctionInfo:
    """One function or method known to the graph."""

    qname: str
    module: SourceModule
    node: ast.AST                  #: FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None      #: owning class name, if a method
    lineno: int = 0

    @property
    def name(self) -> str:
        """Bare function name (last path segment)."""
        return self.qname.rsplit(".", 1)[-1].rsplit(QSEP, 1)[-1]

    @property
    def short(self) -> str:
        """In-module path (``PlannerKernel.perf``)."""
        return self.qname.split(QSEP, 1)[1]

    @property
    def params(self) -> List[str]:
        """Parameter names (positional + kw-only, minus self/cls)."""
        return _param_names(self.node)

    @property
    def return_annotation(self) -> str:
        """Return-annotation source text ('' when unannotated)."""
        return ann_text(self.node.returns)

    def param_annotation(self, name: str) -> str:
        """Annotation text of parameter *name* ('' when unannotated)."""
        args = self.node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            if a.arg == name:
                return ann_text(a.annotation)
        return ""


@dataclass
class ClassInfo:
    """One class known to the graph (constructor target + methods)."""

    qname: str
    module: SourceModule
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[-1].rsplit(QSEP, 1)[-1]


@dataclass(frozen=True)
class CallEdge:
    """One call site: caller qname -> callee qname or external dotted name."""

    caller: str
    callee: str
    line: int
    external: bool


@dataclass
class ModuleEnv:
    """Per-module name bindings used to resolve calls."""

    module: SourceModule
    import_alias: Dict[str, str] = field(default_factory=dict)
    from_names: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


class CallGraph:
    """Functions, classes, and call edges of one analysed project."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: List[CallEdge] = []
        self.envs: Dict[str, ModuleEnv] = {}
        self._by_dotted: Dict[str, ModuleEnv] = {}
        self._adjacency: Optional[Dict[str, List[CallEdge]]] = None

    # -- lookups -------------------------------------------------------- #

    def env_for(self, mod: SourceModule) -> Optional[ModuleEnv]:
        return self.envs.get(mod.rel)

    def resolve_module(self, dotted: str) -> Optional[ModuleEnv]:
        """A loaded module by dotted name (exact, then suffix match)."""
        env = self._by_dotted.get(dotted)
        if env is not None:
            return env
        tail = "." + dotted
        for name, cand in self._by_dotted.items():
            if name.endswith(tail):
                return cand
        return None

    def resolve_dotted_value(self, dotted: str
                             ) -> Optional[Tuple[ModuleEnv, str]]:
        """Split ``pkg.mod.attr`` into (module env, attr) when loaded."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            env = self.resolve_module(".".join(parts[:cut]))
            if env is not None and cut < len(parts):
                return env, parts[cut]
        return None

    def callees(self, qname: str) -> List[CallEdge]:
        """Outgoing edges of one function (adjacency is cached)."""
        if self._adjacency is None:
            adj: Dict[str, List[CallEdge]] = {}
            for edge in self.edges:
                adj.setdefault(edge.caller, []).append(edge)
            self._adjacency = adj
        return self._adjacency.get(qname, [])

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Internal functions reachable from *roots* (roots included)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for edge in self.callees(cur):
                if not edge.external and edge.callee not in seen:
                    if edge.callee in self.functions:
                        stack.append(edge.callee)
                    cls = self.classes.get(edge.callee)
                    if cls is not None:
                        stack.extend(m.qname for m in cls.methods.values())
        return seen

    def repro_functions(self) -> Iterator[FunctionInfo]:
        """Functions belonging to ``repro`` library modules."""
        for info in self.functions.values():
            if info.module.is_repro_module:
                yield info

    # -- export --------------------------------------------------------- #

    def to_json_dict(self) -> Dict[str, object]:
        """Stable JSON shape for the ``--callgraph-out`` artifact."""
        return {
            "version": 1,
            "functions": [
                {"qname": q, "path": f.module.rel, "line": f.lineno}
                for q, f in sorted(self.functions.items())],
            "edges": [
                {"caller": e.caller, "callee": e.callee, "line": e.line,
                 "external": e.external}
                for e in sorted(self.edges,
                                key=lambda e: (e.caller, e.line, e.callee))],
        }

    def to_dot(self) -> str:
        """GraphViz digraph of the internal edges (externals grouped)."""
        lines = ["digraph callgraph {", "  rankdir=LR;",
                 '  node [shape=box, fontsize=9];']
        internal = sorted({(e.caller, e.callee) for e in self.edges
                           if not e.external})
        for caller, callee in internal:
            lines.append(f'  "{caller}" -> "{callee}";')
        externals = sorted({(e.caller, e.callee) for e in self.edges
                            if e.external})
        for caller, callee in externals:
            lines.append(f'  "{caller}" -> "{callee}" [style=dashed, '
                         "color=gray];")
        lines.append("}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------- #

def _scan_module(mod: SourceModule) -> ModuleEnv:
    """First pass: imports, top-level functions, classes and methods."""
    env = ModuleEnv(module=mod)
    assert mod.tree is not None
    for stmt in mod.tree.body:
        _scan_stmt(env, stmt)
    return env


def _scan_stmt(env: ModuleEnv, stmt: ast.stmt, prefix: str = "") -> None:
    mod = env.module
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            env.import_alias[alias.asname or alias.name.split(".")[0]] = \
                alias.name if alias.asname else alias.name.split(".")[0]
            if alias.asname is None and "." in alias.name:
                # ``import repro.core.kernel`` binds the root package but
                # resolves the full dotted chain at call sites.
                env.import_alias[alias.name.split(".")[0]] = \
                    alias.name.split(".")[0]
    elif isinstance(stmt, ast.ImportFrom):
        if stmt.module is not None and stmt.level == 0:
            for alias in stmt.names:
                if alias.name != "*":
                    env.from_names[alias.asname or alias.name] = \
                        f"{stmt.module}.{alias.name}"
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        qname = f"{mod.dotted_name}{QSEP}{prefix}{stmt.name}"
        info = FunctionInfo(qname=qname, module=mod, node=stmt,
                            lineno=stmt.lineno)
        if not prefix:
            env.functions[stmt.name] = info
        else:
            env.functions.setdefault(f"{prefix}{stmt.name}", info)
        for inner in stmt.body:
            _scan_stmt(env, inner, prefix=f"{prefix}{stmt.name}.")
    elif isinstance(stmt, ast.ClassDef) and not prefix:
        cls = ClassInfo(qname=f"{mod.dotted_name}{QSEP}{stmt.name}",
                        module=mod, node=stmt)
        for inner in stmt.body:
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                minfo = FunctionInfo(
                    qname=f"{cls.qname}.{inner.name}", module=mod,
                    node=inner, cls=stmt.name, lineno=inner.lineno)
                cls.methods[inner.name] = minfo
        env.classes[stmt.name] = cls
    elif isinstance(stmt, (ast.If, ast.Try)):
        for body in ([stmt.body, getattr(stmt, "orelse", [])]
                     + [h.body for h in getattr(stmt, "handlers", [])]
                     + [getattr(stmt, "finalbody", [])]):
            for inner in body:
                _scan_stmt(env, inner, prefix=prefix)


def dotted_chain(call: ast.Call) -> List[str]:
    """Name chain of a call target (like ``iter_call_name``)."""
    chain: List[str] = []
    cur: ast.expr = call.func
    while isinstance(cur, ast.Attribute):
        chain.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        chain.append(cur.id)
        return list(reversed(chain))
    return []


class Resolver:
    """Resolves call targets inside one function body.

    ``local_types`` maps local variable names to :class:`ClassInfo` for
    variables assigned from a resolvable class constructor; the taint
    walker keeps it updated as it executes statements.
    """

    def __init__(self, graph: CallGraph, env: ModuleEnv,
                 info: FunctionInfo) -> None:
        self.graph = graph
        self.env = env
        self.info = info
        self.local_types: Dict[str, ClassInfo] = {}

    def note_assignment(self, target: str, value: ast.expr) -> None:
        """Record ``target = ClassName(...)`` style local types."""
        if isinstance(value, ast.Call):
            resolved = self.resolve(value)
            if isinstance(resolved, ClassInfo):
                self.local_types[target] = resolved
                return
        if isinstance(value, ast.Name) and value.id in self.local_types:
            self.local_types[target] = self.local_types[value.id]
            return
        self.local_types.pop(target, None)

    def lookup_class(self, name: str) -> Optional[ClassInfo]:
        """A class by local name: module-level or imported."""
        cls = self.env.classes.get(name)
        if cls is not None:
            return cls
        dotted = self.env.from_names.get(name)
        if dotted is not None:
            hit = self.graph.resolve_dotted_value(dotted)
            if hit is not None:
                env, attr = hit
                return env.classes.get(attr)
        return None

    def _lookup_function(self, name: str) -> Optional[FunctionInfo]:
        fn = self.env.functions.get(name)
        if fn is not None:
            return fn
        dotted = self.env.from_names.get(name)
        if dotted is not None:
            hit = self.graph.resolve_dotted_value(dotted)
            if hit is not None:
                env, attr = hit
                return env.functions.get(attr)
        return None

    def resolve_name(self, name: str):
        """Resolve a bare name to FunctionInfo | ClassInfo | dotted str."""
        fn = self._lookup_function(name)
        if fn is not None:
            return fn
        cls = self.lookup_class(name)
        if cls is not None:
            return cls
        dotted = self.env.from_names.get(name)
        if dotted is not None:
            return dotted
        alias = self.env.import_alias.get(name)
        if alias is not None:
            return alias
        return name

    def resolve(self, call: ast.Call):
        """Resolve a call target.

        Returns a :class:`FunctionInfo` or :class:`ClassInfo` for
        internal targets, or the dotted external name as a string.
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name(func.id)
        chain = dotted_chain(call)
        if not chain:
            return ""
        base = chain[0]
        if base in ("self", "cls") and self.info.cls is not None:
            cls = self.env.classes.get(self.info.cls)
            if cls is not None and len(chain) == 2:
                meth = cls.methods.get(chain[1])
                if meth is not None:
                    return meth
            return ".".join(chain)
        cls = self.local_types.get(base)
        if cls is not None and len(chain) == 2:
            meth = cls.methods.get(chain[1])
            if meth is not None:
                return meth
        # Module attribute chains: np.random.default_rng, module.func
        mapped = self.env.import_alias.get(base)
        if mapped is not None:
            dotted = ".".join([mapped] + chain[1:])
            hit = self.graph.resolve_dotted_value(dotted)
            if hit is not None and len(chain) >= 2:
                env, attr = hit
                target = env.functions.get(attr) or env.classes.get(attr)
                if target is not None:
                    return target
            return dotted
        mapped = self.env.from_names.get(base)
        if mapped is not None:
            return ".".join([mapped] + chain[1:])
        return ".".join(chain)


def target_name(target: object) -> str:
    """Flatten a resolver result to a printable callee name."""
    if isinstance(target, (FunctionInfo, ClassInfo)):
        return target.qname
    return str(target)


def short_name(name: str) -> str:
    """Last path segment of a callee name (qname or dotted external)."""
    return name.rsplit(QSEP, 1)[-1].rsplit(".", 1)[-1]


def build_call_graph(project: Project) -> CallGraph:
    """Build the call graph of every parsed module in *project*."""
    graph = CallGraph()
    for mod in project.modules:
        if mod.tree is None:
            continue
        env = _scan_module(mod)
        graph.envs[mod.rel] = env
        graph._by_dotted[mod.dotted_name] = env
        for fn in env.functions.values():
            graph.functions[fn.qname] = fn
        for cls in env.classes.values():
            graph.classes[cls.qname] = cls
            for meth in cls.methods.values():
                graph.functions[meth.qname] = meth
    for env in graph.envs.values():
        for info in list(env.functions.values()):
            _collect_edges(graph, env, info)
        for cls in env.classes.values():
            for meth in cls.methods.values():
                _collect_edges(graph, env, meth)
    graph._adjacency = None
    return graph


def _collect_edges(graph: CallGraph, env: ModuleEnv,
                   info: FunctionInfo) -> None:
    """Record the call edges of one function body."""
    resolver = Resolver(graph, env, info)
    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    resolver.note_assignment(tgt.id, node.value)
        if isinstance(node, ast.withitem) and node.optional_vars is not None:
            if isinstance(node.optional_vars, ast.Name) \
                    and isinstance(node.context_expr, ast.Call):
                resolver.note_assignment(node.optional_vars.id,
                                         node.context_expr)
        if not isinstance(node, ast.Call):
            continue
        target = resolver.resolve(node)
        name = target_name(target)
        if not name:
            continue
        external = not isinstance(target, (FunctionInfo, ClassInfo))
        graph.edges.append(CallEdge(caller=info.qname, callee=name,
                                    line=node.lineno, external=external))


__all__ = ["CallGraph", "CallEdge", "FunctionInfo", "ClassInfo",
           "ModuleEnv", "Resolver", "build_call_graph", "dotted_chain",
           "target_name", "short_name", "ann_text", "QSEP"]
