"""``hot-path-purity`` — no dense ``(m, n)`` temporaries in marked code.

PR 1's planner kernel exists because the greedy loops must never
materialise an ``(m, n)`` candidates-by-sensors (or candidates-by-tour)
array per iteration; `docs/architecture.md` pins that contract.  This
rule makes the contract machine-checked: inside code marked
``# repro: hot-path`` it flags

* ``np.zeros`` / ``np.ones`` / ``np.empty`` / ``np.full`` with a
  multi-dimensional shape,
* ``np.outer`` (always a dense 2-D product),
* calls to ``pairwise_distances`` (an ``(n, n)`` matrix by definition),
* broadcasted 2-D temporaries of the form ``a[:, None] <op> b[None, :]``,
* their batched 3-D cousins, e.g. ``a[:, :, None] <op> b[:, None, :]`` —
  a ``(B, m, n)`` temporary stacked along a leading axis, which the
  two-axis pattern alone would miss,
* gram-matrix matmuls ``x @ y.T`` / ``x.T @ y`` — dense ``(m, m)``
  intersection-count products, which hot code must build chunked and
  sparse instead,
* per-iteration reallocating calls — ``np.insert`` / ``np.delete`` /
  ``np.append`` / ``np.concatenate`` — lexically inside a ``for`` /
  ``while`` loop: each call copies its whole operand, so an
  insertion-construction loop built on them is quadratic.  The GRASP
  constructors (``repro.orienteering``) keep these out of their
  per-restart loops; the one deliberate exception (one O(k) copy per
  accepted insertion) carries an allow comment.

Scope markers nest: a ``# repro: hot-path`` comment at module top level
marks the whole file; a function containing ``# repro: cold-path``
opts back out; a single function in an
otherwise cold module can be marked hot on its own.  Intentional dense
allocations (small, once-per-run) carry
``# repro: allow[hot-path-purity] -- reason``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.engine import Finding, Project, SourceModule, iter_call_name

_ALLOC_FUNCS = frozenset({"zeros", "ones", "empty", "full"})

#: numpy calls that reallocate (copy) their whole operand — quadratic
#: when issued once per loop iteration in hot code.
_LOOP_ALLOC_FUNCS = frozenset({"insert", "delete", "append", "concatenate"})


def _marker_scopes(mod: SourceModule
                   ) -> Tuple[bool, List[Tuple[int, int, bool]]]:
    """Resolve markers to ``(module_hot, [(start, end, hot), ...])``.

    Each marker attaches to the innermost function/class span containing
    it (module scope when none does).  Spans are returned unsorted; the
    *innermost* span containing a line decides its state.
    """
    spans = mod.scope_spans()
    module_hot = False
    marked: List[Tuple[int, int, bool]] = []
    for line, kind in mod.markers:
        hot = kind == "hot-path"
        enclosing = [s for s in spans if s[0] <= line <= s[1]]
        if not enclosing:
            module_hot = module_hot or hot
            continue
        start, end = min(enclosing, key=lambda s: s[1] - s[0])
        marked.append((start, end, hot))
    return module_hot, marked


def _is_hot(line: int, module_hot: bool,
            marked: List[Tuple[int, int, bool]]) -> bool:
    enclosing = [s for s in marked if s[0] <= line <= s[1]]
    if not enclosing:
        return module_hot
    innermost = min(enclosing, key=lambda s: s[1] - s[0])
    return innermost[2]


def _broadcast_axes(node: ast.expr) -> Optional[str]:
    """Classify axis-inserting subscripts on 2-D and 3-D operands.

    A trailing new axis (``x[:, None]``, ``x[:, :, None]``) is ``"col"``;
    a new axis inserted *before* a kept one (``x[None, :]``,
    ``x[:, None, :]``) is ``"row"``.  A col/row pair inside one binary
    op is the outer-product broadcast — the ``(m, n)`` or batched
    ``(B, m, n)`` temporary this rule exists to ban.
    """
    if not isinstance(node, ast.Subscript):
        return None
    sl = node.slice
    if not (isinstance(sl, ast.Tuple) and len(sl.elts) in (2, 3)):
        return None
    kinds = []
    for elt in sl.elts:
        if isinstance(elt, ast.Constant) and elt.value is None:
            kinds.append("none")
        elif isinstance(elt, ast.Slice):
            kinds.append("slice")
        else:
            return None
    if "none" not in kinds or "slice" not in kinds:
        return None
    last_slice = max(i for i, k in enumerate(kinds) if k == "slice")
    if any(k == "none" and i < last_slice for i, k in enumerate(kinds)):
        return "row"
    return "col"


class HotPathPurityRule:
    """Flag dense 2-D allocations inside ``# repro: hot-path`` scopes."""

    rule_id = "hot-path-purity"
    description = ("no dense (m, n) temporaries inside '# repro: hot-path' "
                   "code — use the kernel's sparse/incremental state")

    def check(self, project: Project) -> Iterator[Finding]:
        for mod in project.modules:
            if mod.tree is None or not mod.markers:
                continue
            module_hot, marked = _marker_scopes(mod)
            if not module_hot and not any(hot for _, _, hot in marked):
                continue
            loop_spans = [
                (n.lineno, n.end_lineno) for n in ast.walk(mod.tree)
                if isinstance(n, (ast.For, ast.While))
                and n.end_lineno is not None]
            for node in ast.walk(mod.tree):
                found = self._classify(node)
                if found is None:
                    found = self._classify_loop_alloc(node, loop_spans)
                if found is None:
                    continue
                if not _is_hot(node.lineno, module_hot, marked):
                    continue
                yield Finding(
                    rule=self.rule_id, path=mod.rel, line=node.lineno,
                    message=f"{found} in hot-path code",
                    hint="serve this from PlannerKernel's incremental "
                         "state, move it behind a '# repro: cold-path' "
                         "function, or justify it with "
                         "'# repro: allow[hot-path-purity] -- reason'")

    @staticmethod
    def _classify(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            chain = iter_call_name(node)
            tail = chain[-1] if chain else ""
            if tail in _ALLOC_FUNCS and len(chain) >= 2:
                shape = node.args[0] if node.args else None
                for kw in node.keywords:
                    if kw.arg == "shape":
                        shape = kw.value
                if isinstance(shape, (ast.Tuple, ast.List)) \
                        and len(shape.elts) >= 2:
                    dims = len(shape.elts)
                    return (f"dense {dims}-D allocation "
                            f"{'.'.join(chain)}(...)")
            if tail == "outer" and len(chain) >= 2:
                return f"dense outer product {'.'.join(chain)}(...)"
            if tail == "pairwise_distances":
                return "full pairwise-distance matrix pairwise_distances(...)"
        if isinstance(node, ast.BinOp):
            axes = {_broadcast_axes(node.left), _broadcast_axes(node.right)}
            if axes == {"col", "row"}:
                return ("broadcasted dense temporary "
                        "(a[..., None] op b[..., None, :])")
            if isinstance(node.op, ast.MatMult) \
                    and (_is_transpose(node.left)
                         or _is_transpose(node.right)):
                return "dense gram-matrix matmul (x @ y.T)"
        return None

    @staticmethod
    def _classify_loop_alloc(node: ast.AST,
                             loop_spans: List[Tuple[int, int]]
                             ) -> Optional[str]:
        """Flag whole-array reallocations issued once per loop iteration.

        Only unambiguous numpy calls (``np.…`` / ``numpy.…``) count —
        a method call like ``samples.append(x)`` is an O(1) list append,
        not a copy.
        """
        if not isinstance(node, ast.Call):
            return None
        chain = iter_call_name(node)
        if len(chain) != 2 or chain[0] not in ("np", "numpy"):
            return None
        if chain[-1] not in _LOOP_ALLOC_FUNCS:
            return None
        if not any(start <= node.lineno <= end
                   for start, end in loop_spans):
            return None
        return (f"per-iteration reallocation {'.'.join(chain)}(...) "
                f"inside a loop")


def _is_transpose(node: ast.expr) -> bool:
    """True for a ``<expr>.T`` operand (ndarray transpose attribute)."""
    return isinstance(node, ast.Attribute) and node.attr == "T"


__all__ = ["HotPathPurityRule"]
