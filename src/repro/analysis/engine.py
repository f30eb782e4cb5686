"""The repro-lint engine: findings, source model, rule running, baseline.

This module is deliberately free of rule knowledge.  It provides

* :class:`Finding` — one diagnostic with ``file:line``, severity, rule id,
  and a fix hint;
* :class:`SourceModule` — a parsed Python file plus the ``# repro:``
  directives (``hot-path`` / ``cold-path`` scope markers and
  ``allow[rule-id]`` line suppressions) the rules interpret;
* :class:`Project` — the set of modules under analysis rooted at the repo
  top (where ``PAPER.md``, ``docs/`` and ``analysis-baseline.json`` live);
* :class:`Baseline` — pre-existing findings that do not fail the check
  (so the tool can be adopted on a tree with known debt);
* :func:`run_rules` plus the text / JSON reporters.

Rules implement the :class:`Rule` protocol: a ``rule_id``, a one-line
``description``, and ``check(project)`` yielding findings.  Suppression is
applied by the engine, not by each rule: a finding on line ``L`` is
dropped when line ``L`` (or the comment line directly above it) carries
``# repro: allow[<rule-id>]``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

try:  # pragma: no cover - trivial either way
    from typing import Protocol
except ImportError:  # pragma: no cover - Python < 3.8 has no Protocol
    Protocol = object  # type: ignore[assignment]

#: Finding severities, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning")

#: Directive comments understood by the engine/rules, e.g.
#: ``# repro: hot-path`` or ``# repro: allow[rng-discipline] -- reason``.
_DIRECTIVE_RE = re.compile(
    r"#\s*repro:\s*(?P<kind>hot-path|cold-path|allow\[(?P<rules>[a-z0-9*,\s-]+)\])")


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str
    path: str            #: repo-relative posix path
    line: int            #: 1-based line number
    message: str
    severity: str = "error"
    hint: str = ""       #: how to fix or suppress

    @property
    def location(self) -> str:
        """``file:line`` anchor for editors and CI logs."""
        return f"{self.path}:{self.line}"

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across line-number drift."""
        return (self.rule, self.path, self.message)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "severity": self.severity, "message": self.message,
                "hint": self.hint}


class Rule(Protocol):
    """Protocol every repro-lint rule satisfies."""

    rule_id: str
    description: str

    def check(self, project: "Project") -> Iterator[Finding]:
        """Yield findings for *project*."""
        ...  # pragma: no cover


@dataclass
class SourceModule:
    """A parsed source file plus its ``# repro:`` directives."""

    path: Path
    rel: str
    text: str
    tree: Optional[ast.Module]
    syntax_error: Optional[Finding]
    #: line -> rule ids allowed on that line ("*" allows every rule)
    allows: Dict[int, Set[str]] = field(default_factory=dict)
    #: (line, "hot-path" | "cold-path") scope markers, in file order
    markers: List[Tuple[int, str]] = field(default_factory=list)
    #: lazily-built map of decorated def/class lineno -> first decorator
    #: lineno (see :meth:`is_suppressed`)
    _decorated: Optional[Dict[int, int]] = field(default=None, repr=False)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceModule":
        """Read and parse *path*; a syntax error becomes a finding."""
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        text = path.read_text(encoding="utf-8")
        tree: Optional[ast.Module] = None
        err: Optional[Finding] = None
        try:
            tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            err = Finding(rule="parse-error", path=rel,
                          line=exc.lineno or 1,
                          message=f"syntax error: {exc.msg}")
        mod = cls(path=path, rel=rel, text=text, tree=tree, syntax_error=err)
        mod._scan_directives()
        return mod

    def _scan_directives(self) -> None:
        for lineno, line in enumerate(self.text.splitlines(), start=1):
            match = _DIRECTIVE_RE.search(line)
            if match is None:
                continue
            kind = match.group("kind")
            if kind.startswith("allow["):
                rules = {r.strip() for r in match.group("rules").split(",")}
                self.allows.setdefault(lineno, set()).update(r for r in rules if r)
            else:
                self.markers.append((lineno, kind))

    # -- convenience views used by several rules ----------------------- #

    @property
    def is_repro_module(self) -> bool:
        """True when the file belongs to the ``repro`` library package."""
        return "repro" in Path(self.rel).parts

    def docstrings(self) -> Iterator[Tuple[int, str]]:
        """Yield ``(start_line, text)`` for module/class/function docstrings."""
        if self.tree is None:
            return
        nodes: List[ast.AST] = [self.tree]
        nodes.extend(n for n in ast.walk(self.tree)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)))
        for node in nodes:
            body = getattr(node, "body", [])
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                yield body[0].value.lineno, body[0].value.value

    def scope_spans(self) -> List[Tuple[int, int]]:
        """``(start, end)`` line spans of every function/class, innermost last
        when sorted by size — used to resolve hot/cold scope markers."""
        if self.tree is None:
            return []
        spans = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                end = getattr(node, "end_lineno", node.lineno)
                spans.append((node.lineno, int(end)))
        return spans

    def is_suppressed(self, finding: Finding) -> bool:
        """True when an ``allow`` directive covers *finding*.

        A directive counts on the finding's own line, on a comment line
        immediately above it, or — when the finding anchors on a
        decorated ``def``/``class`` line — on any decorator line of that
        definition or a comment line immediately above the first
        decorator (the natural place to write the directive).
        """
        candidates: List[Tuple[int, bool]] = [
            (finding.line, True), (finding.line - 1, False)]
        first_dec = self._decorator_start(finding.line)
        if first_dec is not None:
            candidates.extend(
                (line, True) for line in range(first_dec, finding.line))
            candidates.append((first_dec - 1, False))
        for line, inline_ok in candidates:
            allowed = self.allows.get(line)
            if allowed and (finding.rule in allowed or "*" in allowed):
                # A directive one line above a site only counts on a
                # comment line; on the site itself (or a decorator line
                # of the decorated def) a trailing comment is fine.
                if inline_ok or self._is_comment_line(line):
                    return True
        return False

    def _decorator_start(self, lineno: int) -> Optional[int]:
        """First decorator line of a def/class at *lineno*, if decorated."""
        if self.tree is None:
            return None
        if self._decorated is None:
            decorated: Dict[int, int] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) and node.decorator_list:
                    decorated[node.lineno] = min(
                        d.lineno for d in node.decorator_list)
            self._decorated = decorated
        return self._decorated.get(lineno)

    def _is_comment_line(self, lineno: int) -> bool:
        lines = self.text.splitlines()
        if not 1 <= lineno <= len(lines):
            return False
        return lines[lineno - 1].lstrip().startswith("#")


class Project:
    """The file set under analysis plus cached root-level documents."""

    def __init__(self, root: Path, modules: Sequence[SourceModule]) -> None:
        self.root = root.resolve()
        self.modules: List[SourceModule] = list(modules)
        self._by_rel: Dict[str, SourceModule] = {m.rel: m for m in self.modules}
        self._docs: Dict[str, Optional[str]] = {}

    @classmethod
    def load(cls, root: Path, paths: Sequence[Path]) -> "Project":
        """Collect ``*.py`` files under *paths* (files or directories)."""
        root = root.resolve()
        files: List[Path] = []
        for p in paths:
            p = p if p.is_absolute() else root / p
            if p.is_dir():
                files.extend(sorted(q for q in p.rglob("*.py")
                                    if "__pycache__" not in q.parts
                                    and not any(part.startswith(".")
                                                for part in q.parts)))
            elif p.suffix == ".py" and p.exists():
                files.append(p)
        seen: Set[Path] = set()
        modules = []
        for f in files:
            rf = f.resolve()
            if rf not in seen:
                seen.add(rf)
                modules.append(SourceModule.parse(rf, root))
        return cls(root, modules)

    def repro_modules(self) -> Iterator[SourceModule]:
        """Modules belonging to the ``repro`` library package."""
        return (m for m in self.modules if m.is_repro_module)

    def module_by_suffix(self, suffix: str) -> Optional[SourceModule]:
        """Find a loaded module whose path ends with *suffix*."""
        for m in self.modules:
            if m.rel.endswith(suffix):
                return m
        return None

    def ensure_module(self, rel: str) -> Optional[SourceModule]:
        """A module by repo-relative path, parsing it on demand.

        Project-level rules (registry-sync) use this so that running the
        checker on ``tests/`` alone still sees the registries under
        ``src/``.
        """
        found = self.module_by_suffix(rel)
        if found is not None:
            return found
        path = self.root / rel
        if not path.exists():
            return None
        mod = SourceModule.parse(path, self.root)
        return mod

    def read_root_file(self, name: str) -> Optional[str]:
        """Cached text of a repo-root document (``PAPER.md``, docs/…)."""
        if name not in self._docs:
            path = self.root / name
            self._docs[name] = (path.read_text(encoding="utf-8")
                                if path.exists() else None)
        return self._docs[name]


@dataclass
class Baseline:
    """Known pre-existing findings that do not fail the check."""

    entries: Set[Tuple[str, str, str]] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read ``analysis-baseline.json`` (missing file = empty baseline)."""
        if not path.exists():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        entries = {(str(e["rule"]), str(e["path"]), str(e["message"]))
                   for e in data.get("findings", [])}
        return cls(entries)

    def split(self, findings: Sequence[Finding]
              ) -> Tuple[List[Finding], List[Finding]]:
        """Partition into ``(new, baselined)``."""
        new = [f for f in findings if f.key() not in self.entries]
        old = [f for f in findings if f.key() in self.entries]
        return new, old

    @staticmethod
    def write(path: Path, findings: Sequence[Finding]) -> None:
        """Persist *findings* as the new baseline."""
        payload = {
            "version": 1,
            "comment": "Pre-existing repro-lint findings tolerated by CI; "
                       "regenerate with: python -m repro.analysis check "
                       "--update-baseline",
            "findings": [{"rule": f.rule, "path": f.path,
                          "message": f.message} for f in findings],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n",
                        encoding="utf-8")


def run_rules(project: Project, rules: Sequence[Rule]) -> List[Finding]:
    """Run *rules* over *project*; apply suppressions; sort diagnostics."""
    findings: List[Finding] = [m.syntax_error for m in project.modules
                               if m.syntax_error is not None]
    for rule in rules:
        findings.extend(rule.check(project))
    kept = []
    for f in findings:
        mod = project._by_rel.get(f.path)
        if mod is not None and mod.is_suppressed(f):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


def render_text(findings: Sequence[Finding], *, baselined: int = 0,
                checked: int = 0) -> str:
    """Human-readable report, one ``file:line`` anchored line per finding."""
    out = []
    for f in findings:
        out.append(f"{f.location}: {f.severity}[{f.rule}] {f.message}")
        if f.hint:
            out.append(f"    hint: {f.hint}")
    summary = (f"{len(findings)} finding(s) in {checked} file(s)"
               if findings else f"OK: 0 findings in {checked} file(s)")
    if baselined:
        summary += f" ({baselined} baselined)"
    out.append(summary)
    return "\n".join(out)


def render_json(findings: Sequence[Finding], *, baselined: int = 0,
                checked: int = 0) -> str:
    """Machine-readable report (stable schema, version 1).

    Findings are ordered worst-first — by severity rank (errors before
    warnings), then location — so machine consumers can truncate the
    list without losing the errors.
    """
    rank = {sev: i for i, sev in enumerate(SEVERITIES)}
    ordered = sorted(findings, key=lambda f: (
        rank.get(f.severity, len(SEVERITIES)),
        f.path, f.line, f.rule, f.message))
    payload = {"version": 1, "checked_files": checked,
               "baselined": baselined,
               "findings": [f.to_dict() for f in ordered]}
    return json.dumps(payload, indent=2)


def iter_call_name(node: ast.Call) -> List[str]:
    """Dotted-name chain of a call target, e.g. ``np.random.default_rng``
    -> ``["np", "random", "default_rng"]`` (empty when not a plain chain)."""
    chain: List[str] = []
    cur: ast.expr = node.func
    while isinstance(cur, ast.Attribute):
        chain.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        chain.append(cur.id)
        return list(reversed(chain))
    return []


__all__ = ["Finding", "Rule", "SourceModule", "Project", "Baseline",
           "run_rules", "render_text", "render_json", "iter_call_name",
           "SEVERITIES"]
