"""repro-lint: project-specific static analysis for this reproduction.

Generic linters cannot know that ``np.random.default_rng`` outside
``repro.utils.rng`` forks the paper's seeding scheme, that a dense
``(m, n)`` temporary inside the planner kernel undoes PR 1's complexity
guarantee, or that a new ``PLANNERS`` entry without a ``plan_tour``
dispatch branch ships a registry lie.  This package makes those
repo-specific invariants machine-checked on every change:

* :mod:`repro.analysis.engine` — AST-walking lint engine: findings with
  ``file:line``/severity/fix-hint, ``# repro:`` directives
  (``hot-path`` / ``cold-path`` / ``allow[rule-id]``), a JSON baseline,
  text and JSON reporters;
* :mod:`repro.analysis.rules` — the seven rules: ``rng-discipline``,
  ``hot-path-purity``, ``registry-sync``, ``export-drift``,
  ``units-suffix``, ``paper-eq-refs``, ``obs-span-naming``;
* :mod:`repro.analysis.equations` — the citable-equation registry
  anchoring docstring references into ``PAPER.md``;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis check [paths]
  [--format=json] [--update-baseline]``, the command CI gates on.

See ``docs/analysis.md`` for the rule-by-rule rationale.
"""

from repro.analysis.cli import check_paths, main
from repro.analysis.engine import Baseline, Finding, Project, Rule, run_rules
from repro.analysis.rules import default_rules

__all__ = ["Finding", "Rule", "Project", "Baseline", "run_rules",
           "default_rules", "check_paths", "main"]
