"""Fixture tests: every repro-lint rule fires on a known-bad snippet and
stays quiet on a known-good one.

Fixtures are written into a throwaway project tree (``tmp_path``) shaped
like the real repo (``src/repro/...`` + root documents) so path-scoped
rules (energy-only, repro-only) see realistic layouts.
"""

from __future__ import annotations

import textwrap


from repro.analysis.engine import Project, run_rules
from repro.analysis.rules import (
    ExportDriftRule,
    HotPathPurityRule,
    ObsSpanNamingRule,
    PaperEquationRule,
    RegistrySyncRule,
    RngDisciplineRule,
    UnitsSuffixRule,
)


def make_project(tmp_path, files, docs=None):
    """Materialise *files* (rel path -> source) and load a Project."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for rel, text in (docs or {}).items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return Project.load(tmp_path, [tmp_path / "src"])


def rule_findings(project, rule):
    return [f for f in run_rules(project, [rule]) if f.rule == rule.rule_id]


class TestRngDiscipline:
    BAD = """
        import numpy as np

        def sample(seed):
            rng = np.random.default_rng(seed)
            return rng.uniform()
    """
    GOOD = """
        from repro.utils.rng import as_rng

        def sample(seed):
            rng = as_rng(seed)
            return rng.uniform()
    """

    def test_fires_on_default_rng(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/net/gen.py": self.BAD})
        found = rule_findings(project, RngDisciplineRule())
        assert len(found) == 1
        assert "np.random.default_rng" in found[0].message
        assert found[0].line == 5
        assert "as_rng" in found[0].hint

    def test_quiet_on_as_rng(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/net/gen.py": self.GOOD})
        assert rule_findings(project, RngDisciplineRule()) == []

    def test_quiet_inside_rng_module_itself(self, tmp_path):
        project = make_project(
            tmp_path, {"src/repro/utils/rng.py": self.BAD})
        assert rule_findings(project, RngDisciplineRule()) == []

    def test_quiet_outside_repro_package(self, tmp_path):
        # Tests pin np.random.default_rng(seed) deliberately.
        (tmp_path / "src").mkdir()
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_x.py").write_text(
            textwrap.dedent(self.BAD))
        project = Project.load(tmp_path, [tmp_path / "tests"])
        assert rule_findings(project, RngDisciplineRule()) == []

    def test_generator_param_draws_are_sanctioned(self, tmp_path):
        # Threaded-RNG discipline: drawing from a parameter annotated
        # numpy.random.Generator is the approved pattern, even when the
        # parameter is literally named `random`.
        project = make_project(tmp_path, {"src/repro/net/gen.py": """
            import numpy as np

            def sample(random: np.random.Generator, n: int) -> float:
                return float(random.uniform(0.0, 1.0, n).sum())

            def jitter(rng: "np.random.Generator") -> float:
                return float(rng.normal())
        """})
        assert rule_findings(project, RngDisciplineRule()) == []

    def test_generator_type_import_is_not_direct_use(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/net/gen.py": """
            from numpy.random import Generator

            def rewrap(gen: Generator) -> float:
                return float(gen.normal())
        """})
        assert rule_findings(project, RngDisciplineRule()) == []

    def test_unannotated_random_param_still_fires(self, tmp_path):
        # Without the Generator annotation the `random.*` chain still
        # looks like module-level state and keeps firing.
        project = make_project(tmp_path, {"src/repro/net/gen.py": """
            def sample(random, n):
                return random.uniform(0.0, 1.0, n)
        """})
        found = rule_findings(project, RngDisciplineRule())
        assert len(found) == 1
        assert "random.uniform" in found[0].message

    def test_generator_param_does_not_leak_across_functions(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/net/gen.py": """
            import numpy as np

            def ok(random: np.random.Generator):
                return random.normal()

            def bad(n):
                return np.random.uniform(0.0, 1.0, n)
        """})
        found = rule_findings(project, RngDisciplineRule())
        assert [f.line for f in found] == [8]

    def test_fires_on_stdlib_random_and_from_import(self, tmp_path):
        bad = """
            import random
            from numpy.random import default_rng

            def jitter():
                return random.uniform(0, 1) + default_rng().uniform()
        """
        project = make_project(tmp_path, {"src/repro/sim/j.py": bad})
        found = rule_findings(project, RngDisciplineRule())
        assert {f.message.split("'")[1] for f in found} == {
            "random.uniform", "default_rng"}

    def test_allow_directive_suppresses(self, tmp_path):
        allowed = """
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)  # repro: allow[rng-discipline]
                return rng.uniform()
        """
        project = make_project(tmp_path, {"src/repro/net/gen.py": allowed})
        assert rule_findings(project, RngDisciplineRule()) == []


class TestHotPathPurity:
    BAD = """
        # repro: hot-path
        import numpy as np

        def rescore(cov, rem):
            scores = np.zeros((len(cov), len(rem)))
            return scores
    """
    GOOD = """
        # repro: hot-path
        import numpy as np

        def rescore(vals, starts):
            out = np.zeros(len(starts))
            out[:] = np.add.reduceat(vals, starts)
            return out
    """

    def test_fires_on_dense_alloc_in_hot_module(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/core/k.py": self.BAD})
        found = rule_findings(project, HotPathPurityRule())
        assert len(found) == 1
        assert "np.zeros" in found[0].message

    def test_quiet_on_1d_alloc(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/core/k.py": self.GOOD})
        assert rule_findings(project, HotPathPurityRule()) == []

    def test_quiet_without_marker(self, tmp_path):
        unmarked = self.BAD.replace("# repro: hot-path", "")
        project = make_project(tmp_path, {"src/repro/core/k.py": unmarked})
        assert rule_findings(project, HotPathPurityRule()) == []

    def test_cold_path_function_opts_out(self, tmp_path):
        mixed = """
            # repro: hot-path
            import numpy as np

            def dense_reference(cov, rem):
                # repro: cold-path
                return np.where(cov, rem[None, :], 0.0) @ np.ones(len(rem))

            def hot(cov, rem):
                return rem[:, None] * cov[None, :]
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": mixed})
        found = rule_findings(project, HotPathPurityRule())
        assert len(found) == 1
        assert found[0].message.startswith("broadcasted dense temporary")
        assert "def hot" in project.modules[0].text.splitlines()[
            found[0].line - 2] or found[0].line == 9

    def test_hot_function_in_cold_module(self, tmp_path):
        mixed = """
            import numpy as np

            def cold(a, b):
                return np.outer(a, b)

            def hot(a, b):
                # repro: hot-path
                return np.outer(a, b)
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": mixed})
        found = rule_findings(project, HotPathPurityRule())
        assert len(found) == 1
        assert found[0].line == 9

    def test_flags_pairwise_distances_and_outer(self, tmp_path):
        bad = """
            # repro: hot-path
            import numpy as np
            from repro.geometry.distance import pairwise_distances

            def build(points, a, b):
                return pairwise_distances(points), np.outer(a, b)
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": bad})
        kinds = {f.message.split(" in hot-path")[0]
                 for f in rule_findings(project, HotPathPurityRule())}
        assert len(kinds) == 2

    def test_allow_with_reason_suppresses(self, tmp_path):
        allowed = """
            # repro: hot-path
            import numpy as np

            def small_cache(m, k):
                # repro: allow[hot-path-purity] -- (m, K) cache, K small
                return np.zeros((m, k))
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": allowed})
        assert rule_findings(project, HotPathPurityRule()) == []

    def test_fires_on_batched_3d_broadcast(self, tmp_path):
        # The batch kernel's leading variant axis: a (B, m) state column
        # against a (B, n) one makes a dense (B, m, n) temporary.
        bad = """
            # repro: hot-path
            import numpy as np

            def rescore(p_res, rem):
                return p_res[:, :, None] * rem[:, None, :]
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": bad})
        found = rule_findings(project, HotPathPurityRule())
        assert len(found) == 1
        assert found[0].message.startswith("broadcasted dense temporary")

    def test_fires_on_gram_matmul(self, tmp_path):
        # The site-reduction pre-pass motivated this check: a dense
        # cov @ cov.T intersection-count gram matrix is (m, m).
        bad = """
            # repro: hot-path
            import numpy as np

            def overlaps(cov):
                return (cov @ cov.T) > 0

            def cross(a, b):
                return a.T @ b
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": bad})
        found = rule_findings(project, HotPathPurityRule())
        assert len(found) == 2
        assert all("gram-matrix matmul" in f.message for f in found)

    def test_quiet_on_plain_matmul(self, tmp_path):
        # Matmuls without a transposed operand are how the kernel *avoids*
        # gram matrices (matvec products, pre-chunked sparse operands).
        good = """
            # repro: hot-path
            import numpy as np

            def award(cov, volumes, chunk, at):
                return cov @ volumes, chunk @ at
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": good})
        assert rule_findings(project, HotPathPurityRule()) == []

    def test_quiet_on_3d_axis_alignment(self, tmp_path):
        # A lone trailing-axis insert (scaling a (B, m, K) table by a
        # (B, m) one) broadcasts against existing axes — no new dense
        # plane, so no finding.
        good = """
            # repro: hot-path
            import numpy as np

            def scale(tau, deltas, eta):
                return tau * eta + deltas[:, :, None] * eta
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": good})
        assert rule_findings(project, HotPathPurityRule()) == []


PLANNER_OK = """
    PLANNERS = {"algorithm2": "greedy", "benchmark": "baseline"}

    def plan_tour(network, *, method="algorithm2", **kwargs):
        if method == "algorithm2":
            return 2
        if method == "benchmark":
            return 0
        raise ValueError(method)
"""

ARCH_OK = "planners: algorithm2 and benchmark."


class TestRegistrySync:
    def files(self, planner=PLANNER_OK):
        return {"src/repro/core/planner.py": planner}

    def test_quiet_when_in_sync(self, tmp_path):
        project = make_project(tmp_path, self.files(),
                               docs={"docs/architecture.md": ARCH_OK})
        assert rule_findings(project, RegistrySyncRule()) == []

    def test_fires_on_registry_key_without_dispatch(self, tmp_path):
        planner = PLANNER_OK.replace(
            '"benchmark": "baseline"',
            '"benchmark": "baseline", "algorithm9": "ghost"')
        project = make_project(tmp_path, self.files(planner=planner),
                               docs={"docs/architecture.md":
                                     ARCH_OK + " algorithm9"})
        found = rule_findings(project, RegistrySyncRule())
        assert len(found) == 1
        assert "'algorithm9'" in found[0].message
        assert "dispatch" in found[0].message

    def test_fires_on_dispatch_without_registry_key(self, tmp_path):
        planner = PLANNER_OK + """
        def plan_tour_unused():
            pass
        """
        planner = planner.replace(
            "        raise ValueError(method)",
            '        if method == "secret":\n'
            "            return 9\n"
            "        raise ValueError(method)")
        project = make_project(tmp_path, self.files(planner=planner),
                               docs={"docs/architecture.md": ARCH_OK})
        found = rule_findings(project, RegistrySyncRule())
        assert any("'secret'" in f.message and "missing" in f.message
                   for f in found)

    def test_fires_on_undocumented_planner(self, tmp_path):
        project = make_project(
            tmp_path, self.files(),
            docs={"docs/architecture.md": "only algorithm2 here"})
        found = rule_findings(project, RegistrySyncRule())
        assert len(found) == 1
        assert "'benchmark'" in found[0].message
        assert "architecture" in found[0].message

    def test_sees_registries_outside_checked_paths(self, tmp_path):
        # `check tests` alone must still load src registries from the root.
        for rel, src in self.files().items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(src))
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "architecture.md").write_text(ARCH_OK)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_a.py").write_text("x = 1\n")
        project = Project.load(tmp_path, [tmp_path / "tests"])
        assert rule_findings(project, RegistrySyncRule()) == []


class TestExportDrift:
    def test_fires_on_stale_entry(self, tmp_path):
        bad = """
            def plan():
                return 1

            __all__ = ["plan", "plan_removed"]
        """
        project = make_project(tmp_path, {"src/repro/core/x.py": bad})
        found = rule_findings(project, ExportDriftRule())
        assert len(found) == 1
        assert "'plan_removed'" in found[0].message

    def test_fires_on_unexported_public_name(self, tmp_path):
        bad = """
            POLICIES = ("a", "b")

            def plan():
                return 1

            __all__ = ["plan"]
        """
        project = make_project(tmp_path, {"src/repro/core/x.py": bad})
        found = rule_findings(project, ExportDriftRule())
        assert len(found) == 1
        assert "'POLICIES'" in found[0].message

    def test_fires_on_missing_all(self, tmp_path):
        project = make_project(
            tmp_path, {"src/repro/core/x.py": "def plan():\n    return 1\n"})
        found = rule_findings(project, ExportDriftRule())
        assert len(found) == 1
        assert "no __all__" in found[0].message

    def test_quiet_on_consistent_module(self, tmp_path):
        good = """
            from repro.utils.errors import ReproError

            LIMIT = 3

            def _helper():
                return 0

            def plan():
                return LIMIT

            __all__ = ["plan", "LIMIT", "ReproError"]
        """
        project = make_project(tmp_path, {"src/repro/core/x.py": good})
        assert rule_findings(project, ExportDriftRule()) == []

    def test_private_modules_and_main_exempt(self, tmp_path):
        project = make_project(tmp_path, {
            "src/repro/core/_vec.py": "def fast():\n    return 1\n",
            "src/repro/core/__main__.py": "def main():\n    return 0\n",
        })
        assert rule_findings(project, ExportDriftRule()) == []


class TestUnitsSuffix:
    def test_fires_on_suffixless_quantity(self, tmp_path):
        bad = """
            def plan_leg(flight_time, hover_power):
                climb_energy = flight_time * 2.0
                return climb_energy
        """
        project = make_project(tmp_path, {"src/repro/energy/leg.py": bad})
        names = {f.message.split("'")[1]
                 for f in rule_findings(project, UnitsSuffixRule())}
        assert names == {"flight_time", "climb_energy"}

    def test_fires_on_banned_unit(self, tmp_path):
        bad = "cruise_speed_kmh = 45.0\n"
        project = make_project(tmp_path, {"src/repro/energy/leg.py": bad})
        found = rule_findings(project, UnitsSuffixRule())
        assert len(found) == 1
        assert "non-canonical unit" in found[0].message

    def test_quiet_on_canonical_suffixes(self, tmp_path):
        good = """
            def plan_leg(flight_time_s, climb_energy_j, speed_mps):
                travel_cost_per_meter = climb_energy_j / 100.0
                return flight_time_s * speed_mps + travel_cost_per_meter
        """
        project = make_project(tmp_path, {"src/repro/energy/leg.py": good})
        assert rule_findings(project, UnitsSuffixRule()) == []

    def test_established_api_grandfathered(self, tmp_path):
        good = """
            class EnergyModel:
                def travel_time(self, distance):
                    return distance / self.speed
        """
        project = make_project(tmp_path, {"src/repro/energy/m.py": good})
        assert rule_findings(project, UnitsSuffixRule()) == []

    def test_scope_is_energy_package_only(self, tmp_path):
        bad = "flight_time = 3.0\n"
        project = make_project(tmp_path, {"src/repro/core/leg.py": bad})
        assert rule_findings(project, UnitsSuffixRule()) == []


PAPER_FIXTURE = """
    # Paper digest
    Hover time and awards (Eqs. 1–5); aux graph (Eqs. 6–9);
    greedy selection (Eqs. 11–13).
"""


class TestPaperEquationRefs:
    def test_quiet_on_registered_citation(self, tmp_path):
        good = '''
            """Greedy ratio (Eq. 13) over residual awards (Eqs. 11-12)."""
        '''
        project = make_project(tmp_path, {"src/repro/core/a.py": good},
                               docs={"PAPER.md": PAPER_FIXTURE})
        assert rule_findings(project, PaperEquationRule()) == []

    def test_fires_on_unregistered_equation(self, tmp_path):
        bad = '''
            """Implements Eq. (42), the answer to everything."""
        '''
        project = make_project(tmp_path, {"src/repro/core/a.py": bad},
                               docs={"PAPER.md": PAPER_FIXTURE})
        found = rule_findings(project, PaperEquationRule())
        assert len(found) == 1
        assert "Eq. (42)" in found[0].message

    def test_fires_on_never_cited_eq_10(self, tmp_path):
        bad = '''
            """The orienteering objective (Eq. 10)."""
        '''
        project = make_project(tmp_path, {"src/repro/core/a.py": bad},
                               docs={"PAPER.md": PAPER_FIXTURE})
        found = rule_findings(project, PaperEquationRule())
        assert len(found) == 1

    def test_fires_when_anchor_missing_from_paper(self, tmp_path):
        good = '''
            """Residual award (Eq. 11)."""
        '''
        project = make_project(
            tmp_path, {"src/repro/core/a.py": good},
            docs={"PAPER.md": "# digest without the equations tables"})
        found = rule_findings(project, PaperEquationRule())
        assert len(found) == 1
        assert "anchor" in found[0].message

    def test_range_citations_expand(self, tmp_path):
        good = '''
            """Aux graph weights (Eqs. 6–9)."""
        '''
        project = make_project(tmp_path, {"src/repro/core/a.py": good},
                               docs={"PAPER.md": PAPER_FIXTURE})
        assert rule_findings(project, PaperEquationRule()) == []

    def test_line_numbers_point_into_docstring(self, tmp_path):
        bad = '''
            """Module header.

            Later paragraph cites Eq. (99).
            """
        '''
        project = make_project(tmp_path, {"src/repro/core/a.py": bad},
                               docs={"PAPER.md": PAPER_FIXTURE})
        found = rule_findings(project, PaperEquationRule())
        assert found[0].line == 4


class TestObsSpanNaming:
    BAD = """
        from repro.obs.tracer import span

        def rescore():
            with span("Rescore!"):
                return 1
    """
    GOOD = """
        from repro.obs.tracer import span

        def rescore():
            with span("kernel.rescore"):
                return 1
    """

    def test_fires_on_undotted_name(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/core/k.py": self.BAD})
        found = rule_findings(project, ObsSpanNamingRule())
        assert len(found) == 1
        assert "'Rescore!'" in found[0].message
        assert found[0].line == 5

    def test_quiet_on_dotted_lowercase(self, tmp_path):
        project = make_project(tmp_path, {"src/repro/core/k.py": self.GOOD})
        assert rule_findings(project, ObsSpanNamingRule()) == []

    def test_fires_on_single_segment_and_camel_case(self, tmp_path):
        bad = """
            from repro.obs.tracer import span

            def f(tracer):
                with span("rescore"):
                    pass
                with tracer.span("kernel.Rescore"):
                    pass
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": bad})
        names = {f.message.split("'")[1]
                 for f in rule_findings(project, ObsSpanNamingRule())}
        assert names == {"rescore", "kernel.Rescore"}

    def test_dynamic_names_skipped(self, tmp_path):
        dynamic = """
            from repro.obs.tracer import span

            def f(name):
                with span(name):
                    pass
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": dynamic})
        assert rule_findings(project, ObsSpanNamingRule()) == []

    def test_unrelated_span_attributes_ignored(self, tmp_path):
        unrelated = """
            import re

            def f(match):
                return match.span("BAD NAME")
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": unrelated})
        assert rule_findings(project, ObsSpanNamingRule()) == []

    def test_scope_is_repro_package_only(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_x.py").write_text(textwrap.dedent(
            self.BAD))
        project = Project.load(tmp_path, [tmp_path / "tests"])
        assert rule_findings(project, ObsSpanNamingRule()) == []

    def test_allow_directive_suppresses(self, tmp_path):
        allowed = """
            from repro.obs.tracer import span

            def f():
                # repro: allow[obs-span-naming] -- legacy external name
                with span("LegacyProfiler"):
                    pass
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": allowed})
        assert rule_findings(project, ObsSpanNamingRule()) == []

    # -- Ledger events and ambient metric names (PR 8 extension) ------- #

    def test_fires_on_undotted_ledger_event(self, tmp_path):
        bad = """
            from repro.obs.ledger import record_event

            def f():
                record_event("PlannerCall", label="x")
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": bad})
        found = rule_findings(project, ObsSpanNamingRule())
        assert len(found) == 1
        assert "ledger event" in found[0].message
        assert "'PlannerCall'" in found[0].message

    def test_quiet_on_dotted_ledger_event(self, tmp_path):
        good = """
            from repro.obs.ledger import record_event

            def f():
                record_event("planner.call", label="x")
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": good})
        assert rule_findings(project, ObsSpanNamingRule()) == []

    def test_fires_on_runrecord_event_kwarg(self, tmp_path):
        bad = """
            from repro.obs.record import RunRecord

            def f():
                return RunRecord(event="sweepCell", label="x")
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": bad})
        found = rule_findings(project, ObsSpanNamingRule())
        assert len(found) == 1
        assert "'sweepCell'" in found[0].message

    def test_fires_on_ambient_metric_name(self, tmp_path):
        bad = """
            from repro.obs.metrics import get_metrics

            def f():
                reg = get_metrics()
                get_metrics().counter("Insertions").inc()
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": bad})
        found = rule_findings(project, ObsSpanNamingRule())
        assert len(found) == 1
        assert "ambient counter metric" in found[0].message

    def test_kernel_local_registry_names_exempt(self, tmp_path):
        # Short names on a *local* registry are namespaced later by the
        # perf fold; only the ambient get_metrics() receiver is checked.
        local = """
            from repro.obs.metrics import MetricsRegistry

            class Kernel:
                def __init__(self):
                    self.metrics = MetricsRegistry()

                def work(self):
                    self.metrics.counter("drains").inc()
                    self.metrics.timer("rescore")
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": local})
        assert rule_findings(project, ObsSpanNamingRule()) == []

    def test_dynamic_ledger_event_names_skipped(self, tmp_path):
        dynamic = """
            from repro.obs.ledger import record_event

            def f(name):
                record_event(name, label="x")
        """
        project = make_project(tmp_path, {"src/repro/core/k.py": dynamic})
        assert rule_findings(project, ObsSpanNamingRule()) == []


class TestEveryRuleHasFixtureCoverage:
    def test_all_default_rules_tested(self):
        from repro.analysis.rules import default_rules
        tested = {"rng-discipline", "hot-path-purity", "registry-sync",
                  "export-drift", "units-suffix", "paper-eq-refs",
                  "obs-span-naming"}
        assert {r.rule_id for r in default_rules()} == tested
