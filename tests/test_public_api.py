"""Public-API stability: everything in __all__ exists and is importable.

A downstream user pins against ``from repro import X``; this test freezes
the contract so an accidental rename shows up as a test failure, not a
user bug report.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.geometry",
    "repro.network",
    "repro.energy",
    "repro.radio",
    "repro.tsp",
    "repro.orienteering",
    "repro.core",
    "repro.sim",
    "repro.experiments",
    "repro.utils",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_top_level_planning_surface():
    import repro
    for name in ("plan_tour", "plan_algorithm1", "plan_algorithm2",
                 "plan_algorithm3", "plan_benchmark", "plan_fleet",
                 "CollectionTour", "validate_tour_feasibility",
                 "simulate_mission", "cross_validate",
                 "collection_upper_bound"):
        assert callable(getattr(repro, name)) or isinstance(
            getattr(repro, name), type), name


def test_paper_presets_exported():
    import repro
    assert repro.PAPER_ENERGY_MODEL.capacity == 3e5
    assert repro.PAPER_RADIO_MODEL.bandwidth == 150.0
    from repro.energy import PAPER_LITERAL_ENERGY_MODEL
    assert PAPER_LITERAL_ENERGY_MODEL.distance_based_travel


def test_error_types_exported():
    import repro
    assert issubclass(repro.InfeasibleTourError, repro.ReproError)
    assert issubclass(repro.InvalidParameterError, repro.ReproError)


def test_version_is_semver():
    import repro
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_docstrings_on_public_planners():
    # Deliverable (e): doc comments on every public item — spot-check the
    # planning surface.
    import repro
    for name in ("plan_tour", "plan_algorithm1", "plan_algorithm2",
                 "plan_algorithm3", "plan_benchmark", "simulate_mission",
                 "cross_validate", "validate_tour_feasibility"):
        obj = getattr(repro, name)
        assert obj.__doc__ and len(obj.__doc__) > 40, name


def test_figure_runners_skip_heavy_imports():
    """Importing the figure runners loads neither ``scipy.stats`` (a lazy
    import of ``repro.experiments.stats``) nor networkx (a test-only
    dependency) — every benchmark child and pool worker pays this import.
    A fresh interpreter, because this test process imports both."""
    code = ("import sys\n"
            "import repro.experiments.fig3, repro.experiments.fig4\n"
            "import repro.experiments.fig5, repro.experiments.instances\n"
            "print(sorted({'scipy.stats', 'networkx'} & set(sys.modules)))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
