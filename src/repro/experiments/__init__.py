"""Experiment harness reproducing the paper's evaluation (§VII).

* :mod:`repro.experiments.config` — experiment settings with ``paper`` and
  ``reduced`` presets (see DESIGN.md substitution S3 for the scaling),
* :mod:`repro.experiments.instances` — seeded network-instance sets (the
  paper averages 15 instances per data point),
* :mod:`repro.experiments.runner` — the generic sweep engine measuring
  collected volume and wall-clock running time per algorithm: one work
  unit planner and one executor, mapped in process or on a pool,
* :mod:`repro.experiments.parallel` — the process-pool transport behind
  ``run_sweep(..., jobs=N)`` (JSON codec, worker state, shard merge),
* :mod:`repro.experiments.artifacts` — the per-process geometry cache
  the work units share,
* :mod:`repro.experiments.fig3` / ``fig4`` / ``fig5`` — one runner per
  paper figure,
* :mod:`repro.experiments.tables` — CSV / markdown rendering,
* :mod:`repro.experiments.cli` — ``repro-experiments`` command-line entry.
"""

from repro.experiments.config import ExperimentConfig, paper_settings, reduced_settings
from repro.experiments.instances import make_instances
from repro.experiments.runner import AlgoSpec, SweepResult, run_sweep
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.tables import rows_to_csv, rows_to_markdown
from repro.experiments.ascii_plot import render_sweep, render_series
from repro.experiments.svg_plot import render_sweep_svg, render_series_svg
from repro.experiments.tour_map import render_tour_svg
from repro.experiments.claims import (
    check_all_claims,
    check_fig3_claims,
    check_fig4_claims,
    check_fig5_claims,
    claims_to_markdown,
)
from repro.experiments.report import load_sweep_csv, load_results_dir, generate_report
from repro.experiments.stats import (
    mean_confidence_interval,
    row_confidence_interval,
    paired_comparison,
    PairedComparison,
)

__all__ = [
    "render_sweep",
    "render_series",
    "render_sweep_svg",
    "render_series_svg",
    "render_tour_svg",
    "check_all_claims",
    "check_fig3_claims",
    "check_fig4_claims",
    "check_fig5_claims",
    "claims_to_markdown",
    "load_sweep_csv",
    "load_results_dir",
    "generate_report",
    "mean_confidence_interval",
    "row_confidence_interval",
    "paired_comparison",
    "PairedComparison",
    "ExperimentConfig",
    "paper_settings",
    "reduced_settings",
    "make_instances",
    "AlgoSpec",
    "SweepResult",
    "run_sweep",
    "ArtifactCache",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "rows_to_csv",
    "rows_to_markdown",
]
