"""Fig. 3 — DCM *without* hovering-coverage overlapping.

Sweeps the UAV battery capacity and plots, for Algorithm 1 vs the
benchmark baseline:

* (a) mean collected data volume (GB),
* (b) mean planning wall-clock time (s).

Paper claims reproduced (shape):

* Algorithm 1 collects ~2x the benchmark at the smallest capacity and the
  gap widens with more energy;
* Algorithm 1's running time grows with capacity while the benchmark's
  *shrinks* (fewer prune iterations).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import make_instances
from repro.experiments.runner import AlgoSpec, SweepResult, run_sweep
from repro.network.sensor_network import SensorNetwork


def fig3_algorithms(config: ExperimentConfig, *,
                    solver: str = "grasp",
                    n_restarts: int = 3,
                    seed: int = 0) -> list:
    """The two algorithms plotted in Fig. 3."""
    return [
        AlgoSpec("Algorithm 1", "algorithm1",
                 {"delta": config.delta, "solver": solver,
                  "n_restarts": n_restarts, "seed": seed}),
        AlgoSpec("Benchmark", "benchmark", {}),
    ]


def run_fig3(config: ExperimentConfig,
             instances: Optional[Sequence[SensorNetwork]] = None,
             *, n_restarts: int = 3, validate: bool = True,
             progress=None, jobs: int = 1,
             cache: bool = True) -> SweepResult:
    """Run the Fig. 3 capacity sweep and return the aggregated rows.

    ``jobs``/``cache`` select the execution engine and the per-instance
    artifact cache (see :func:`repro.experiments.runner.run_sweep`); the
    aggregated volumes are bitwise-identical across all settings.
    """
    if instances is None:
        instances = make_instances(config)
    algorithms = fig3_algorithms(config, n_restarts=n_restarts)
    return run_sweep(
        config, instances, algorithms,
        param_name="capacity",
        param_values=config.capacity_sweep,
        make_energy=lambda cfg, value: cfg.energy_model(capacity=value),
        make_kwargs=lambda cfg, value, spec: dict(spec.kwargs),
        validate=validate,
        progress=progress,
        jobs=jobs,
        cache=cache)


__all__ = ["run_fig3", "fig3_algorithms"]
