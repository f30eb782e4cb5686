"""Fig. 4 — DCM *with* hovering-coverage overlapping, δ sweep.

Sweeps the grid edge length δ at fixed battery capacity and plots, for
Algorithm 2, Algorithm 3 (each K in ``config.k_values``), and the
benchmark baseline:

* (a) mean collected data volume (GB),
* (b) mean planning wall-clock time (s).

Paper claims reproduced (shape):

* Algorithm 3(K) >= Algorithm 2 >= benchmark at every δ;
* collected volume decreases as δ grows (coarser hovering grid);
* larger K collects more data and costs more planning time;
* the benchmark is flat in δ (it ignores the grid).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import make_instances
from repro.experiments.runner import AlgoSpec, SweepResult, run_sweep
from repro.network.sensor_network import SensorNetwork


def fig4_algorithms(config: ExperimentConfig) -> list:
    """Algorithm 2, Algorithm 3 per K, and the benchmark."""
    algos = [AlgoSpec("Algorithm 2", "algorithm2", {})]
    for k in config.k_values:
        algos.append(AlgoSpec(f"Algorithm 3 (K={k})", "algorithm3", {"K": k}))
    algos.append(AlgoSpec("Benchmark", "benchmark", {}))
    return algos


def run_fig4(config: ExperimentConfig,
             instances: Optional[Sequence[SensorNetwork]] = None,
             *, validate: bool = True, progress=None,
             jobs: int = 1, cache: bool = True) -> SweepResult:
    """Run the Fig. 4 δ sweep and return the aggregated rows.

    ``jobs``/``cache`` select the execution engine and the per-instance
    artifact cache (see :func:`repro.experiments.runner.run_sweep`).
    Each δ builds its own grid, so the cache pays off here across the
    Algorithm 2/3 cells that share a δ, not along the swept axis.
    """
    if instances is None:
        instances = make_instances(config)

    def make_kwargs(cfg: ExperimentConfig, value: float, spec: AlgoSpec):
        kwargs = dict(spec.kwargs)
        if spec.method != "benchmark":
            kwargs["delta"] = value
        return kwargs

    return run_sweep(
        config, instances,
        fig4_algorithms(config),
        param_name="delta",
        param_values=config.delta_sweep,
        make_energy=lambda cfg, value: cfg.energy_model(),
        make_kwargs=make_kwargs,
        validate=validate,
        progress=progress,
        jobs=jobs,
        cache=cache)


__all__ = ["run_fig4", "fig4_algorithms"]
