"""Fig. 5 — DCM with overlapping, battery-capacity sweep at fixed δ.

Sweeps the battery capacity (δ fixed, 10 m in the paper) and plots, for
Algorithm 2, Algorithm 3 (each K), and the benchmark baseline:

* (a) mean collected data volume (GB),
* (b) mean planning wall-clock time (s).

Paper claims reproduced (shape):

* collected volume grows with capacity for every algorithm (the paper
  reports +82 % for Algorithm 3, K=4, from 3e5 J to 9e5 J);
* Algorithm 2/3 planning time grows with capacity while the benchmark's
  shrinks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig4 import fig4_algorithms
from repro.experiments.instances import make_instances
from repro.experiments.runner import AlgoSpec, SweepResult, run_sweep
from repro.network.sensor_network import SensorNetwork


def run_fig5(config: ExperimentConfig,
             instances: Optional[Sequence[SensorNetwork]] = None,
             *, validate: bool = True, progress=None,
             jobs: int = 1, cache: bool = True) -> SweepResult:
    """Run the Fig. 5 capacity sweep and return the aggregated rows.

    ``jobs``/``cache`` select the execution engine and the per-instance
    artifact cache (see :func:`repro.experiments.runner.run_sweep`); δ is
    fixed here, so the cache builds each instance's grid exactly once
    for the whole sweep.
    """
    if instances is None:
        instances = make_instances(config)

    def make_kwargs(cfg: ExperimentConfig, value: float, spec: AlgoSpec):
        kwargs = dict(spec.kwargs)
        if spec.method != "benchmark":
            kwargs["delta"] = cfg.delta
        return kwargs

    return run_sweep(
        config, instances, fig4_algorithms(config),
        param_name="capacity",
        param_values=config.capacity_sweep,
        make_energy=lambda cfg, value: cfg.energy_model(capacity=value),
        make_kwargs=make_kwargs,
        validate=validate,
        progress=progress,
        jobs=jobs,
        cache=cache)


__all__ = ["run_fig5"]
