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


def fig4_algorithms(config: ExperimentConfig, *,
                    algorithm1: bool = False,
                    n_restarts: int = 3) -> list:
    """Algorithm 2, Algorithm 3 per K, and the benchmark.

    With ``algorithm1=True`` an Algorithm 1 series (GRASP with
    *n_restarts* restarts) is prepended — the paper's Fig. 4 omits it,
    but it is the series the δ-continuation mode chains, so the CLI adds
    it alongside ``--delta-continuation``.
    """
    algos = []
    if algorithm1:
        algos.append(AlgoSpec("Algorithm 1", "algorithm1",
                              {"solver": "grasp", "n_restarts": n_restarts,
                               "seed": 0}))
    algos.append(AlgoSpec("Algorithm 2", "algorithm2", {}))
    for k in config.k_values:
        algos.append(AlgoSpec(f"Algorithm 3 (K={k})", "algorithm3", {"K": k}))
    algos.append(AlgoSpec("Benchmark", "benchmark", {}))
    return algos


def run_fig4(config: ExperimentConfig,
             instances: Optional[Sequence[SensorNetwork]] = None,
             *, validate: bool = True, progress=None,
             jobs: int = 1, cache: bool = True,
             batch_columns: bool = False,
             site_reduction=None,
             algorithm1: bool = False,
             delta_continuation: bool = False) -> SweepResult:
    """Run the Fig. 4 δ sweep and return the aggregated rows.

    ``jobs``/``cache`` select the execution engine and the per-instance
    artifact cache (see :func:`repro.experiments.runner.run_sweep`).
    Each δ builds its own grid, so the cache pays off here across the
    Algorithm 2/3 cells that share a δ, not along the swept axis.
    ``batch_columns`` is accepted for interface uniformity but is a
    no-op here: the swept δ changes every cell's kwargs, so no spec
    forms a batchable column (the runner detects this and keeps the
    per-cell path).  ``site_reduction`` applies the candidate-site
    reduction pre-pass to every Algorithm 2/3 cell — the dense-δ end of
    this sweep is where it pays the most (see ``DESIGN.md``).

    ``algorithm1`` adds an Algorithm 1 series (see
    :func:`fig4_algorithms`); ``delta_continuation``
    implies it and chains its δ cells coarse→fine with warm starts
    (:mod:`repro.experiments.continuation`).
    """
    if instances is None:
        instances = make_instances(config)
    algorithm1 = algorithm1 or delta_continuation

    def make_kwargs(cfg: ExperimentConfig, value: float, spec: AlgoSpec):
        kwargs = dict(spec.kwargs)
        if spec.method != "benchmark":
            kwargs["delta"] = value
        return kwargs

    return run_sweep(
        config, instances,
        fig4_algorithms(config, algorithm1=algorithm1),
        param_name="delta",
        param_values=config.delta_sweep,
        make_energy=lambda cfg, value: cfg.energy_model(),
        make_kwargs=make_kwargs,
        validate=validate,
        progress=progress,
        jobs=jobs,
        cache=cache,
        batch_columns=batch_columns,
        site_reduction=site_reduction,
        delta_continuation=delta_continuation)


__all__ = ["run_fig4", "fig4_algorithms"]
