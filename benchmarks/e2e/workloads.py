"""The end-to-end benchmark's workloads, as plain data.

Imported by the orchestrator (``run.py``), which never imports the
program, and by the benchmark process (``child.py``), which turns a
workload into an ``ExperimentConfig`` and figure-runner calls.

A workload is one public figure runner (``run_fig3`` / ``run_fig4``) on
the reduced-scale configuration (``reduced_settings()``) with
``n_instances`` seeded networks, each planned by its own runner call.
Only the workload-defining arguments are passed: the config and the
instances.  No planner knob (``engine=``, ``batch_columns=``,
``site_reduction=``, ``delta_continuation=``) is ever set, so a change of
a runner default shows up as a measured delta.

``n_instances`` is as large as one round of calls in a 50 s run allows
when the host runs 15% below its median speed: planning time varies by
about 15% between random networks, and only the instance count averages
that out across ``--seed`` values.  Two workloads, not more, so that
each run can be that long within the benchmark's total time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    figure: str
    n_instances: int


WORKLOADS: Dict[str, Workload] = {
    # Algorithm 1 + baseline over the capacity sweep: the only workload
    # with the dense auxiliary graph, conflict lists and GRASP.
    "fig3-reduced": Workload("fig3", n_instances=16),
    # δ sweep: sites and coverage rebuilt per δ, greedy kernel of
    # Algorithms 2-3 and the baseline; no Algorithm 1.
    "fig4-reduced": Workload("fig4", n_instances=20),
}

#: ``--smoke`` sizes: a seconds-long run of every workload for tests.
SMOKE_NODES = 40
SMOKE_FIG3_NODES = 60
SMOKE_INSTANCES = 2

#: The default workload seed (the paper's date, as in ``ExperimentConfig``).
DEFAULT_SEED = 20200518


def size_of(workload: Workload, smoke: bool) -> Dict[str, Optional[int]]:
    """Node count and instance count of one workload size.

    ``n_nodes`` is ``None`` at the default size: the reduced preset's own
    node count applies.
    """
    if not smoke:
        return {"n_nodes": None, "n_instances": workload.n_instances}
    nodes = SMOKE_FIG3_NODES if workload.figure == "fig3" else SMOKE_NODES
    return {"n_nodes": nodes, "n_instances": SMOKE_INSTANCES}
