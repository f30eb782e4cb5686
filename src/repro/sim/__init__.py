"""Mission-execution simulator.

Planners *claim* a tour collects some volume within the energy budget; this
subpackage independently *executes* the tour: it flies each leg at the
UAV's speed, debits the :class:`~repro.energy.EnergyLedger` per activity,
assigns OFDMA channels at each hover, and uploads from every covered sensor
at bandwidth ``B`` for exactly the planned sojourn.  The resulting
:class:`~repro.sim.trace.MissionTrace` is compared against the planner's
claims by :func:`~repro.sim.validate.cross_validate` — the library's
end-to-end correctness check.

:func:`~repro.sim.simulator.simulate_mission` replays a tour in one pass:
one KD-tree coverage query for all hover points and the leg lengths
computed as arrays, and a stop-by-stop loop that debits the ledger and
applies each hover's uploads to its covered sensors in plain Python
arithmetic.  Its
coverage stays independent of the planners' window-built CSR, and its
trace, errors and ``sim.*`` spans equal the event-by-event replay's
(``tests/oracles.py::stepwise_simulate``).
"""

from repro.sim.events import FlightLeg, HoverEvent
from repro.sim.trace import MissionTrace
from repro.sim.simulator import simulate_mission
from repro.sim.validate import cross_validate, CrossValidationReport
from repro.sim.perturb import (
    Perturbation,
    ContingencyResult,
    simulate_with_contingency,
    evaluate_robustness,
)

__all__ = [
    "Perturbation",
    "ContingencyResult",
    "simulate_with_contingency",
    "evaluate_robustness",
    "FlightLeg",
    "HoverEvent",
    "MissionTrace",
    "simulate_mission",
    "cross_validate",
    "CrossValidationReport",
]
