"""Execute a planned :class:`~repro.core.tour.CollectionTour` step by step.

The simulator shares *no* state with the planners: it re-derives coverage
from raw geometry, debits energy through the ledger, and uploads data with
the same greedy OFDMA semantics the paper's framework describes (every
covered device transmits on its own channel at bandwidth ``B`` for the
whole sojourn, capped by its remaining data).

One pass replays the whole tour: the leg lengths and the coverage of
every hover point (one KD-tree query) are computed as arrays, and the
stop-by-stop loop debits the ledger per hover and per leg, applies each
hover's uploads to its covered sensors, in order, in plain Python
arithmetic, and records the events.
Its events, ledger, OFDMA assignments, ``sim.*`` spans and errors (raised
by the same event, with the same message) are those of the event-by-event
replay, which ``tests/oracles.py::stepwise_simulate`` keeps as the oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.tour import CollectionTour
from repro.energy.ledger import EnergyLedger
from repro.geometry.coverage import CoverageIndex
from repro.obs.tracer import span
from repro.radio.link import DistanceRateModel, RadioModel
from repro.radio.ofdma import OFDMAScheduler
from repro.sim.events import FlightLeg, HoverEvent
from repro.sim.trace import MissionTrace


def simulate_mission(tour: CollectionTour, radio: RadioModel, *,
                     ofdma_channels: int = 1024,
                     strict_energy: bool = True,
                     strict_channels: bool = False,
                     rate_model: Optional[DistanceRateModel] = None
                     ) -> MissionTrace:
    """Fly the tour and return the full :class:`MissionTrace`.

    Parameters
    ----------
    tour:
        The planner output to execute.
    radio:
        Uplink model (coverage radius and bandwidth).
    ofdma_channels:
        Radio channel budget for the OFDMA scheduler.
    strict_energy:
        Raise :class:`~repro.utils.errors.InfeasibleTourError` the moment
        the battery would overdraw (default); otherwise finish the mission
        and let the caller inspect ``trace.ledger.overdrawn``.
    strict_channels:
        Raise when a hover covers more devices than channels exist;
        otherwise the excess devices are silently not served (their data
        stays on the ground), modelling a saturated radio.
    rate_model:
        Optional :class:`~repro.radio.link.DistanceRateModel`: uploads run
        at the distance-dependent effective rate instead of the constant
        ``radio.bandwidth`` the planners assume.  This is the sensitivity
        knob for the paper's §III-B "differences are negligible at low
        altitude" claim — see ``benchmarks/bench_rate_sensitivity.py``.

    Returns
    -------
    MissionTrace
    """
    net = tour.network
    index = CoverageIndex(net.positions, radio.coverage_radius)
    scheduler = OFDMAScheduler(ofdma_channels, strict=strict_channels)
    ledger = EnergyLedger(tour.energy, strict=strict_energy)

    points = tour.points
    k = len(points)
    durations = tour.sojourns.tolist()
    ahead = np.roll(points, -1, axis=0)
    legs = np.hypot(ahead[:, 0] - points[:, 0],
                    ahead[:, 1] - points[:, 1]).tolist()
    stops = [tuple(p) for p in points.tolist()]
    # One query for every hover point; a non-finite one is queried (and
    # rejected) when its hover comes.
    at = np.flatnonzero((tour.sojourns > 0) & np.isfinite(points).all(axis=1))
    coverage = dict(zip(at.tolist(), index.covered_by(points[at])))

    rem = list(net.volumes.astype(float))
    collected = [0.0] * net.n_nodes
    events: list = []
    clock = 0.0

    with span("sim.mission", method=tour.method, n_stops=k):
        for i in range(k):
            # Hover & collect (skip zero-duration stops, e.g. bare depot).
            duration = durations[i]
            if duration > 0:
                with span("sim.hover"):
                    entry = ledger.debit_hover(duration, note=f"hover@{i}")
                    covered = (coverage[i] if i in coverage
                               else index.covered_by_single(points[i]))
                    assignment = scheduler.assign(covered)
                    cap = radio.bandwidth * duration
                    uploads = {}
                    for v in assignment.device_to_channel:
                        if rate_model is not None:
                            ground_d = float(
                                np.hypot(*(net.positions[v] - points[i])))
                            cap = float(rate_model.rate_at(
                                np.asarray([ground_d]))[0]) * duration
                        left = rem[v]
                        amount = cap if cap < left else left
                        if amount > 0:
                            uploads[v] = amount
                            rem[v] = left - amount
                            collected[v] = collected[v] + amount
                    events.append(HoverEvent(
                        start_time=clock, end_time=clock + duration,
                        position=stops[i], energy=entry.energy,
                        uploads=uploads,
                        channels=dict(assignment.device_to_channel)))
                    clock += duration
            # Fly to the next point (wrapping back to the depot at the end).
            if legs[i] > 0:
                with span("sim.leg"):
                    entry = ledger.debit_travel(
                        legs[i], note=f"leg{i}->{(i + 1) % k}")
                    events.append(FlightLeg(
                        start_time=clock, end_time=clock + entry.duration,
                        origin=stops[i], destination=stops[(i + 1) % k],
                        distance=legs[i], energy=entry.energy))
                    clock += entry.duration

    return MissionTrace(events=events,
                        collected=np.array(collected, dtype=float),
                        ledger=ledger,
                        ofdma_max_concurrency=scheduler.max_concurrency)


__all__ = ["simulate_mission"]
