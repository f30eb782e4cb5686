"""Unit tests for repro.sim (simulator, trace, cross-validation)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm2 import plan_algorithm2
from repro.core.tour import CollectionTour
from repro.energy.model import EnergyModel
from repro.experiments import runner
from repro.experiments.config import reduced_settings
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.obs.tracer import Tracer, activated
from repro.radio.link import DistanceRateModel, RadioModel
from repro.sim.simulator import simulate_mission
from repro.sim.validate import cross_validate
from repro.utils.errors import InfeasibleTourError
from tests.oracles import assert_traces_equal, stepwise_simulate
from tests.strategies import networks


@pytest.fixture
def planned(small_net, radio, energy):
    return plan_algorithm2(small_net, energy, radio, delta=25.0)


class TestSimulator:
    def test_trace_matches_planner_energy(self, planned, radio):
        trace = simulate_mission(planned, radio)
        assert trace.total_energy == pytest.approx(planned.total_energy)

    def test_trace_matches_planner_volume(self, planned, radio):
        trace = simulate_mission(planned, radio)
        assert trace.collected_volume >= planned.collected_volume - 1e-6

    def test_events_chronological(self, planned, radio):
        trace = simulate_mission(planned, radio)
        times = [(e.start_time, e.end_time) for e in trace.events]
        for (s, e), (s2, e2) in zip(times, times[1:]):
            assert e <= s2 + 1e-9
            assert s <= e

    def test_legs_close_the_tour(self, planned, radio):
        trace = simulate_mission(planned, radio)
        legs = trace.flight_legs
        # First leg leaves the depot, last leg returns to it.
        np.testing.assert_allclose(legs[0].origin, planned.points[0])
        np.testing.assert_allclose(legs[-1].destination, planned.points[0])

    def test_leg_chain_is_continuous(self, planned, radio):
        trace = simulate_mission(planned, radio)
        legs = trace.flight_legs
        for a, b in zip(legs, legs[1:]):
            np.testing.assert_allclose(a.destination, b.origin)

    def test_total_travel_matches_tour_length(self, planned, radio):
        trace = simulate_mission(planned, radio)
        travel = sum(leg.distance for leg in trace.flight_legs)
        assert travel == pytest.approx(planned.travel_distance)

    def test_hover_count(self, planned, radio):
        trace = simulate_mission(planned, radio)
        assert len(trace.hovers) == planned.n_hovers

    def test_uploads_respect_bandwidth(self, planned, radio):
        trace = simulate_mission(planned, radio)
        for h in trace.hovers:
            for v, mb in h.uploads.items():
                assert mb <= radio.bandwidth * h.duration + 1e-9

    def test_no_sensor_over_drained(self, planned, radio, small_net):
        trace = simulate_mission(planned, radio)
        assert (trace.collected <= small_net.volumes + 1e-9).all()

    def test_strict_energy_raises_on_overdraw(self, small_net, radio):
        from repro.energy.model import EnergyModel
        tiny = EnergyModel(capacity=10.0, hover_power=150.0,
                           travel_power=100.0, speed=10.0)
        # A tour claiming a long flight on a 10 J battery.
        far = CollectionTour(
            points=np.vstack([small_net.depot,
                              small_net.depot + [100.0, 0.0]]),
            sojourns=np.array([0.0, 0.0]),
            collected=np.zeros(small_net.n_nodes),
            network=small_net, energy=tiny)
        with pytest.raises(InfeasibleTourError):
            simulate_mission(far, radio, strict_energy=True)
        trace = simulate_mission(far, radio, strict_energy=False)
        assert trace.ledger.overdrawn

    def test_summary_mentions_key_numbers(self, planned, radio):
        trace = simulate_mission(planned, radio)
        text = trace.summary()
        assert "collected" in text and "energy" in text

    def test_ofdma_concurrency_reported(self, planned, radio):
        trace = simulate_mission(planned, radio)
        assert trace.ofdma_max_concurrency >= 1

    def test_depot_only_tour(self, small_net, radio, energy):
        t = CollectionTour(points=small_net.depot[None, :],
                           sojourns=np.array([0.0]),
                           collected=np.zeros(small_net.n_nodes),
                           network=small_net, energy=energy)
        trace = simulate_mission(t, radio)
        assert trace.total_energy == 0.0
        assert not trace.events


class TestCrossValidate:
    def test_ok_for_planner_output(self, planned, radio):
        report = cross_validate(planned, radio)
        assert report.ok
        assert report.simulated_volume >= report.claimed_volume - 1e-6

    def test_detects_overclaim(self, planned, radio, small_net):
        inflated = planned.collected.copy()
        # Claim an uncollected sensor without hovering near it.
        untouched = np.flatnonzero(planned.collected == 0)
        if len(untouched) == 0:
            pytest.skip("tour collected everything; cannot inflate")
        v = int(untouched[0])
        inflated[v] = small_net.volumes[v]
        bad = CollectionTour(points=planned.points,
                             sojourns=planned.sojourns,
                             collected=inflated,
                             network=small_net, energy=planned.energy)
        with pytest.raises(InfeasibleTourError):
            cross_validate(bad, radio)
        report = cross_validate(bad, radio, strict=False)
        assert not report.ok

    def test_report_carries_trace(self, planned, radio):
        report = cross_validate(planned, radio)
        assert report.trace.total_energy == pytest.approx(
            report.simulated_energy)


# --------------------------------------------------------------------- #
# The one-pass replay against the event-by-event oracle.
# --------------------------------------------------------------------- #

_RADIO = RadioModel(bandwidth=150.0, transmission_range=50.0, altitude=0.0)
_DECAY = DistanceRateModel(base=RadioModel(bandwidth=150.0,
                                           transmission_range=60.0,
                                           altitude=20.0),
                           exponent=2.0, saturation_distance=30.0)


def _replay(simulate, tour, radio, **kwargs):
    """``(trace, error, spans)`` of one traced simulator run: the error
    as (type, message, required, available), the spans as (name, attrs,
    parent name)."""
    tracer = Tracer()
    trace = error = None
    with activated(tracer):
        try:
            trace = simulate(tour, radio, **kwargs)
        except Exception as exc:  # compared, not swallowed
            error = (type(exc), str(exc), getattr(exc, "required", None),
                     getattr(exc, "available", None))
    records = tracer.records()
    names = {r["id"]: r["name"] for r in records}
    return trace, error, [(r["name"], r["attrs"], names.get(r["parent"]))
                          for r in records]


def _assert_replays_equal(tour, radio, **kwargs):
    got, got_error, got_spans = _replay(simulate_mission, tour, radio,
                                        **kwargs)
    want, want_error, want_spans = _replay(stepwise_simulate, tour, radio,
                                           **kwargs)
    assert got_error == want_error
    assert got_spans == want_spans
    if want is not None:
        assert_traces_equal(got, want)
    return got_error


@st.composite
def _missions(draw):
    """A hand-made tour over a random network: stops at sensors, at
    random points and repeated (coincident), zero and positive sojourns,
    a battery that may run out, and the simulator's options."""
    net = draw(networks())
    side = net.region.width
    stops = [net.depot]
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["sensor", "point", "repeat"]))
        if kind == "sensor":
            stops.append(net.positions[draw(st.integers(0, net.n_nodes - 1))])
        elif kind == "repeat":
            stops.append(stops[-1])
        else:
            stops.append(np.array([draw(st.floats(0.0, side)),
                                   draw(st.floats(0.0, side))]))
    sojourns = [draw(st.sampled_from([0.0, 0.0, 0.4, 1.0, 2.5, 7.0]))
                for _ in stops]
    energy = EnergyModel(
        capacity=draw(st.sampled_from([50.0, 500.0, 3e3, 1e6])),
        hover_power=150.0, travel_power=100.0, speed=10.0,
        distance_based_travel=draw(st.booleans()))
    tour = CollectionTour(points=np.array(stops), sojourns=sojourns,
                          collected=np.zeros(net.n_nodes), network=net,
                          energy=energy, method="handmade")
    kwargs = {"strict_energy": draw(st.booleans()),
              "strict_channels": draw(st.booleans()),
              "ofdma_channels": draw(st.sampled_from([1, 2, 3, 1024])),
              "rate_model": draw(st.sampled_from([None, _DECAY]))}
    return tour, kwargs


class TestStepwiseOracle:
    """simulate_mission equals tests/oracles.py::stepwise_simulate: the
    events (upload values and their types included), collected bytes,
    ledger entries and spent, OFDMA concurrency, the sim.* spans, and
    the raised errors."""

    @settings(max_examples=150, deadline=None)
    @given(mission=_missions())
    def test_matches_stepwise(self, mission):
        tour, kwargs = mission
        _assert_replays_equal(tour, _DECAY.base
                              if kwargs["rate_model"] else _RADIO, **kwargs)

    @pytest.mark.parametrize("strict_energy", [True, False])
    @pytest.mark.parametrize("strict_channels", [True, False])
    @pytest.mark.parametrize("rate_model", [None, _DECAY],
                             ids=["constant", "decay"])
    def test_planned_tours(self, small_net, strict_energy, strict_channels,
                           rate_model):
        radio = _DECAY.base if rate_model else _RADIO
        for capacity in (2e3, 2e4):       # the first overdraws
            planned = plan_algorithm2(
                small_net, EnergyModel(capacity=2e4, hover_power=150.0,
                                       travel_power=100.0, speed=10.0),
                radio, delta=25.0)
            tour = CollectionTour(
                points=planned.points, sojourns=planned.sojourns,
                collected=planned.collected, network=small_net,
                energy=planned.energy.with_capacity(capacity),
                method=planned.method)
            error = _assert_replays_equal(
                tour, radio, strict_energy=strict_energy,
                strict_channels=strict_channels, ofdma_channels=2,
                rate_model=rate_model)
            assert (error is not None) == (
                strict_channels or (strict_energy and capacity == 2e3))

    def test_zero_sojourns_and_coincident_stops(self, small_net, energy):
        p = small_net.positions
        tour = CollectionTour(
            points=np.vstack([small_net.depot, p[0], p[0], p[3], p[3],
                              small_net.depot]),
            sojourns=[0.0, 1.5, 0.0, 0.0, 2.0, 0.0],
            collected=np.zeros(small_net.n_nodes), network=small_net,
            energy=energy)
        assert _assert_replays_equal(tour, _RADIO) is None

    def test_bad_amounts_raise_at_the_same_event(self, small_net, energy):
        """An infinite sojourn or leg raises the ledger's own message;
        an overdraw before it wins, as it did event by event."""
        p = small_net.positions
        for sojourns, far in (([0.0, 1.0, np.inf, 0.0], 0.0),
                              ([0.0, 1.0, 1.0, 0.0], np.inf),
                              ([0.0, 1e4, np.inf, 0.0], 0.0)):
            points = np.vstack([small_net.depot, p[0], p[1], p[2]])
            points[3, 0] += far
            tour = CollectionTour(points=points, sojourns=sojourns,
                                  collected=np.zeros(small_net.n_nodes),
                                  network=small_net, energy=energy)
            for strict in (True, False):
                error = _assert_replays_equal(tour, _RADIO,
                                              strict_energy=strict)
                assert error is not None

    def test_non_finite_hover_point(self, small_net, energy):
        points = np.vstack([small_net.depot, small_net.positions[:2]])
        points[2, 1] = np.nan
        tour = CollectionTour(points=points, sojourns=[0.0, 1.0, 1.0],
                              collected=np.zeros(small_net.n_nodes),
                              network=small_net, energy=energy)
        assert _assert_replays_equal(tour, _RADIO) is not None

    def test_upload_types_are_kept(self, planned, radio):
        """Drained sensors upload their NumPy residual, partial uploads
        the Python float B·t — as the event-by-event replay did."""
        kinds = {type(mb) for h in simulate_mission(planned, radio).hovers
                 for mb in h.uploads.values()}
        assert np.float64 in kinds
        _assert_replays_equal(planned, radio)

    def test_reduced_sweep_tours(self):
        config = reduced_settings().scaled(n_instances=2)
        tours = []

        def spy(tour, radio, **kwargs):
            tours.append(tour)
            _assert_replays_equal(tour, radio)
            return cross_validate(tour, radio, **kwargs)

        with mock.patch.object(runner, "cross_validate", spy):
            run_fig4(config)
            run_fig3(config.scaled(n_instances=1), n_restarts=2)
        assert len(tours) == 2 * 5 * 4 + 4 * 2
