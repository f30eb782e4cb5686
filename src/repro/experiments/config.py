"""Experiment configuration and presets.

``paper_settings()`` is §VII-A verbatim: 500 nodes in 1000 m x 1000 m,
``D_v ~ U[100, 1000] MB``, R0 = 50 m, B = 150 MB/s, E = 3e5 J, speed
10 m/s, eta_t = 100 J/s, eta_h = 150 J/s, 15 instances per point.

``reduced_settings()`` scales the instance down so the full figure suite
runs in minutes of pure Python (DESIGN.md substitution S3): 120 nodes and
an energy sweep rescaled to keep the budget *binding* across the sweep,
which is what produces the paper's relative shapes.  The scaling rule is
proportional: total data and tour lengths shrink ~4x, so the energy axis
shrinks ~4-10x.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Tuple

import numpy as np

from repro.energy.model import EnergyModel
from repro.geometry.region import Region
from repro.radio.link import RadioModel
from repro.utils.errors import InvalidParameterError
from repro.utils.validation import (check_finite, check_integer,
                                    check_non_negative, check_positive)


#: The scalar fields, and the sequence fields, whose numpy scalars
#: (entries) are stored as the Python numbers they hold.
_SCALAR_FIELDS = ("region_side", "bandwidth", "coverage_radius", "capacity",
                  "hover_power", "travel_power", "speed", "delta",
                  "distance_based_travel")
_SWEEP_FIELDS = ("volume_range", "capacity_sweep", "delta_sweep")


def _plain(value: Any) -> Any:
    """A numpy scalar as the Python number it holds; anything else as is."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one evaluation campaign.

    Attributes
    ----------
    n_nodes:
        Aggregate sensor count ``|V|``.
    region_side:
        Monitoring square side (metres).
    volume_range:
        Uniform ``D_v`` bounds (MB).
    bandwidth:
        Upload rate ``B`` (MB/s).
    coverage_radius:
        ``R0`` (metres).
    capacity:
        Default battery capacity ``E`` (J).
    hover_power, travel_power, speed:
        UAV energy parameters.
    delta:
        Default grid edge length (metres).
    capacity_sweep:
        Battery values for the Fig. 3 / Fig. 5 sweeps.
    delta_sweep:
        Grid edge lengths for the Fig. 4 sweep.
    k_values:
        Algorithm 3 partition counts plotted in Figs. 4–5.
    n_instances:
        Random network instances averaged per data point.
    seed:
        Master seed for the instance set.
    label:
        Preset name (``"paper"`` / ``"reduced"`` / custom).
    """

    n_nodes: int = 500
    region_side: float = 1000.0
    volume_range: Tuple[float, float] = (100.0, 1000.0)
    bandwidth: float = 150.0
    coverage_radius: float = 50.0
    capacity: float = 3e5
    hover_power: float = 150.0
    travel_power: float = 100.0
    speed: float = 10.0
    delta: float = 10.0
    capacity_sweep: Tuple[float, ...] = (3e5, 5e5, 7e5, 9e5)
    delta_sweep: Tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    k_values: Tuple[int, ...] = (2, 4)
    n_instances: int = 15
    seed: int = 20200518
    label: str = "paper"
    #: Travel-energy reading: True = the paper's literal Eq. 9 (eta_t J/m),
    #: False = the physical eta_t/speed J/m (see repro.energy.model docs).
    distance_based_travel: bool = False

    def __post_init__(self) -> None:
        # The integer fields are stored as plain ints: numpy's seeding,
        # the row names and the pool's JSON transport take no float or
        # numpy integer.  Numpy scalars in the other numeric fields
        # become the Python numbers they hold, for the same transport;
        # Python ints and floats are kept as given, so as_dict() and the
        # config hashes do not move.
        for name in _SCALAR_FIELDS:
            object.__setattr__(self, name, _plain(getattr(self, name)))
        for name in _SWEEP_FIELDS:
            sweep = getattr(self, name)
            if isinstance(sweep, np.ndarray) and sweep.ndim == 1:
                # A 1-D array is stored as the tuple of Python numbers
                # it holds: as_dict() and the config hash then equal
                # the tuple form's.
                object.__setattr__(self, name, tuple(sweep.tolist()))
            elif isinstance(sweep, (tuple, list)):
                object.__setattr__(self, name, type(sweep)(
                    _plain(v) for v in sweep))
        for name, minimum in (("n_nodes", 1), ("n_instances", 1),
                              ("seed", 0)):
            object.__setattr__(self, name, check_integer(
                getattr(self, name), name, minimum=minimum))
        object.__setattr__(self, "k_values", tuple(
            check_integer(k, "k_values entry", minimum=1)
            for k in self.k_values))
        check_positive(self.region_side, "region_side")
        check_positive(self.bandwidth, "bandwidth")
        check_positive(self.coverage_radius, "coverage_radius")
        check_positive(self.capacity, "capacity")
        check_positive(self.delta, "delta")
        if (not isinstance(self.volume_range, (tuple, list))
                or len(self.volume_range) != 2):
            raise InvalidParameterError(
                f"volume_range must be a (low, high) pair, "
                f"got {self.volume_range!r}")
        low = check_non_negative(self.volume_range[0], "volume_range low")
        if check_finite(self.volume_range[1], "volume_range high") < low:
            raise InvalidParameterError(
                f"volume_range must have low <= high, "
                f"got {self.volume_range!r}")
        for name in ("capacity_sweep", "delta_sweep"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise InvalidParameterError(
                    f"{name} must be a sequence of numbers, got "
                    f"{getattr(self, name)!r}")
        if not self.capacity_sweep or not self.delta_sweep:
            raise InvalidParameterError("sweeps must be non-empty")
        for capacity in self.capacity_sweep:
            check_positive(capacity, "capacity_sweep entry")
        for delta in self.delta_sweep:
            check_positive(delta, "delta_sweep entry")

    @property
    def region(self) -> Region:
        """The monitoring region."""
        return Region.square(self.region_side)

    def energy_model(self, capacity: float | None = None) -> EnergyModel:
        """The UAV energy model, optionally at a swept capacity."""
        return EnergyModel(capacity=(self.capacity if capacity is None
                                     else capacity),
                           hover_power=self.hover_power,
                           travel_power=self.travel_power,
                           speed=self.speed,
                           distance_based_travel=self.distance_based_travel)

    def radio_model(self) -> RadioModel:
        """The uplink model (R0 expressed as range at zero altitude)."""
        return RadioModel(bandwidth=self.bandwidth,
                          transmission_range=self.coverage_radius,
                          altitude=0.0)

    def scaled(self, **overrides) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict of every field (tuples become lists).

        This is the configuration transport of the parallel sweep
        executor: workers rebuild their energy/radio models from this
        payload instead of unpickling live objects.
        """
        payload = asdict(self)
        for key, value in payload.items():
            if isinstance(value, tuple):
                payload[key] = list(value)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`as_dict` (rejects unknown keys)."""
        if not isinstance(data, dict):
            raise InvalidParameterError("config payload must be a dict")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise InvalidParameterError(
                f"unknown ExperimentConfig fields: {unknown}")
        kwargs: Dict[str, Any] = {}
        for key, value in data.items():
            if isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)


def paper_settings() -> ExperimentConfig:
    """The paper's §VII-A configuration, verbatim.

    Uses the paper-literal travel-energy reading (Eq. 9's ``l * eta_t``
    with eta_t in J/m) — the only reading under which the paper's
    absolute collected volumes are reachable at its stated battery sizes;
    see :mod:`repro.energy.model` and EXPERIMENTS.md.
    """
    return ExperimentConfig(distance_based_travel=True)


def reduced_settings() -> ExperimentConfig:
    """Laptop-scale configuration preserving the paper's trends.

    120 nodes hold ~66 GB total (vs the paper's ~275 GB), so the energy
    axis is rescaled to keep the budget binding: the sweep spans "collects
    roughly a third of the data" to "collects most of it", mirroring where
    the paper's sweep sits relative to its instance.
    """
    return ExperimentConfig(
        n_nodes=120,
        capacity=6e4,
        capacity_sweep=(3e4, 5e4, 7e4, 9e4),
        delta=15.0,
        delta_sweep=(10.0, 15.0, 20.0, 25.0, 30.0),
        k_values=(2, 4),
        n_instances=5,
        label="reduced",
    )


__all__ = ["ExperimentConfig", "paper_settings", "reduced_settings"]
