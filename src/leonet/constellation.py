"""Walker delta shell construction and circular two-body propagation.

A shell is described by (sats_per_plane, planes, phase_factor): planes are
spread evenly over 360 degrees of right ascension, satellites evenly within
each plane, and the phase factor staggers adjacent planes by
phase_factor * 360 / (sats_per_plane * planes) degrees of argument of latitude.

Propagation is circular two-body motion around a spherical Earth: constant
angular rate sqrt(mu / a^3), no perturbations. States are inertial (ECI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from .geometry import EARTH_RADIUS_KM, elapsed_seconds

MU_EARTH_KM3_PER_S2 = 398600.4418


def max_phase_factor(planes: int) -> int:
    """Largest phase factor that yields a distinct, non-mirrored phasing.

    Even plane counts admit planes/2 - 1; odd counts admit (planes-1)/2.
    """
    if planes < 1:
        raise ValueError("plane count must be >= 1")
    if planes % 2 == 0:
        return max(planes // 2 - 1, 0)
    return (planes - 1) // 2


@dataclass(frozen=True)
class ConstellationConfig:
    """Static shell parameters; validated on construction."""

    sats_per_plane: int
    planes: int
    phase_factor: int
    altitude_km: float
    inclination_deg: float
    epoch: datetime

    def __post_init__(self) -> None:
        if self.sats_per_plane < 1:
            raise ValueError("sats_per_plane must be >= 1")
        if self.planes < 1:
            raise ValueError("planes must be >= 1")
        if not 0 <= self.phase_factor <= self.planes - 1:
            raise ValueError(
                f"phase_factor {self.phase_factor} outside [0, {self.planes - 1}]"
            )
        if self.altitude_km <= 0:
            raise ValueError("altitude_km must be positive")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination_deg outside [0, 180]")
        if self.epoch.tzinfo is None or self.epoch.utcoffset() is None:
            raise ValueError("epoch must be timezone-aware UTC")

    @property
    def total_sats(self) -> int:
        return self.sats_per_plane * self.planes

    @property
    def semi_major_axis_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def mean_motion_rad_per_s(self) -> float:
        a = self.semi_major_axis_km
        return math.sqrt(MU_EARTH_KM3_PER_S2 / a**3)

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion_rad_per_s


@dataclass(frozen=True)
class TimeGrid:
    """Uniform UTC sampling grid: start, positive step, stamp count."""

    start: datetime
    step_s: float
    count: int

    def __post_init__(self) -> None:
        if self.start.tzinfo is None or self.start.utcoffset() is None:
            raise ValueError("start must be timezone-aware UTC")
        if self.step_s <= 0:
            raise ValueError("step_s must be positive")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def stamps(self) -> tuple[datetime, ...]:
        return tuple(
            self.start + timedelta(seconds=self.step_s * i) for i in range(self.count)
        )


@dataclass(frozen=True, eq=False)
class Constellation:
    """A propagatable Walker delta shell.

    Satellites are indexed plane-major: index = plane * sats_per_plane + slot.
    The state of satellite idx at t is row idx of positions_at(t) and
    velocities_at(t).
    """

    config: ConstellationConfig
    _u0: np.ndarray = field(init=False, repr=False)
    _p_axis: np.ndarray = field(init=False, repr=False)
    _q_axis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cfg = self.config
        n, p, f = cfg.sats_per_plane, cfg.planes, cfg.phase_factor
        planes = np.arange(p)
        slots = np.arange(n)
        raan = 2.0 * math.pi * planes / p
        # in-plane spacing plus the adjacent-plane phase stagger
        u0 = (
            2.0 * math.pi * slots[None, :] / n
            + 2.0 * math.pi * f * planes[:, None] / (n * p)
        ).reshape(-1)
        inc = math.radians(cfg.inclination_deg)
        cos_o, sin_o = np.cos(raan), np.sin(raan)
        p_axis = np.stack([cos_o, sin_o, np.zeros_like(raan)], axis=1)
        q_axis = np.stack(
            [-sin_o * math.cos(inc), cos_o * math.cos(inc), np.full_like(raan, math.sin(inc))],
            axis=1,
        )
        object.__setattr__(self, "_u0", u0)
        object.__setattr__(self, "_p_axis", np.repeat(p_axis, n, axis=0))
        object.__setattr__(self, "_q_axis", np.repeat(q_axis, n, axis=0))

    @property
    def sat_count(self) -> int:
        return self.config.total_sats

    def _arg_lat(self, t: datetime | Sequence[datetime]) -> np.ndarray:
        """Arguments of latitude (sat_count,) at t, or (len(t), sat_count)."""
        stamps = [t] if isinstance(t, datetime) else t
        dt = np.array([elapsed_seconds(x, self.config.epoch) for x in stamps])
        u = self._u0 + self.config.mean_motion_rad_per_s * dt[:, None]
        return u[0] if isinstance(t, datetime) else u

    def positions_at(self, t: datetime | Sequence[datetime]) -> np.ndarray:
        """ECI positions (sat_count, 3) in km at time t >= epoch, or
        (len(t), sat_count, 3) at each stamp of a sequence t: one batch, whose
        rows are those of the stamps' own calls, bit for bit."""
        u = self._arg_lat(t)
        a = self.config.semi_major_axis_km
        return a * (np.cos(u)[..., None] * self._p_axis + np.sin(u)[..., None] * self._q_axis)

    def velocities_at(self, t: datetime | Sequence[datetime]) -> np.ndarray:
        """ECI velocities (sat_count, 3) in km/s at time t >= epoch, or
        (len(t), sat_count, 3) at each stamp of a sequence t, as positions_at."""
        u = self._arg_lat(t)
        va = self.config.semi_major_axis_km * self.config.mean_motion_rad_per_s
        return va * (-np.sin(u)[..., None] * self._p_axis + np.cos(u)[..., None] * self._q_axis)


def build_walker(config: ConstellationConfig) -> Constellation:
    """Construct the shell described by config; invalid configs are rejected
    by ConstellationConfig itself."""
    return Constellation(config)
