"""Earth-frame geometry: coordinate frames, visibility, link direction angles.

All Cartesian positions are kilometers. The Earth model is a sphere of radius
6371 km rotating about the +z axis. The Earth-fixed frame (ECEF) and the
inertial frame (ECI) share the z axis and coincide at a caller-supplied epoch;
after the epoch the ECEF frame leads by omega_E * (t - epoch) radians.

Functions are vectorized over the leading axes of their Cartesian arguments,
so a single call converts a whole (n, 3) batch of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0
EARTH_ROTATION_RAD_PER_S = 7.2921159e-5
SPEED_OF_LIGHT_KM_PER_S = 299792.458


def _check_utc(t: datetime, name: str = "t") -> None:
    if t.tzinfo is None or t.utcoffset() is None:
        raise ValueError(f"{name} must be timezone-aware UTC")


def elapsed_seconds(t: datetime, epoch: datetime) -> float:
    """Seconds from epoch to t; rejects t earlier than the epoch."""
    _check_utc(t)
    _check_utc(epoch, "epoch")
    dt = (t - epoch).total_seconds()
    if dt < 0:
        raise ValueError(f"t precedes the epoch by {-dt} s")
    return dt


@dataclass(frozen=True)
class GeodeticPoint:
    """Spherical-Earth geodetic coordinates in degrees / kilometers.

    Longitude is normalized into (-180, 180]; latitude outside [-90, 90]
    and negative altitude are rejected.
    """

    lat_deg: float
    lon_deg: float
    alt_km: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude {self.lat_deg} outside [-90, 90]")
        if self.alt_km < 0.0:
            raise ValueError(f"altitude {self.alt_km} km is negative")
        lon = self.lon_deg % 360.0
        if lon > 180.0:
            lon -= 360.0
        object.__setattr__(self, "lon_deg", lon)


def geodetic_to_ecef(point: GeodeticPoint) -> np.ndarray:
    """ECEF position (km) of a geodetic point on the spherical Earth."""
    r = EARTH_RADIUS_KM + point.alt_km
    lat = math.radians(point.lat_deg)
    lon = math.radians(point.lon_deg)
    return np.array(
        [
            r * math.cos(lat) * math.cos(lon),
            r * math.cos(lat) * math.sin(lon),
            r * math.sin(lat),
        ]
    )


def _lat_lon(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latitudes, longitudes (degrees; the longitude not folded yet) and radii
    of an (n, 3) batch of ECEF positions (km). The radii, the quotients z / r
    and the conversions to degrees are numpy passes, whose division and
    multiplication round as Python's (np.degrees multiplies as math.degrees
    does); the trigonometry stays scalar (math.asin, math.atan2), which
    numpy's vector kernels do not match bit for bit."""
    r = np.sqrt(np.vecdot(e, e))
    if not r.all():
        raise ValueError("zero-length position has no geodetic coordinates")
    lat = np.degrees(np.array(list(map(math.asin, (e[:, 2] / r).tolist()))))
    lon = np.degrees(np.array(list(map(math.atan2, e[:, 1].tolist(), e[:, 0].tolist()))))
    return lat, lon, r


def ecef_to_geodetic(p: np.ndarray) -> GeodeticPoint | list[GeodeticPoint]:
    """Geodetic point of a (3,) ECEF position (km), or the list of them for
    an (n, 3) batch (_lat_lon); a single point is the batch of one. Other
    shapes raise ValueError.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 3:
        raise ValueError(f"expected a (3,) position or an (n, 3) batch, not shape {p.shape}")
    lat, lon, r = _lat_lon(p.reshape(-1, 3))
    points = [
        GeodeticPoint(a, o, max(ri - EARTH_RADIUS_KM, 0.0))
        for a, o, ri in zip(lat.tolist(), lon.tolist(), r.tolist())
    ]
    return points[0] if p.ndim == 1 else points


def earth_rotation_angle(t: datetime, epoch: datetime) -> float:
    """Frame rotation angle (radians) accumulated since the epoch."""
    return EARTH_ROTATION_RAD_PER_S * elapsed_seconds(t, epoch)


def _rotate_z(p: np.ndarray, angle_rad: float) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    c = math.cos(angle_rad)
    s = math.sin(angle_rad)
    out = np.empty_like(p)
    out[..., 0] = c * p[..., 0] - s * p[..., 1]
    out[..., 1] = s * p[..., 0] + c * p[..., 1]
    out[..., 2] = p[..., 2]
    return out


def ecef_to_eci(p: np.ndarray, t: datetime, epoch: datetime) -> np.ndarray:
    """Rotate an Earth-fixed position into the inertial frame at time t."""
    return _rotate_z(p, earth_rotation_angle(t, epoch))


def eci_to_ecef(p: np.ndarray, t: datetime, epoch: datetime) -> np.ndarray:
    """Rotate an inertial position into the Earth-fixed frame at time t."""
    return _rotate_z(p, -earth_rotation_angle(t, epoch))


def eci_to_geodetic(
    p: np.ndarray, t: datetime, epoch: datetime
) -> GeodeticPoint | list[GeodeticPoint]:
    """ecef_to_geodetic of inertial positions at time t, one rotation for a batch."""
    return ecef_to_geodetic(eci_to_ecef(p, t, epoch))


def eci_to_lonlat(p: np.ndarray, t: datetime, epoch: datetime) -> tuple[list[float], list[float]]:
    """The longitudes and latitudes (degrees) of an (n, 3) batch of inertial
    positions at time t: the lon_deg and lat_deg of eci_to_geodetic's points,
    bit for bit, without building them. GeodeticPoint's longitude fold runs
    in numpy, whose remainder rounds as Python's does."""
    lat, lon, _ = _lat_lon(eci_to_ecef(np.asarray(p, dtype=float).reshape(-1, 3), t, epoch))
    lon %= 360.0
    lon[lon > 180.0] -= 360.0
    return lon.tolist(), lat.tolist()


def elevation_angle(
    ground: np.ndarray, sat: np.ndarray, counts: Sequence[int] | None = None
) -> np.ndarray | float:
    """Elevation (degrees) of sat above the local horizon at ground.

    Both positions must be expressed in the same frame. One observer sees
    every sat, vectorized over its leading axes; a group of observers sees
    sat in consecutive runs, observer i the next counts[i] rows. Each
    observer's rel @ g product is its own matrix-vector call over its own
    rows (BLAS gemv bits can depend on the row count), so an observer's
    elevations are those of a call for it alone; the rest is elementwise.

    Args:
        ground: (3,) position of one observer, or (m, 3) of a group; each
            must be nonzero.
        sat: (..., 3) positions of the observed objects; (n, 3) for a group.
        counts: for a group, m row counts summing to n.

    Returns:
        Elevation in degrees, scalar for a single sat, else an array. The
        first observer at the Earth's centre or with a coincident sat raises
        ValueError.
    """
    g = np.asarray(ground, dtype=float).reshape(-1, 3)
    s = np.asarray(sat, dtype=float)
    rows = s.reshape(-1, 3)
    counts = [rows.shape[0]] if counts is None else counts
    at = np.repeat(np.arange(g.shape[0]), counts)
    gn = np.sqrt(np.vecdot(g, g))  # a (3,) vector's np.linalg.norm, bit for bit
    rel = rows - g[at]
    rn = np.linalg.norm(rel, axis=-1)
    centre = gn == 0.0
    bad = centre | (np.bincount(at[rn == 0.0], minlength=g.shape[0]) > 0)
    if bad.any():
        if centre[bad.argmax()]:
            raise ValueError("observer at the Earth center has no horizon")
        raise ValueError("satellite coincides with the observer")
    bounds = np.cumsum([0, *counts]).tolist()
    dot = np.concatenate([np.zeros(0), *(rel[a:b] @ v for v, a, b in zip(g, bounds, bounds[1:]))])
    sin_el = dot / (rn * gn[at])
    el = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0))).reshape(s.shape[:-1])
    return float(el) if el.ndim == 0 else el


def link_equator_angle(link: np.ndarray) -> np.ndarray | float:
    """Angle (radians) between a link direction and the equatorial plane.

    Defined as pi/2 minus the angle to the +z axis, i.e. asin(z/|v|);
    the sign follows the z component. Zero-length links are rejected.
    """
    v = np.asarray(link, dtype=float)
    n = np.linalg.norm(v, axis=-1)
    if np.any(n == 0.0):
        raise ValueError("zero-length link has no direction")
    ang = np.arcsin(np.clip(v[..., 2] / n, -1.0, 1.0))
    return float(ang) if ang.ndim == 0 else ang


def central_angle(a: GeodeticPoint, b: GeodeticPoint) -> float:
    """Great-circle central angle (radians) between two surface points."""
    la, lb = math.radians(a.lat_deg), math.radians(b.lat_deg)
    dlat = lb - la
    dlon = math.radians(b.lon_deg - a.lon_deg)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(la) * math.cos(lb) * math.sin(dlon / 2.0) ** 2
    return 2.0 * math.asin(min(1.0, math.sqrt(h)))


def geodesic_distance(a: GeodeticPoint, b: GeodeticPoint) -> float:
    """Great-circle distance (km) at Earth surface radius; altitude ignored."""
    return EARTH_RADIUS_KM * central_angle(a, b)


def initial_bearing(a: GeodeticPoint, b: GeodeticPoint) -> float:
    """Initial great-circle bearing (degrees clockwise from north) a -> b."""
    la, lb = math.radians(a.lat_deg), math.radians(b.lat_deg)
    dlon = math.radians(b.lon_deg - a.lon_deg)
    y = math.sin(dlon) * math.cos(lb)
    x = math.cos(la) * math.sin(lb) - math.sin(la) * math.cos(lb) * math.cos(dlon)
    return math.degrees(math.atan2(y, x)) % 360.0


def great_circle_point(start: GeodeticPoint, bearing_deg: float, arc_km: float) -> GeodeticPoint:
    """Point reached after arc_km along the great circle with the given initial bearing."""
    d = arc_km / EARTH_RADIUS_KM
    la = math.radians(start.lat_deg)
    lo = math.radians(start.lon_deg)
    br = math.radians(bearing_deg)
    lat2 = math.asin(
        math.sin(la) * math.cos(d) + math.cos(la) * math.sin(d) * math.cos(br)
    )
    lon2 = lo + math.atan2(
        math.sin(br) * math.sin(d) * math.cos(la),
        math.cos(d) - math.sin(la) * math.sin(lat2),
    )
    return GeodeticPoint(math.degrees(lat2), math.degrees(lon2), start.alt_km)


def link_latency_ms(length_km: float | np.ndarray) -> float | np.ndarray:
    """One-way propagation latency (ms) of a link of the given length."""
    return length_km / SPEED_OF_LIGHT_KM_PER_S * 1000.0


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0, second: int = 0) -> datetime:
    """Convenience constructor for timezone-aware UTC datetimes."""
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)
