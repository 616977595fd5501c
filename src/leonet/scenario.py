"""Scenario files: the single run description consumed by the harness.

A scenario is a JSON object with blocks:

  constellation: {N, P, F, altitude_km, inclination_deg, epoch}
  pattern:       {grid: "+Grid"|"*Grid", bias: [-1] | [0] | [-1, 0]}
  time:          {start, step_s, count}
  stations:      [{name, kind: "ground"|"mobile", ...placement...}, ...]
  connections:   [[src_name, dst_name], ...]
  algorithms:    ["mplf-cpi", "mplf-nfp", "sp", "lh"] (any subset)
  elevation_min_deg: number
  eisl:          {L_h_km: number}   (optional)

Ground stations carry lat_deg/lon_deg (alt_km optional); mobile stations
carry a trajectory {start: {lat_deg, lon_deg}, end: {...}, speed_kms,
start_time (optional, default time.start)} and wait at its start until
start_time. A station's ei defaults to its name and may not be another
station's name. Timestamps are ISO 8601 UTC. A phase factor equal to the
plane count is accepted and normalized to zero (the generated satellite sets
coincide).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path as FsPath
from typing import Any

from .constellation import ConstellationConfig, TimeGrid
from .geometry import (
    GeodeticPoint,
    central_angle,
    geodesic_distance,
    great_circle_point,
    initial_bearing,
)
from .routing import ALGORITHMS
from .topology import FixedPosition, IslPattern, Station, self_link_parameter

_ANTIPODAL_TOL_RAD = 1e-9


class ScenarioError(ValueError):
    """Scenario validation failure; the message names the offending field."""


@dataclass(frozen=True)
class Trajectory:
    """Constant-speed great-circle track between two surface points.

    The track follows the minor arc; for antipodal endpoints, where the
    great circle is underdetermined, the circle with initial bearing due
    east is used. The position clamps at the end point once the full arc
    has been flown. The arc length and the initial bearing are derived once,
    on first use.
    """

    start: GeodeticPoint
    end: GeodeticPoint
    speed_km_s: float

    def __post_init__(self) -> None:
        if self.speed_km_s <= 0:
            raise ValueError("speed must be positive")

    @cached_property
    def arc_km(self) -> float:
        return geodesic_distance(self.start, self.end)

    @cached_property
    def bearing_deg(self) -> float:
        if math.pi - central_angle(self.start, self.end) < _ANTIPODAL_TOL_RAD:
            return 90.0
        return initial_bearing(self.start, self.end)

    def position_after(self, elapsed_s: float) -> GeodeticPoint:
        if elapsed_s < 0:
            raise ValueError("elapsed time is negative")
        s = min(self.speed_km_s * elapsed_s, self.arc_km)
        return great_circle_point(self.start, self.bearing_deg, s)


@dataclass(frozen=True)
class TrajectoryProvider:
    """Adapts a trajectory and its reference start time to station placement.

    The station waits at the track's start point until start_time, as it
    stays at the end point once the track is flown.
    """

    trajectory: Trajectory
    start_time: datetime

    def position_at(self, t: datetime) -> GeodeticPoint:
        return self.trajectory.position_after(max((t - self.start_time).total_seconds(), 0.0))


@dataclass(frozen=True)
class Scenario:
    name: str
    constellation: ConstellationConfig
    pattern: IslPattern
    time: TimeGrid
    stations: tuple[Station, ...]
    connections: tuple[tuple[str, str], ...]
    algorithms: tuple[str, ...]
    elevation_min_deg: float
    eisl_l_h_km: float | None


def _parse_utc(raw: Any, path: str) -> datetime:
    if not isinstance(raw, str):
        raise ScenarioError(f"{path}: expected an ISO 8601 string")
    text = raw.replace("Z", "+00:00") if raw.endswith("Z") else raw
    try:
        t = datetime.fromisoformat(text)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


@contextmanager
def _block_errors(path: str):
    """Prefix a block's plain ValueError with its path; a ScenarioError passes."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: missing required field")
    return obj[key]


def _number(obj: dict, key: str, path: str) -> float:
    v = _require(obj, key, path)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ScenarioError(f"{path}.{key}: expected a finite number")
    return float(v)


def _integer(obj: dict, key: str, path: str) -> int:
    v = _require(obj, key, path)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}: expected an integer")
    return v


def _block(root: dict, key: str) -> dict:
    v = _require(root, key, "scenario")
    if not isinstance(v, dict):
        raise ScenarioError(f"scenario.{key}: expected an object")
    return v


def _station_from_dict(raw: Any, path: str, default_start: datetime) -> Station:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: expected an object")
    name = _require(raw, "name", path)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{path}.name: expected a non-empty string")
    kind = _require(raw, "kind", path)
    ei = raw.get("ei", name)
    if not isinstance(ei, str) or not ei:
        raise ScenarioError(f"{path}.ei: expected a non-empty string")
    if kind == "ground":
        point = GeodeticPoint(
            _number(raw, "lat_deg", path),
            _number(raw, "lon_deg", path),
            _number(raw, "alt_km", path) if "alt_km" in raw else 0.0,
        )
        return Station(name=name, ei=ei, kind="ground", provider=FixedPosition(point))
    if kind == "mobile":
        tr = _require(raw, "trajectory", path)
        if not isinstance(tr, dict):
            raise ScenarioError(f"{path}.trajectory: expected an object")
        tpath = f"{path}.trajectory"

        def endpoint(key: str) -> GeodeticPoint:
            ep = _require(tr, key, tpath)
            if not isinstance(ep, dict):
                raise ScenarioError(f"{tpath}.{key}: expected an object")
            return GeodeticPoint(
                _number(ep, "lat_deg", f"{tpath}.{key}"),
                _number(ep, "lon_deg", f"{tpath}.{key}"),
            )

        traj = Trajectory(
            start=endpoint("start"),
            end=endpoint("end"),
            speed_km_s=_number(tr, "speed_kms", tpath),
        )
        start_time = (
            _parse_utc(tr["start_time"], f"{tpath}.start_time")
            if "start_time" in tr
            else default_start
        )
        return Station(
            name=name, ei=ei, kind="mobile", provider=TrajectoryProvider(traj, start_time)
        )
    raise ScenarioError(f"{path}.kind: expected 'ground' or 'mobile', got {kind!r}")


def scenario_from_dict(root: Any, name: str = "scenario") -> Scenario:
    if not isinstance(root, dict):
        raise ScenarioError("scenario: top level must be an object")

    c = _block(root, "constellation")
    planes = _integer(c, "P", "constellation")
    phase = _integer(c, "F", "constellation")
    if planes >= 1 and phase == planes:
        phase = 0  # same satellite set; canonical form
    with _block_errors("constellation"):
        config = ConstellationConfig(
            sats_per_plane=_integer(c, "N", "constellation"),
            planes=planes,
            phase_factor=phase,
            altitude_km=_number(c, "altitude_km", "constellation"),
            inclination_deg=_number(c, "inclination_deg", "constellation"),
            epoch=_parse_utc(_require(c, "epoch", "constellation"), "constellation.epoch"),
        )

    p = _block(root, "pattern")
    bias_raw = _require(p, "bias", "pattern")
    if not isinstance(bias_raw, list) or not all(
        isinstance(b, int) and not isinstance(b, bool) for b in bias_raw
    ):
        raise ScenarioError("pattern.bias: expected a list of integers")
    with _block_errors("pattern"):
        pattern = IslPattern(grid=_require(p, "grid", "pattern"), bias=tuple(bias_raw))
    fault = self_link_parameter(config.sats_per_plane, config.planes, pattern)
    if fault is not None:
        block = "constellation" if fault == "N" else "pattern"
        raise ScenarioError(f"{block}.{fault}: the persistent links join a satellite to itself")

    tm = _block(root, "time")
    with _block_errors("time"):
        grid = TimeGrid(
            start=_parse_utc(_require(tm, "start", "time"), "time.start"),
            step_s=_number(tm, "step_s", "time"),
            count=_integer(tm, "count", "time"),
        )
    if grid.start < config.epoch:
        raise ScenarioError("time.start: precedes the constellation epoch")

    st_raw = _require(root, "stations", "scenario")
    if not isinstance(st_raw, list):
        raise ScenarioError("scenario.stations: expected a list")
    stations = []
    for i, s in enumerate(st_raw):
        with _block_errors(f"stations[{i}]"):  # a point or track outside its domain
            stations.append(_station_from_dict(s, f"stations[{i}]", grid.start))
    names = [s.name for s in stations]
    if len(set(names)) != len(names):
        raise ScenarioError("scenario.stations: station names must be unique")
    eis = [s.ei for s in stations]
    if len(set(eis)) != len(eis):
        raise ScenarioError("scenario.stations: station EIs must be unique")
    for i, ei in enumerate(eis):  # names (connections) and EIs (path log) must not collide
        if ei in names and names.index(ei) != i:
            j = names.index(ei)
            raise ScenarioError(f"stations[{i}].ei: {ei!r} is the name of stations[{j}]")

    conn_raw = _require(root, "connections", "scenario")
    if not isinstance(conn_raw, list) or not conn_raw:
        raise ScenarioError("scenario.connections: expected a non-empty list")
    connections: list[tuple[str, str]] = []
    for i, pair in enumerate(conn_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"connections[{i}]: expected a [src, dst] pair")
        src, dst = pair
        for end in (src, dst):
            if end not in names:
                raise ScenarioError(f"connections[{i}]: unknown station {end!r}")
        if src == dst:
            raise ScenarioError(f"connections[{i}]: src and dst must differ")
        if (src, dst) in connections:
            j = connections.index((src, dst))
            raise ScenarioError(f"connections[{i}]: repeats connections[{j}]")
        connections.append((src, dst))

    algo_raw = _require(root, "algorithms", "scenario")
    if not isinstance(algo_raw, list) or not algo_raw:
        raise ScenarioError("scenario.algorithms: expected a non-empty list")
    for i, a in enumerate(algo_raw):
        if a not in ALGORITHMS:
            raise ScenarioError(
                f"algorithms[{i}]: unknown algorithm {a!r}, expected one of {ALGORITHMS}"
            )
        if a in algo_raw[:i]:
            raise ScenarioError(f"algorithms[{i}]: repeats algorithms[{algo_raw.index(a)}]")

    elev = _number(root, "elevation_min_deg", "scenario")
    if not 0.0 <= elev < 90.0:
        raise ScenarioError("scenario.elevation_min_deg: outside [0, 90)")

    l_h = None
    if "eisl" in root:
        e = _block(root, "eisl")
        l_h = _number(e, "L_h_km", "eisl")
        if l_h <= 0:
            raise ScenarioError("eisl.L_h_km: must be positive")

    return Scenario(
        name=str(root.get("name", name)),
        constellation=config,
        pattern=pattern,
        time=grid,
        stations=tuple(stations),
        connections=tuple(connections),
        algorithms=tuple(algo_raw),
        elevation_min_deg=elev,
        eisl_l_h_km=l_h,
    )


def load_scenario(path: str | FsPath) -> Scenario:
    """Parse and validate a scenario file; errors name the offending field."""
    p = FsPath(path)
    try:
        root = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: not valid JSON: {exc}") from exc
    return scenario_from_dict(root, name=p.stem)


def scenario_to_dict(s: Scenario) -> dict:
    """Normalized echo of a scenario, suitable for run metadata."""
    stations = []
    for st in s.stations:
        entry: dict[str, Any] = {"name": st.name, "ei": st.ei, "kind": st.kind}
        if isinstance(st.provider, FixedPosition):
            pt = st.provider.point
            entry.update(lat_deg=pt.lat_deg, lon_deg=pt.lon_deg, alt_km=pt.alt_km)
        elif isinstance(st.provider, TrajectoryProvider):
            tr = st.provider.trajectory
            entry["trajectory"] = {
                "start": {"lat_deg": tr.start.lat_deg, "lon_deg": tr.start.lon_deg},
                "end": {"lat_deg": tr.end.lat_deg, "lon_deg": tr.end.lon_deg},
                "speed_kms": tr.speed_km_s,
                "start_time": st.provider.start_time.isoformat(),
                "arc_km": tr.arc_km,
            }
        stations.append(entry)
    return {
        "name": s.name,
        "constellation": {
            "N": s.constellation.sats_per_plane,
            "P": s.constellation.planes,
            "F": s.constellation.phase_factor,
            "altitude_km": s.constellation.altitude_km,
            "inclination_deg": s.constellation.inclination_deg,
            "epoch": s.constellation.epoch.isoformat(),
        },
        "pattern": {"grid": s.pattern.grid, "bias": list(s.pattern.bias)},
        "time": {
            "start": s.time.start.isoformat(),
            "step_s": s.time.step_s,
            "count": s.time.count,
        },
        "stations": stations,
        "connections": [list(c) for c in s.connections],
        "algorithms": list(s.algorithms),
        "elevation_min_deg": s.elevation_min_deg,
        "eisl": {"L_h_km": s.eisl_l_h_km} if s.eisl_l_h_km is not None else None,
        "conventions": {
            "edge_links_in_latency": True,
            "earth_model": "sphere R=6371 km",
            "frames": "ECEF/ECI z-rotation from epoch",
        },
    }
