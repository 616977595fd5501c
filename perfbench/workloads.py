"""Seeded scenario generation for the three benchmark workloads.

Every workload runs on the shipped 40x40 shell (53 deg, 550 km, F=0, 10 s
step, 40 deg minimum elevation). Stations are drawn from ``random.Random``
seeded with the workload seed, inside the covered band |lat| <= 50 deg, so the
same seed always yields byte-identical scenario JSON.

The work of a run follows how many satellites each station sees (one exact
baseline per source satellite, one greedy trace per source satellite) and how
far its paths go, and the satellite count rises steeply with |lat| on a 53 deg
shell. So that the seed moves the stations without moving the amount of work,
candidate stations are drawn until an independent model of the shell
(``Sky``) puts their work within a fixed window: the input size is fixed, its
layout is random.
"""

from __future__ import annotations

import functools
import json
import math
import random

import numpy as np

WORKLOADS = ("static-baselines", "mobile-greedy", "replay-artifacts")
DEFAULT_SEED = 1

LAT_BAND_DEG = 50.0
EARTH_RADIUS_KM = 6371.0
LONG_HAUL_KM = (5000.0, 9000.0)  # great-circle length of every connection
EISL_L_H_KM = 500.0

# Stamp counts are sized so that one pass of a workload's commands takes a
# few seconds on a 2-core box: a run then holds several passes and reports
# their median.
STATIC_STAMPS = 12
STATIC_GROUND_STATIONS = 4
# per stamp, summed over the three connections: source satellites, and the
# fewest template hops summed over (source, destination satellite) pairs
STATIC_SOURCES = 10.0
STATIC_PAIR_HOPS = 700.0
STATIC_TOLERANCE = 0.03

MOBILE_STAMPS = 40
MOBILE_AIRCRAFT = 11
AIRCRAFT_SPEED_KMS = (5.5, 10.1)
# per aircraft and stamp: visible satellites, and the fewest template hops
# from each of them to a satellite the hub sees, summed
AIRCRAFT_SOURCES = 3.0
AIRCRAFT_SOURCE_HOPS = 36.0
AIRCRAFT_TOLERANCE = 0.15
MOBILE_MODEL_STRIDE = 4  # the model samples every 4th stamp of a track

_SHELL = {
    "N": 40,
    "P": 40,
    "F": 0,
    "altitude_km": 550.0,
    "inclination_deg": 53.0,
    "epoch": "2025-01-01T00:00:00Z",
}
_START = "2025-01-01T01:00:00Z"
_START_AFTER_EPOCH_S = 3600.0
_STEP_S = 10.0
_ELEVATION_MIN_DEG = 40.0


class Sky:
    """Independent model of the shell, used only to size workloads: how many
    satellites a surface point sees at each sampled stamp (circular Walker
    orbits, spherical rotating Earth, 40 deg minimum elevation)."""

    MU_KM3_S2 = 398600.4418
    EARTH_ROTATION_RAD_S = 7.2921159e-5

    def __init__(self, count: int, stride: int = 1) -> None:
        n, p = _SHELL["N"], _SHELL["P"]
        a = EARTH_RADIUS_KM + _SHELL["altitude_km"]
        inc = math.radians(_SHELL["inclination_deg"])
        raan = np.repeat(2.0 * math.pi * np.arange(p) / p, n)
        u0 = np.tile(2.0 * math.pi * np.arange(n) / n, p)
        self.elapsed = _STEP_S * np.arange(0, count, stride)
        t = _START_AFTER_EPOCH_S + self.elapsed
        u = u0[None, :] + math.sqrt(self.MU_KM3_S2 / a**3) * t[:, None]
        p_axis = np.stack([np.cos(raan), np.sin(raan), np.zeros_like(raan)], axis=1)
        q_axis = np.stack(
            [-np.sin(raan) * math.cos(inc), np.cos(raan) * math.cos(inc),
             np.full_like(raan, math.sin(inc))], axis=1,
        )
        self.sats = np.cos(u)[..., None] * p_axis + np.sin(u)[..., None] * q_axis  # unit vectors
        self.rotation = self.EARTH_ROTATION_RAD_S * t
        # a satellite is above the minimum elevation when its central angle to
        # the point is below lam
        elev = math.radians(_ELEVATION_MIN_DEG)
        lam = math.acos(EARTH_RADIUS_KM / a * math.cos(elev)) - elev
        self.cos_lam = math.cos(lam)

    def visible(self, lat_deg, lon_deg) -> np.ndarray:
        """(sampled stamp, point, satellite) mask of the satellites each point
        sees; lat and lon are per point, or per sampled stamp and point."""
        shape = (len(self.rotation), np.shape(lat_deg)[-1])
        lat = np.radians(np.broadcast_to(lat_deg, shape))
        lon = np.radians(np.broadcast_to(lon_deg, shape)) + self.rotation[:, None]
        g = np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=2)
        return np.matmul(g, self.sats.transpose(0, 2, 1)) >= self.cos_lam


@functools.cache
def _hop_table(grid: str) -> np.ndarray:
    """Fewest template hops for each (plane, slot) offset on the F=0 torus:
    +Grid links (plane, slot +-1) and (plane +-1, slot); *Grid adds the
    (plane +1, slot -1) diagonal."""
    n, p = _SHELL["N"], _SHELL["P"]
    dp, ds = np.meshgrid(np.arange(p), np.arange(n), indexing="ij")
    best = None
    for wp in (dp, dp - p):
        for ws in (ds, ds - n):
            h = np.abs(wp) + np.abs(ws)
            if grid == "*Grid":  # the diagonal shortens moves whose steps differ in sign
                h = np.where(wp * ws < 0, np.maximum(np.abs(wp), np.abs(ws)), h)
            best = h if best is None else np.minimum(best, h)
    return best


def grid_hops(a: np.ndarray, b: np.ndarray, grid: str) -> np.ndarray:
    """Fewest template hops between satellites a[i] and b[j] (plane-major)."""
    n = _SHELL["N"]
    return _hop_table(grid)[(b[None, :] // n - a[:, None] // n) % _SHELL["P"],
                            (b[None, :] % n - a[:, None] % n) % n]


def _point(rng: random.Random) -> dict:
    return {
        "lat_deg": round(rng.uniform(-LAT_BAND_DEG, LAT_BAND_DEG), 4),
        "lon_deg": round(rng.uniform(-180.0, 180.0), 4),
    }


def _arc(lat1, lon1, lat2, lon2):
    """Great-circle distance in km; numpy-vectorized."""
    la1, lo1, la2, lo2 = (np.radians(x) for x in (lat1, lon1, lat2, lon2))
    c = np.sin(la1) * np.sin(la2) + np.cos(la1) * np.cos(la2) * np.cos(lo2 - lo1)
    return EARTH_RADIUS_KM * np.arccos(np.clip(c, -1.0, 1.0))


def _arc_km(a: dict, b: dict) -> float:
    return float(_arc(a["lat_deg"], a["lon_deg"], b["lat_deg"], b["lon_deg"]))


def _long_haul(a: dict, b: dict) -> bool:
    return LONG_HAUL_KM[0] <= _arc_km(a, b) <= LONG_HAUL_KM[1]


def _near(value: float, target: float, tolerance: float) -> bool:
    return abs(value - target) <= tolerance * target


def _track(tr: dict, elapsed_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lon) in degrees along a constant-speed great-circle track that
    stops at its end point."""
    la1, lo1 = math.radians(tr["start"]["lat_deg"]), math.radians(tr["start"]["lon_deg"])
    la2, lo2 = math.radians(tr["end"]["lat_deg"]), math.radians(tr["end"]["lon_deg"])
    bearing = math.atan2(
        math.sin(lo2 - lo1) * math.cos(la2),
        math.cos(la1) * math.sin(la2) - math.sin(la1) * math.cos(la2) * math.cos(lo2 - lo1),
    )
    d = np.minimum(tr["speed_kms"] * elapsed_s, _arc_km(tr["start"], tr["end"])) / EARTH_RADIUS_KM
    lat = np.arcsin(math.sin(la1) * np.cos(d) + math.cos(la1) * np.sin(d) * math.cos(bearing))
    lon = lo1 + np.arctan2(
        math.sin(bearing) * np.sin(d) * math.cos(la1), np.cos(d) - math.sin(la1) * np.sin(lat)
    )
    return np.degrees(lat), np.degrees(lon)


def _base(name: str, grid: str, bias: list[int], count: int) -> dict:
    return {
        "name": name,
        "constellation": dict(_SHELL),
        "pattern": {"grid": grid, "bias": bias},
        "time": {"start": _START, "step_s": _STEP_S, "count": count},
        "elevation_min_deg": _ELEVATION_MIN_DEG,
    }


def static_baselines(seed: int) -> dict:
    """+Grid, four ground stations chained by three long-haul connections,
    all four algorithms. The exact baselines dominate the run."""
    rng = random.Random(f"static-baselines:{seed}")
    sky = Sky(STATIC_STAMPS)
    while True:
        points = [_point(rng)]
        while len(points) < STATIC_GROUND_STATIONS:
            p = _point(rng)
            if _long_haul(points[-1], p):
                points.append(p)
        seen = sky.visible([p["lat_deg"] for p in points], [p["lon_deg"] for p in points])
        sources = seen[:, :-1].sum() / len(seen)
        if not _near(sources, STATIC_SOURCES, STATIC_TOLERANCE):
            continue
        pair_hops = sum(
            grid_hops(np.flatnonzero(at[i]), np.flatnonzero(at[i + 1]), "+Grid").sum()
            for at in seen for i in range(len(points) - 1)
        ) / len(seen)
        if _near(pair_hops, STATIC_PAIR_HOPS, STATIC_TOLERANCE):
            break
    sc = _base(f"static-baselines-{seed}", "+Grid", [0], STATIC_STAMPS)
    sc["stations"] = [{"name": f"GS{i}", "kind": "ground", **p} for i, p in enumerate(points)]
    sc["connections"] = [[f"GS{i}", f"GS{i + 1}"] for i in range(STATIC_GROUND_STATIONS - 1)]
    sc["algorithms"] = ["mplf-cpi", "mplf-nfp", "sp", "lh"]
    sc["eisl"] = {"L_h_km": EISL_L_H_KM}
    return sc


def mobile_greedy(seed: int) -> dict:
    """*Grid (six neighbours), eleven aircraft tracks into one ground hub,
    greedy algorithms only. Greedy traces and snapshots dominate."""
    rng = random.Random(f"mobile-greedy:{seed}")
    sky = Sky(MOBILE_STAMPS, MOBILE_MODEL_STRIDE)
    hub = _point(rng)
    hub_sees = sky.visible([hub["lat_deg"]], [hub["lon_deg"]])[:, 0]
    stations = [{"name": "HUB", "kind": "ground", **hub}]
    while len(stations) <= MOBILE_AIRCRAFT:
        start, end = _point(rng), _point(rng)
        if not _long_haul(start, end):
            continue
        tr = {"start": start, "end": end,
              "speed_kms": round(rng.uniform(*AIRCRAFT_SPEED_KMS), 3)}
        lat, lon = _track(tr, sky.elapsed)
        src = sky.visible(lat[:, None], lon[:, None])[:, 0]
        if not _near(src.sum() / len(src), AIRCRAFT_SOURCES, AIRCRAFT_TOLERANCE):
            continue
        hops = [
            grid_hops(np.flatnonzero(s_t), np.flatnonzero(d_t), "*Grid").min(axis=1).sum()
            if d_t.any() else 0 for s_t, d_t in zip(src, hub_sees)
        ]
        if _near(float(np.mean(hops)), AIRCRAFT_SOURCE_HOPS, AIRCRAFT_TOLERANCE):
            stations.append({"name": f"AC{len(stations) - 1:02d}", "kind": "mobile",
                             "trajectory": tr})
    sc = _base(f"mobile-greedy-{seed}", "*Grid", [-1, 0], MOBILE_STAMPS)
    sc["stations"] = stations
    sc["connections"] = [[f"AC{i:02d}", "HUB"] for i in range(MOBILE_AIRCRAFT)]
    sc["algorithms"] = ["mplf-cpi", "mplf-nfp"]
    return sc


def scenario(workload: str, seed: int) -> dict:
    """Scenario object for a workload. replay-artifacts reads the log that
    the static-baselines scenario of the same seed produces."""
    if workload in ("static-baselines", "replay-artifacts"):
        return static_baselines(seed)
    if workload == "mobile-greedy":
        return mobile_greedy(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def scenario_json(workload: str, seed: int) -> str:
    return json.dumps(scenario(workload, seed), indent=2, sort_keys=True) + "\n"
