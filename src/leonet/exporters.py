"""Deterministic artifact writers: CSV tables and GeoJSON documents.

All floats are written with fixed six-decimal formatting and rows follow the
run's natural order, so re-running an identical scenario reproduces the
output byte for byte.
"""

from __future__ import annotations

import csv
import json
import weakref
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path as FsPath
from typing import Iterable, Sequence

import numpy as np

from .geometry import eci_to_geodetic, link_latency_ms
from .harness import (
    ExperimentResult,
    PathLogError,
    PathLogRow,
    index_path_log,
    snapshot_at,
)
from .metrics import ConnectionSeries, ConnectionSummary
from .scenario import Scenario, scenario_to_dict
from .topology import ISL_KIND_NAMES, KIND_GSL, KIND_MSL, EislStats, Snapshot

FORMAT_CSV = "csv"
FORMAT_GEOJSON = "geojson"
FORMATS = (FORMAT_CSV, FORMAT_GEOJSON)

_EDGE_BLOCK = 1024  # edges.csv rows formatted per batch


def _f(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _i(x: int | None) -> str:
    return "" if x is None else str(x)


def _t(t: datetime) -> str:
    return t.astimezone(timezone.utc).isoformat()


def _parse_t(text: str) -> datetime:
    return datetime.fromisoformat(text)


_PATH_COLUMNS = (
    "t",
    "algorithm",
    "src_station",
    "dst_station",
    "src_sat",
    "hop_list",
    "latency_ms",
    "hops",
    "status",
)


def write_paths_csv(rows: Sequence[PathLogRow], path: FsPath) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_PATH_COLUMNS)
        for r in rows:
            w.writerow(
                [
                    _t(r.t),
                    r.algorithm,
                    r.src_station,
                    r.dst_station,
                    r.src_sat,
                    "-".join(str(s) for s in r.hop_list),
                    _f(r.latency_ms),
                    r.hops,
                    r.status,
                ]
            )


def read_paths_csv(path: FsPath) -> list[PathLogRow]:
    """Read a path log; a malformed row raises PathLogError with its number."""
    rows: list[PathLogRow] = []
    with path.open(newline="") as fh:
        for n, rec in enumerate(csv.DictReader(fh), start=1):
            missing = [c for c in _PATH_COLUMNS if rec.get(c) is None]
            if missing:
                raise PathLogError(n, f"missing column(s) {', '.join(missing)}")
            try:
                rows.append(
                    PathLogRow(
                        t=_parse_t(rec["t"]),
                        algorithm=rec["algorithm"],
                        src_station=rec["src_station"],
                        dst_station=rec["dst_station"],
                        src_sat=int(rec["src_sat"]),
                        hop_list=tuple(int(s) for s in rec["hop_list"].split("-")),
                        latency_ms=float(rec["latency_ms"]),
                        hops=int(rec["hops"]),
                        status=rec["status"],
                    )
                )
            except ValueError as exc:
                raise PathLogError(n, str(exc)) from exc
    return rows


def write_metrics_csv(series: Sequence[ConnectionSeries], path: FsPath) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "t",
                "src_station",
                "dst_station",
                "algorithm",
                "covered_src",
                "covered_dst",
                "valid",
                "n_paths",
                "n_drops",
                "psi",
                "latency_min_ms",
                "latency_avg_ms",
                "latency_max_ms",
                "hops_min",
                "hops_avg",
                "hops_max",
                "gamma",
                "stretch_min",
                "stretch_avg",
                "stretch_max",
                "vertex_changes",
                "geodesic_km",
                "geodesic_latency_ms",
            ]
        )
        for s in series:
            for st in s.stamps:
                w.writerow(
                    [
                        _t(st.t),
                        s.src_ei,
                        s.dst_ei,
                        s.algorithm,
                        int(st.covered_src),
                        int(st.covered_dst),
                        int(st.valid),
                        st.n_paths,
                        st.n_drops,
                        _i(st.psi),
                        _f(st.latency_min_ms),
                        _f(st.latency_avg_ms),
                        _f(st.latency_max_ms),
                        _i(st.hops_min),
                        _f(st.hops_avg),
                        _i(st.hops_max),
                        _f(st.gamma),
                        _f(st.stretch_min),
                        _f(st.stretch_avg),
                        _f(st.stretch_max),
                        _i(st.vertex_changes),
                        _f(st.geodesic_km),
                        _f(st.geodesic_latency_ms),
                    ]
                )


def write_summary_csv(summaries: Sequence[ConnectionSummary], path: FsPath) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "src_station",
                "dst_station",
                "algorithm",
                "n_stamps",
                "n_valid",
                "n_invalid",
                "reachable_probability",
                "latency_min_ms",
                "latency_avg_ms",
                "latency_max_ms",
                "hops_min",
                "hops_avg",
                "hops_max",
                "gamma_median",
                "stretch_max",
                "frac_changes_le_20",
            ]
        )
        for s in summaries:
            w.writerow(
                [
                    s.src_ei,
                    s.dst_ei,
                    s.algorithm,
                    s.n_stamps,
                    s.n_valid,
                    s.n_invalid,
                    _f(s.reachable_probability),
                    _f(s.latency.minimum if s.latency else None),
                    _f(s.latency.average if s.latency else None),
                    _f(s.latency.maximum if s.latency else None),
                    _f(s.hops.minimum if s.hops else None),
                    _f(s.hops.average if s.hops else None),
                    _f(s.hops.maximum if s.hops else None),
                    _f(s.gamma_median),
                    _f(s.stretch_max),
                    _f(s.frac_changes_le_20),
                ]
            )


def write_cdf_csv(
    series: Sequence[ConnectionSeries],
    quantity: str,
    path: FsPath,
) -> None:
    """CDF of per-stamp values (averages for latency/hops, max for stretch)."""
    pick = {
        "latency": lambda st: st.latency_avg_ms,
        "hops": lambda st: st.hops_avg,
        "stretch": lambda st: st.stretch_max,
        "gamma": lambda st: st.gamma,
        "vertex_changes": lambda st: st.vertex_changes,
    }[quantity]
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src_station", "dst_station", "algorithm", "value", "cum_fraction"])
        for s in series:
            vals = sorted(
                float(v) for st in s.stamps if (v := pick(st)) is not None
            )
            n = len(vals)
            for i, v in enumerate(vals, start=1):
                w.writerow([s.src_ei, s.dst_ei, s.algorithm, _f(v), _f(i / n)])


def _link_rows(ts: str, ends, kinds, lengths: np.ndarray):
    latencies = link_latency_ms(lengths).tolist()
    return (
        [ts, a, b, kind, f"{length:.6f}", f"{latency:.6f}"]
        for (a, b), kind, length, latency in zip(ends, kinds, lengths.tolist(), latencies)
    )


def write_edges_csv(snapshots: Iterable[Snapshot], path: FsPath) -> None:
    """One row per link and stamp, in Snapshot.iter_links order, formatted
    from the snapshot arrays; persistent links go a block at a time, which
    bounds the Python lists alive at once."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "src", "dst", "kind", "length_km", "latency_ms"])
        for snap in snapshots:
            ts = _t(snap.t)
            for lo in range(0, snap.template.edge_count, _EDGE_BLOCK):
                part = slice(lo, lo + _EDGE_BLOCK)
                kinds = [ISL_KIND_NAMES[k] for k in snap.isl_kinds[part].tolist()]
                w.writerows(
                    _link_rows(ts, snap.isl_pairs[part].tolist(), kinds, snap.isl_lengths[part])
                )
            for i, st in enumerate(snap.stations):
                node = snap.station_node(i)
                ends = [(s, node) for s in snap.edge_sats[i].tolist()]
                kind = KIND_GSL if st.kind == "ground" else KIND_MSL
                w.writerows(_link_rows(ts, ends, repeat(kind), snap.edge_lengths[i]))


def write_direction_histogram_csv(hist: np.ndarray, path: FsPath) -> None:
    if hist.shape != (90,):
        raise ValueError("expected 90 one-degree bins")
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_start_deg", "bin_end_deg", "fraction"])
        for i, v in enumerate(hist):
            w.writerow([i, i + 1, f"{v:.9f}"])


def write_eisl_csv(stats: dict[float, EislStats], out_dir: FsPath) -> None:
    with (out_dir / "eisl_counts.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["l_h_km", "stamp", "count"])
        for r in sorted(stats):
            for i, c in enumerate(stats[r].per_stamp_counts):
                w.writerow([_f(r), i, c])
    with (out_dir / "eisl_episodes.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["l_h_km", "duration_s"])
        for r in sorted(stats):
            for d in stats[r].episode_durations_s:
                w.writerow([_f(r), _f(d)])


# -- GeoJSON -------------------------------------------------------------------


def _geo(obj: dict, path: FsPath) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


# rounded (lon, lat) sub-points per snapshot, dropped with the snapshot
_LONLAT: weakref.WeakKeyDictionary[Snapshot, dict[int, tuple[float, float]]] = (
    weakref.WeakKeyDictionary()
)


def _sat_lonlat(snap: Snapshot, sat: int) -> list[float]:
    """A satellite's rounded sub-point, converted once per snapshot."""
    memo = _LONLAT.setdefault(snap, {})
    point = memo.get(sat)
    if point is None:
        g = eci_to_geodetic(snap.sat_positions[sat], snap.t, snap.constellation.config.epoch)
        point = memo[sat] = (round(g.lon_deg, 6), round(g.lat_deg, 6))
    return list(point)


def snapshot_nodes_geojson(snap: Snapshot) -> dict:
    feats = []
    for s in range(snap.sat_count):
        feats.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": _sat_lonlat(snap, s)},
                "properties": {"id": s, "kind": "satellite"},
            }
        )
    for i, st in enumerate(snap.stations):
        g = snap.station_geodetic[i]
        feats.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [round(g.lon_deg, 6), round(g.lat_deg, 6)],
                },
                "properties": {"id": snap.station_node(i), "kind": st.kind, "name": st.name},
            }
        )
    return {"type": "FeatureCollection", "features": feats}


def snapshot_links_geojson(snap: Snapshot) -> dict:
    feats = []
    for link in snap.iter_links():
        coords = []
        for node in (link.node_a, link.node_b):
            if node < snap.sat_count:
                coords.append(_sat_lonlat(snap, node))
            else:
                g = snap.station_geodetic[node - snap.sat_count]
                coords.append([round(g.lon_deg, 6), round(g.lat_deg, 6)])
        feats.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {
                    "kind": link.kind,
                    "length_km": round(link.length_km, 3),
                    "latency_ms": round(link.latency_ms, 6),
                },
            }
        )
    return {"type": "FeatureCollection", "features": feats}


def path_geojson(snap: Snapshot, row: PathLogRow) -> dict:
    """A delivered path as a LineString of satellite subpoints.

    The hop_count property equals the vertex count minus one.
    """
    coords = [_sat_lonlat(snap, s) for s in row.hop_list]
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coords},
        "properties": {
            "t": _t(row.t),
            "algorithm": row.algorithm,
            "src_station": row.src_station,
            "dst_station": row.dst_station,
            "hop_count": len(coords) - 1,
            "latency_ms": round(row.latency_ms, 6),
            "status": row.status,
        },
    }


def paths_geojson(scenario: Scenario, rows: Sequence[PathLogRow]) -> dict:
    """All delivered log rows as LineString features (snapshots rebuilt per
    stamp). A row that does not fit the scenario raises PathLogError."""
    snapshot_of = snapshot_at(scenario)
    cache: dict[datetime, Snapshot] = {}
    feats = []
    for _, _, r in index_path_log(scenario, rows):
        if r.status != "delivered":
            continue
        snap = cache.get(r.t)
        if snap is None:
            snap = cache[r.t] = snapshot_of(r.t)
        feats.append(path_geojson(snap, r))
    return {"type": "FeatureCollection", "features": feats}


# -- top-level export ----------------------------------------------------------


def export_result(
    result: ExperimentResult, fmt: str, out_dir: FsPath
) -> list[FsPath]:
    """Write the run artifacts; returns the file list.

    CSV is always written (paths, per-stamp metrics, per-connection summary,
    CDF tables, run metadata); the geojson format additionally renders the
    delivered paths.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[FsPath] = []

    def out(name: str) -> FsPath:
        p = out_dir / name
        written.append(p)
        return p

    write_paths_csv(result.path_rows, out("paths.csv"))
    write_metrics_csv(result.series, out("metrics.csv"))
    write_summary_csv(result.summaries, out("summary.csv"))
    for q in ("latency", "hops", "stretch"):
        write_cdf_csv(result.series, q, out(f"{q}_cdf.csv"))
    meta = scenario_to_dict(result.scenario)
    meta["failures"] = [[_t(t), msg] for t, msg in result.failures]
    out("metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if fmt == FORMAT_GEOJSON:
        _geo(paths_geojson(result.scenario, result.path_rows), out("paths.geojson"))
    return written
