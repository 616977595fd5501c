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
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path as FsPath
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .geometry import eci_to_geodetic, link_latency_ms
from .harness import (
    ExperimentResult,
    PathLogError,
    PathLogRow,
    _path_sets,
    check_attachment,
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


def _write_csv(path: FsPath, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _formatter(columns: dict[str, Callable]) -> Callable[[object], list]:
    """A row of the named attributes, each through its column's formatter."""
    get, fmts = attrgetter(*columns), tuple(columns.values())
    return lambda obj: [f(v) for f, v in zip(fmts, get(obj))]


# path log: PathLogRow field -> (format, parse), in file order
_PATH_LOG = {
    "t": (_t, datetime.fromisoformat),
    "algorithm": (str, str),
    "src_station": (str, str),
    "dst_station": (str, str),
    "src_sat": (str, int),
    "hop_list": (
        lambda hops: "-".join(str(s) for s in hops),
        lambda text: tuple(int(s) for s in text.split("-")),
    ),
    "latency_ms": (_f, float),
    "hops": (str, int),
    "status": (str, str),
}

# the columns naming a series, after metrics.csv's t and first in the others
_SERIES_COLUMNS = ("src_station", "dst_station", "algorithm")

# metrics.csv after t and the series columns: StampStats attribute -> format
_STAMP_COLUMNS = {
    "covered_src": int,
    "covered_dst": int,
    "valid": int,
    "n_paths": _i,
    "n_drops": _i,
    "psi": _i,
    "latency_min_ms": _f,
    "latency_avg_ms": _f,
    "latency_max_ms": _f,
    "hops_min": _i,
    "hops_avg": _f,
    "hops_max": _i,
    "gamma": _f,
    "stretch_min": _f,
    "stretch_avg": _f,
    "stretch_max": _f,
    "vertex_changes": _i,
    "geodesic_km": _f,
    "geodesic_latency_ms": _f,
}

# summary.csv after the series columns: column -> cell of a ConnectionSummary,
# whose latency and hops are None when the series has no valid stamp
_SUMMARY_COLUMNS = {
    "n_stamps": lambda s: s.n_stamps,
    "n_valid": lambda s: s.n_valid,
    "n_invalid": lambda s: s.n_invalid,
    "reachable_probability": lambda s: _f(s.reachable_probability),
    "latency_min_ms": lambda s: _f(s.latency and s.latency.minimum),
    "latency_avg_ms": lambda s: _f(s.latency and s.latency.average),
    "latency_max_ms": lambda s: _f(s.latency and s.latency.maximum),
    "hops_min": lambda s: _f(s.hops and s.hops.minimum),
    "hops_avg": lambda s: _f(s.hops and s.hops.average),
    "hops_max": lambda s: _f(s.hops and s.hops.maximum),
    "gamma_median": lambda s: _f(s.gamma_median),
    "stretch_max": lambda s: _f(s.stretch_max),
    "frac_changes_le_20": lambda s: _f(s.frac_changes_le_20),
}

# CDF quantity -> the per-stamp value it takes (averages, max for stretch)
_CDF_VALUES = {"latency": "latency_avg_ms", "hops": "hops_avg", "stretch": "stretch_max"}


def write_paths_csv(rows: Sequence[PathLogRow], path: FsPath) -> None:
    row = _formatter({c: fmt for c, (fmt, _) in _PATH_LOG.items()})
    _write_csv(path, tuple(_PATH_LOG), map(row, rows))


def read_paths_csv(path: FsPath) -> list[PathLogRow]:
    """Read a path log; a malformed row, or one with more cells than the
    header, raises PathLogError with its number, and a header that lacks a
    column (an empty file has none) with row 0."""
    rows: list[PathLogRow] = []
    parsers = [(c, parse) for c, (_, parse) in _PATH_LOG.items()]
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _PATH_LOG if c not in (reader.fieldnames or ())]
        if missing:
            raise PathLogError(0, f"missing column(s) {', '.join(missing)}")
        for n, rec in enumerate(reader, start=1):
            missing = [c for c in _PATH_LOG if rec.get(c) is None]
            if missing:
                raise PathLogError(n, f"missing column(s) {', '.join(missing)}")
            if None in rec:  # DictReader files the cells beyond the header here
                raise PathLogError(n, f"{len(rec[None])} cell(s) beyond the header")
            try:
                rows.append(PathLogRow(**{c: parse(rec[c]) for c, parse in parsers}))
            except ValueError as exc:
                raise PathLogError(n, str(exc)) from exc
    return rows


def write_metrics_csv(series: Sequence[ConnectionSeries], path: FsPath) -> None:
    stamp = _formatter(_STAMP_COLUMNS)
    rows = (
        [_t(st.t), s.src_ei, s.dst_ei, s.algorithm, *stamp(st)] for s in series for st in s.stamps
    )
    _write_csv(path, ("t", *_SERIES_COLUMNS, *_STAMP_COLUMNS), rows)


def write_summary_csv(summaries: Sequence[ConnectionSummary], path: FsPath) -> None:
    cells = tuple(_SUMMARY_COLUMNS.values())
    rows = ([s.src_ei, s.dst_ei, s.algorithm, *(c(s) for c in cells)] for s in summaries)
    _write_csv(path, (*_SERIES_COLUMNS, *_SUMMARY_COLUMNS), rows)


def write_cdf_csv(series: Sequence[ConnectionSeries], quantity: str, path: FsPath) -> None:
    """CDF of per-stamp values (averages for latency/hops, max for stretch)."""
    pick = attrgetter(_CDF_VALUES[quantity])

    def rows(s: ConnectionSeries):
        vals = sorted(float(v) for st in s.stamps if (v := pick(st)) is not None)
        n = len(vals)
        return ([s.src_ei, s.dst_ei, s.algorithm, _f(v), _f(i / n)] for i, v in enumerate(vals, 1))

    header = (*_SERIES_COLUMNS, "value", "cum_fraction")
    _write_csv(path, header, chain.from_iterable(map(rows, series)))


def _links(snap: Snapshot) -> Iterator[tuple[list, Iterable[str], list, list]]:
    """A snapshot's links in blocks of parallel columns (ends, kinds,
    lengths_km, latencies_ms): its persistent links in template order,
    _EDGE_BLOCK at a time, then each station's edge links, station by
    station. Ends are snapshot node ids; blocks bound the Python lists alive
    at once."""

    def block(ends: list, kinds: Iterable[str], lengths: np.ndarray):
        return ends, kinds, lengths.tolist(), link_latency_ms(lengths).tolist()

    for lo in range(0, snap.template.edge_count, _EDGE_BLOCK):
        part = slice(lo, lo + _EDGE_BLOCK)
        kinds = [ISL_KIND_NAMES[k] for k in snap.isl_kinds[part].tolist()]
        yield block(snap.isl_pairs[part].tolist(), kinds, snap.isl_lengths[part])
    for i, st in enumerate(snap.stations):
        node = snap.station_node(i)
        ends = [(s, node) for s in snap.edge_sats[i].tolist()]
        kind = KIND_GSL if st.kind == "ground" else KIND_MSL
        yield block(ends, repeat(kind), snap.edge_lengths[i])


def write_edges_csv(snapshots: Iterable[Snapshot], path: FsPath) -> None:
    """One row per link and stamp, in _links order."""

    def blocks():
        for snap in snapshots:
            ts = _t(snap.t)
            for ends, kinds, lengths, latencies in _links(snap):
                yield (
                    [ts, a, b, kind, f"{length:.6f}", f"{latency:.6f}"]
                    for (a, b), kind, length, latency in zip(ends, kinds, lengths, latencies)
                )

    header = ("t", "src", "dst", "kind", "length_km", "latency_ms")
    _write_csv(path, header, chain.from_iterable(blocks()))


def write_direction_histogram_csv(hist: np.ndarray, path: FsPath) -> None:
    if hist.shape != (90,):
        raise ValueError("expected 90 one-degree bins")
    rows = ([i, i + 1, f"{v:.9f}"] for i, v in enumerate(hist))
    _write_csv(path, ("bin_start_deg", "bin_end_deg", "fraction"), rows)


def write_eisl_csv(stats: dict[float, EislStats], out_dir: FsPath) -> None:
    radii = sorted(stats)
    _write_csv(
        out_dir / "eisl_counts.csv",
        ("l_h_km", "stamp", "count"),
        ([_f(r), i, c] for r in radii for i, c in enumerate(stats[r].per_stamp_counts)),
    )
    _write_csv(
        out_dir / "eisl_episodes.csv",
        ("l_h_km", "duration_s"),
        ([_f(r), _f(d)] for r in radii for d in stats[r].episode_durations_s),
    )


# -- GeoJSON -------------------------------------------------------------------


def _geo(obj: dict, path: FsPath) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _feature(kind: str, coordinates: list, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": kind, "coordinates": coordinates},
        "properties": properties,
    }


def _collection(features: Iterable[dict]) -> dict:
    return {"type": "FeatureCollection", "features": list(features)}


# rounded (lon, lat) of each node per snapshot, dropped with the snapshot
_LONLAT: weakref.WeakKeyDictionary[Snapshot, dict[int, tuple[float, float]]] = (
    weakref.WeakKeyDictionary()
)


def _lonlat(snap: Snapshot, node: int) -> list[float]:
    """A node's rounded (lon, lat), a satellite's sub-point or a station's
    position, worked out once per snapshot."""
    memo = _LONLAT.setdefault(snap, {})
    point = memo.get(node)
    if point is None:
        n = snap.sat_count
        if node < n:
            g = eci_to_geodetic(snap.sat_positions[node], snap.t, snap.constellation.config.epoch)
        else:
            g = snap.station_geodetic[node - n]
        point = memo[node] = (round(g.lon_deg, 6), round(g.lat_deg, 6))
    return list(point)


def snapshot_nodes_geojson(snap: Snapshot) -> dict:
    props = [{"id": s, "kind": "satellite"} for s in range(snap.sat_count)]
    props += [
        {"id": snap.station_node(i), "kind": st.kind, "name": st.name}
        for i, st in enumerate(snap.stations)
    ]
    return _collection(_feature("Point", _lonlat(snap, p["id"]), p) for p in props)


def snapshot_links_geojson(snap: Snapshot) -> dict:
    return _collection(
        _feature(
            "LineString",
            [_lonlat(snap, a), _lonlat(snap, b)],
            {"kind": kind, "length_km": round(length, 3), "latency_ms": round(latency, 6)},
        )
        for ends, kinds, lengths, latencies in _links(snap)
        for (a, b), kind, length, latency in zip(ends, kinds, lengths, latencies)
    )


def path_geojson(snap: Snapshot, row: PathLogRow) -> dict:
    """A delivered path as a LineString of satellite subpoints.

    The hop_count property equals the vertex count minus one.
    """
    coords = [_lonlat(snap, s) for s in row.hop_list]
    return _feature(
        "LineString",
        coords,
        {
            "t": _t(row.t),
            "algorithm": row.algorithm,
            "src_station": row.src_station,
            "dst_station": row.dst_station,
            "hop_count": len(coords) - 1,
            "latency_ms": round(row.latency_ms, 6),
            "status": row.status,
        },
    )


def paths_geojson(scenario: Scenario, rows: Sequence[PathLogRow]) -> dict:
    """All delivered log rows as LineString features. Only the current row's
    snapshot is kept, rebuilt whenever the stamp changes, so its coordinates
    are dropped with it. A row that does not fit the scenario, or whose ends
    its stations do not see (check_attachment), raises PathLogError."""
    snapshot_of, template = snapshot_at(scenario)
    sets = _path_sets(scenario)
    snap: Snapshot | None = None
    feats = []
    for n, _, k, r in index_path_log(scenario, rows, template):
        if snap is None or snap.t != r.t:
            snap = snapshot_of(r.t)
        check_attachment(snap, sets[k][0], n, r)
        if r.status == "delivered":
            feats.append(path_geojson(snap, r))
    return _collection(feats)


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
    for q in _CDF_VALUES:
        write_cdf_csv(result.series, q, out(f"{q}_cdf.csv"))
    meta = scenario_to_dict(result.scenario)
    meta["failures"] = [[_t(t), msg] for t, msg in result.failures]
    out("metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if fmt == FORMAT_GEOJSON:
        _geo(paths_geojson(result.scenario, result.path_rows), out("paths.geojson"))
    return written
