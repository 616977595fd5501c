"""Deterministic artifact writers (CSV tables and GeoJSON) and the path-log reader.

All floats are written with fixed six-decimal formatting and rows follow the
run's natural order, so re-running an identical scenario reproduces the
output byte for byte. The path log is columns (harness.PathLog) on both sides
of paths.csv; its rows are named from the scenario and checked as they are read.
"""

from __future__ import annotations

import csv
import json
import weakref
from array import array
from datetime import datetime, timezone
from itertools import chain, pairwise, repeat
from operator import attrgetter, itemgetter
from pathlib import Path as FsPath
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import eci_to_geodetic, link_latency_ms
from .harness import _MPLF_ALGOS, ExperimentResult, PathLog, PathLogError, _path_sets
from .harness import check_stamp, snapshot_at
from .metrics import ConnectionSeries, ConnectionSummary
from .routing import STATUSES
from .scenario import Scenario, scenario_to_dict
from .topology import ISL_KIND_NAMES, KIND_GSL, KIND_MSL, EislStats, Snapshot

FORMAT_CSV = "csv"
FORMAT_GEOJSON = "geojson"
FORMATS = (FORMAT_CSV, FORMAT_GEOJSON)

_EDGE_BLOCK = 1024  # edges.csv rows formatted per batch
_PATH_BLOCK = 256  # paths.csv rows formatted per batch


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


# the path log's columns, in file order
_PATH_LOG = "t algorithm src_station dst_station src_sat hop_list latency_ms hops status".split()

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


def _set_names(scenario: Scenario) -> list[tuple[str, str, str]]:
    """(algorithm, source EI, destination EI) of each of _path_sets."""
    eis = [st.ei for st in scenario.stations]
    return [(algo, eis[si], eis[di]) for (si, di), algo in _path_sets(scenario)]


def write_paths_csv(scenario: Scenario, log: PathLog, path: FsPath) -> None:
    """One row per log row, its stamp and set named from the scenario; rows are
    formatted _PATH_BLOCK at a time, which bounds the Python lists alive at once."""
    ts, names = [_t(t) for t in scenario.time.stamps()], _set_names(scenario)

    def rows(lo: int) -> Iterator[list]:
        part = log.take(np.arange(lo, min(lo + _PATH_BLOCK, log.end.size)))
        sats, starts = part.sats.tolist(), part.starts.tolist()
        cells = (c.tolist() for c in (part.stamp, part.path_set, part.latency_ms, part.end))
        for i, k, ms, e, (a, b) in zip(*cells, pairwise(starts)):
            hops = "-".join(map(str, sats[a:b]))
            yield [ts[i], *names[k], sats[a], hops, _f(ms), b - a - 1, STATUSES[e]]

    _write_csv(path, _PATH_LOG, chain.from_iterable(map(rows, range(0, log.end.size, _PATH_BLOCK))))


def read_paths_csv(path: FsPath, scenario: Scenario) -> PathLog:
    """Read a path log in one pass, resolving its names against the scenario.

    Each row is checked as it is read: the first malformed row, or one with
    more cells than the header, or whose stamp, connection, algorithm or hop
    ids do not fit the scenario, whose status, hops or src_sat are not those
    of a traced path (a baseline path is always delivered), whose latency is
    not finite and non-negative, or that repeats a greedy set's source
    satellite or a baseline set's (source, end) pair raises PathLogError with
    its 1-based number; a header that lacks a column (an empty file has none)
    raises it with row 0. Links and station visibility are check_stamp's.
    """
    stamp_of = {t: i for i, t in enumerate(scenario.time.stamps())}
    set_of = {names: k for k, names in enumerate(_set_names(scenario))}
    conns = {(src, dst) for _, src, dst in set_of}
    code_of = {status: e for e, status in enumerate(STATUSES)}
    count = scenario.constellation.total_sats
    stamp, sets, end, latency = array("i"), array("i"), array("b"), array("d")
    sats, starts = array("i"), array("q", [0])
    first: dict[tuple, int] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        at = {name: j for j, name in enumerate(header)}  # a repeated name's last column
        missing = [c for c in _PATH_LOG if c not in at]
        if missing:
            raise PathLogError(0, f"missing column(s) {', '.join(missing)}")
        cols = [at[c] for c in _PATH_LOG]
        cells_of, reach = itemgetter(*cols), max(cols)
        for n, cells in enumerate(filter(None, reader), start=1):  # blank lines not counted
            if len(cells) <= reach:
                missing = [c for c, j in zip(_PATH_LOG, cols) if j >= len(cells)]
                raise PathLogError(n, f"missing column(s) {', '.join(missing)}")
            if len(cells) > len(header):
                raise PathLogError(n, f"{len(cells) - len(header)} cell(s) beyond the header")
            t, algo, src, dst, sat0, hop_list, ms, hops, status = cells_of(cells)
            try:
                t, sat0 = datetime.fromisoformat(t), int(sat0)
                route, ms, hops = [*map(int, hop_list.split("-"))], float(ms), int(hops)
            except ValueError as exc:
                raise PathLogError(n, str(exc)) from exc
            i, k, e = stamp_of.get(t), set_of.get((algo, src, dst)), code_of.get(status)
            if i is None:
                raise PathLogError(n, f"stamp {t} is outside the scenario time grid")
            if (src, dst) not in conns:
                raise PathLogError(n, f"connection {src}->{dst} is not in the scenario")
            if k is None:
                raise PathLogError(n, f"algorithm {algo!r} is not in the scenario")
            if min(route) < 0 or max(route) >= count:
                h = next(h for h in route if not 0 <= h < count)
                raise PathLogError(n, f"hop {h} is outside the shell's satellites 0..{count - 1}")
            if e is None:
                raise PathLogError(n, f"status {status!r} is not one of {', '.join(STATUSES)}")
            if e and algo not in _MPLF_ALGOS:
                raise PathLogError(n, f"status {status!r}: {algo} paths are never dropped")
            if not 0.0 <= ms < np.inf:
                raise PathLogError(n, f"latency_ms {ms} is not finite and non-negative")
            if hops != len(route) - 1:
                raise PathLogError(n, f"hops {hops} does not match the hop list {tuple(route)}")
            if route[0] != sat0:
                raise PathLogError(n, f"src_sat {sat0} is not the first hop")
            # one greedy trace per source satellite, one baseline path per (source, end) pair
            key = (i, k, sat0) if algo in _MPLF_ALGOS else (i, k, sat0, route[-1])
            if first.setdefault(key, n) != n:
                raise PathLogError(n, f"repeats the {algo} path of row {first[key]}")
            for column, value in zip((stamp, sets, end, latency), (i, k, e, ms)):
                column.append(value)
            sats.extend(route)
            starts.append(len(sats))
    return PathLog(*map(np.asarray, (stamp, sets, end, latency, sats, starts)))


def write_metrics_csv(series: Sequence[ConnectionSeries], path: FsPath) -> None:
    get, fmts = attrgetter(*_STAMP_COLUMNS), tuple(_STAMP_COLUMNS.values())
    rows = (
        [_t(st.t), s.src_ei, s.dst_ei, s.algorithm, *(f(v) for f, v in zip(fmts, get(st)))]
        for s in series
        for st in s.stamps
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
    memo = _LONLAT.get(snap)
    if memo is None:
        memo = _LONLAT[snap] = {}
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


def paths_geojson(scenario: Scenario, log: PathLog) -> dict:
    """The delivered rows of a path log as LineString features of satellite
    subpoints, hop_count their vertex count minus one. Each run of rows at one
    stamp is checked against that stamp's snapshot (check_stamp), the only one
    kept, so its coordinates are dropped with it."""
    snapshot_of, stamps = snapshot_at(scenario), scenario.time.stamps()
    sets, names = _path_sets(scenario), _set_names(scenario)
    # the first row of each run, then the row count: stamps are >= 0
    cut = np.flatnonzero(np.diff(log.stamp, prepend=-1, append=-1)).tolist()
    feats = []
    for lo, hi in pairwise(cut):
        part = log.take(np.arange(lo, hi))
        snap = snapshot_of(stamps[part.stamp[0]])
        check_stamp(snap, sets, part, np.arange(lo + 1, hi + 1))
        sats, starts, t = part.sats.tolist(), part.starts.tolist(), _t(snap.t)
        rows = zip(part.path_set.tolist(), part.latency_ms.tolist(), part.end.tolist())
        for (k, ms, e), (a, b) in zip(rows, pairwise(starts)):
            if e == 0:
                algo, src, dst = names[k]
                props = {"t": t, "algorithm": algo, "src_station": src, "dst_station": dst,
                         "hop_count": b - a - 1, "latency_ms": round(ms, 6), "status": STATUSES[0]}
                feats.append(_feature("LineString", [_lonlat(snap, s) for s in sats[a:b]], props))
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

    write_paths_csv(result.scenario, result.path_log, out("paths.csv"))
    write_metrics_csv(result.series, out("metrics.csv"))
    write_summary_csv(result.summaries, out("summary.csv"))
    for q in _CDF_VALUES:
        write_cdf_csv(result.series, q, out(f"{q}_cdf.csv"))
    meta = scenario_to_dict(result.scenario)
    meta["failures"] = [[_t(t), msg] for t, msg in result.failures]
    out("metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if fmt == FORMAT_GEOJSON:
        _geo(paths_geojson(result.scenario, result.path_log), out("paths.geojson"))
    return written
