"""Deterministic artifact writers (CSV tables and GeoJSON) and the path-log reader.

All floats are written with fixed six-decimal formatting and rows follow the
run's natural order, so re-running an identical scenario reproduces the
output byte for byte. The path log is columns (harness.PathLog) on both sides
of paths.csv; its rows are named from the scenario and checked as they are read.
The writers take one snapshot at a time. GeoJSON is streamed a list of
features at a time, each formatted from its writer's text template (no
per-feature JSON encoder), with each snapshot's sub-points converted in one
batch and formatted once; paths.geojson builds its snapshots a block of
stamps at a time. The per-row tables (edges.csv, paths.csv, metrics.csv,
the CDF tables) are formatted a column or a format and a block of rows at a
time, to the bytes csv.writer gives.
"""

from __future__ import annotations

import csv
import io
import json
import weakref
from array import array
from datetime import datetime, timezone
from itertools import chain, pairwise, repeat
from operator import attrgetter, itemgetter
from pathlib import Path as FsPath
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import eci_to_lonlat, link_latency_ms
from .harness import _MPLF_ALGOS, ExperimentResult, PathLog, PathLogError, _blocks, _path_sets
from .harness import check_stamp, snapshot_at
from .metrics import ConnectionSeries, ConnectionSummary
from .routing import STATUSES
from .scenario import Scenario, scenario_to_dict
from .topology import ISL_KIND_NAMES, KIND_GSL, KIND_MSL, EislStats, IslTemplate, Snapshot

FORMAT_CSV = "csv"
FORMAT_GEOJSON = "geojson"
FORMATS = (FORMAT_CSV, FORMAT_GEOJSON)

_EDGE_BLOCK = 1024  # edges.csv rows formatted per batch
_ROW_BLOCK = 256  # rows of paths.csv, metrics.csv and the CDF tables formatted per batch


def _f(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _i(x: int | None) -> str:
    return "" if x is None else str(x)


def _flag(x: bool) -> str:
    return str(int(x))


def _t(t: datetime) -> str:
    return t.astimezone(timezone.utc).isoformat()


def _write_csv(path: FsPath, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cell(value: str) -> str:
    """value as csv.writer writes it in a row of several cells (quoted if needed)."""
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[: -len(",\r\n")]


def _cells(*values: str) -> str:
    """The text of consecutive cells of a row, each as _cell writes it."""
    return ",".join(map(_cell, values))


def _write_blocks(path: FsPath, header: Sequence[str], blocks: Iterable[Iterable]) -> None:
    """Write a table as csv.writer writes it: the header, then each block of
    rows, given as columns of cell text, as one string."""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for columns in blocks:
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*columns)]))


# the path log's columns, in file order
_PATH_LOG = "t algorithm src_station dst_station src_sat hop_list latency_ms hops status".split()

# the columns naming a series, after metrics.csv's t and first in the others
_SERIES_COLUMNS = ("src_station", "dst_station", "algorithm")

# metrics.csv after t and the series columns: StampStats attribute -> cell text
_STAMP_COLUMNS = {
    "covered_src": _flag,
    "covered_dst": _flag,
    "valid": _flag,
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
    """One row per log row, its stamp and set named from the scenario, one
    column at a time, _ROW_BLOCK rows at a time: that bounds the Python lists
    alive at once. Stamp, set and status cells are formatted once per value,
    and a hop list joins "<id>-" tokens, one per satellite."""
    ts = [_cell(_t(t)) for t in scenario.time.stamps()]
    sets = [_cells(*names) for names in _set_names(scenario)]
    statuses = list(map(_cell, STATUSES))
    tokens = [f"{s}-" for s in range(log.sats.max(initial=-1) + 1)]

    def columns(lo: int) -> tuple:
        bounds = log.starts[lo : lo + _ROW_BLOCK + 1]
        rows, sats = slice(lo, lo + bounds.size - 1), log.sats[bounds[0] : bounds[-1]].tolist()
        hops, starts = list(map(tokens.__getitem__, sats)), (bounds - bounds[0]).tolist()
        return (
            map(ts.__getitem__, log.stamp[rows].tolist()),
            map(sets.__getitem__, log.path_set[rows].tolist()),
            [str(sats[a]) for a in starts[:-1]],
            ["".join(hops[a:b])[:-1] for a, b in pairwise(starts)],
            [f"{ms:.6f}" for ms in log.latency_ms[rows].tolist()],
            map(str, (np.diff(bounds) - 1).tolist()),
            map(statuses.__getitem__, log.end[rows].tolist()),
        )

    _write_blocks(path, _PATH_LOG, map(columns, range(0, log.end.size, _ROW_BLOCK)))


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
    """One row per stamp of each series, formatted a column and at most
    _ROW_BLOCK rows at a time; a series' names and a stamp's time once."""
    get, fmts = attrgetter(*_STAMP_COLUMNS), tuple(_STAMP_COLUMNS.values())
    ts = {t: _cell(_t(t)) for t in {st.t for s in series for st in s.stamps}}

    def blocks() -> Iterator[tuple]:
        for s in series:
            names = _cells(s.src_ei, s.dst_ei, s.algorithm)
            for lo in range(0, len(s.stamps), _ROW_BLOCK):
                part = s.stamps[lo : lo + _ROW_BLOCK]
                columns = zip(fmts, zip(*map(get, part)))
                yield [ts[st.t] for st in part], repeat(names), *(map(f, c) for f, c in columns)

    _write_blocks(path, ("t", *_SERIES_COLUMNS, *_STAMP_COLUMNS), blocks())


def write_summary_csv(summaries: Sequence[ConnectionSummary], path: FsPath) -> None:
    cells = tuple(_SUMMARY_COLUMNS.values())
    rows = ([s.src_ei, s.dst_ei, s.algorithm, *(c(s) for c in cells)] for s in summaries)
    _write_csv(path, (*_SERIES_COLUMNS, *_SUMMARY_COLUMNS), rows)


def write_cdf_csv(series: Sequence[ConnectionSeries], quantity: str, path: FsPath) -> None:
    """CDF of per-stamp values (averages for latency/hops, max for stretch),
    formatted a column and at most _ROW_BLOCK rows at a time."""
    pick = attrgetter(_CDF_VALUES[quantity])

    def blocks() -> Iterator[tuple]:
        for s in series:
            vals = sorted(float(v) for v in map(pick, s.stamps) if v is not None)
            names, n = _cells(s.src_ei, s.dst_ei, s.algorithm), len(vals)
            for lo in range(0, n, _ROW_BLOCK):
                part = vals[lo : lo + _ROW_BLOCK]
                fractions = [f"{i / n:.6f}" for i in range(lo + 1, lo + len(part) + 1)]
                yield repeat(names), [f"{v:.6f}" for v in part], fractions

    _write_blocks(path, (*_SERIES_COLUMNS, "value", "cum_fraction"), blocks())


def _link_ends(template: IslTemplate) -> list[tuple[int, int, str]]:
    """(src, dst, kind) of each persistent link of a template, in its order."""
    kinds = map(ISL_KIND_NAMES.__getitem__, template.kinds.tolist())
    return [(a, b, kind) for (a, b), kind in zip(template.pairs.tolist(), kinds)]


def _isl_blocks(snap: Snapshot) -> Iterator[tuple[int, list[float], list[float]]]:
    """The snapshot's persistent links in template order, _EDGE_BLOCK at a
    time, as (lo, lengths_km, latencies_ms): lo is the template index of the
    block's first link. Blocks bound the Python lists alive at once."""
    for lo in range(0, snap.template.edge_count, _EDGE_BLOCK):
        lengths = snap.isl_lengths[lo : lo + _EDGE_BLOCK]
        yield lo, lengths.tolist(), link_latency_ms(lengths).tolist()


def _edge_links(snap: Snapshot) -> Iterator[tuple[list, list[float], list[float]]]:
    """Each station's edge links, station by station, as (ends, lengths_km,
    latencies_ms); ends are (src, dst, kind) with snapshot node ids."""
    for i, st in enumerate(snap.stations):
        node, kind = snap.station_node(i), KIND_GSL if st.kind == "ground" else KIND_MSL
        lengths = snap.edge_lengths[i]
        ends = [(s, node, kind) for s in snap.edge_sats[i].tolist()]
        yield ends, lengths.tolist(), link_latency_ms(lengths).tolist()


def _links(snap: Snapshot) -> Iterator[tuple[list, list[float], list[float]]]:
    """A snapshot's links in blocks (ends, lengths_km, latencies_ms): its
    persistent links (_isl_blocks), then each station's edge links
    (_edge_links); ends are (src, dst, kind) with snapshot node ids."""
    ends = _link_ends(snap.template)
    for lo, lengths, latencies in _isl_blocks(snap):
        yield ends[lo : lo + len(lengths)], lengths, latencies
    yield from _edge_links(snap)


def _row_format(ends: list[tuple[int, int, str]]) -> str:
    """The %-format of the edges.csv rows of links ends, (src, dst, kind)
    each: NUL stands for the time, and each row has a %.6f slot for its
    length and one for its latency (the text of f"{x:.6f}")."""
    return "".join([f"\0,{a},{b},{kind},%.6f,%.6f\r\n" for a, b, kind in ends])


def write_edges_csv(snapshots: Iterable[Snapshot], path: FsPath) -> None:
    """One row per link and stamp, in _links order, as csv.writer writes them
    (CRLF line ends; no cell needs quoting). Each block of rows is one
    _row_format, the stamp's time put in its place and every length and
    latency filled in by one %. A persistent link's src, dst and kind cells
    do not change over time, so its blocks' formats are built once per
    template."""
    template, formats = None, []
    with path.open("w", newline="") as fh:
        fh.write("t,src,dst,kind,length_km,latency_ms\r\n")
        for snap in snapshots:
            if snap.template is not template:
                template, links = snap.template, _link_ends(snap.template)
                formats = [_row_format(links[lo : lo + _EDGE_BLOCK])
                           for lo in range(0, len(links), _EDGE_BLOCK)]
            ts = _t(snap.t)
            isls = ((formats[lo // _EDGE_BLOCK], *rest) for lo, *rest in _isl_blocks(snap))
            edges = ((_row_format(ends), *rest) for ends, *rest in _edge_links(snap))
            for form, lengths, latencies in chain(isls, edges):
                values = tuple(chain.from_iterable(zip(lengths, latencies)))
                fh.write(form.replace("\0", ts) % values)


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
#
# A collection is written a list of features at a time. With sorted keys
# "features" precedes "type", so the stream is byte for byte the one
# json.dumps(collection, sort_keys=True, separators=(",", ":")) it replaces.
# Each feature is formatted from its writer's template, whose properties are
# in that sorted order: names and kinds pass the encoder once per writer and
# value (ensure_ascii, as json.dumps), rounded floats are written as json
# writes them (_rounded) and ints as str (%d).

_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _rounded(values: list[float], digits: int) -> list[str]:
    """The JSON text of round(v, digits), its float.__repr__, for each finite
    v, from one fixed-point format each. round and the "f" format take the
    same correctly rounded decimal digits, so that text, trailing zeros
    dropped, is the rounded value's decimal, and a decimal of at most 15
    significant digits (16 characters) is the shortest repr of the double
    nearest it. repr writes an exponent below 1e-4, so those values, and any
    longer text, take repr(round(v, digits)) itself."""
    spec = f"%.{digits}f"
    texts = [(spec % v).rstrip("0") for v in values]
    return [
        repr(round(v, digits)) if len(t) > 16 or t.startswith(("0.0000", "-0.0000"))
        else t + "0" if t[-1] == "."
        else t
        for v, t in zip(values, texts)
    ]


def _feature_format(geometry: str, properties: str) -> str:
    """The %-format of a feature of a geometry type: its coordinates' text,
    then the values of properties, the text inside its properties object
    with one %-slot per value, keys in sorted order."""
    head = '{"geometry":{"coordinates":%s,"type":' + _json(geometry) + '},"properties":{'
    return head + properties + '},"type":"Feature"}'


_SATELLITE = _feature_format("Point", '"id":%d,"kind":%s')
_STATION = _feature_format("Point", '"id":%d,"kind":%s,"name":%s')
_LINK = _feature_format("LineString", '"kind":%s,"latency_ms":%s,"length_km":%s')
_PATH = _feature_format(
    "LineString",
    '"algorithm":%s,"dst_station":%s,"hop_count":%d,"latency_ms":%s,"src_station":%s,'
    '"status":%s,"t":%s',
)


def _write_geojson(path: FsPath, blocks: Iterable[list[str]]) -> None:
    """Write a FeatureCollection of features, given as lists of their JSON
    texts, through a temporary file beside path, renamed onto it when
    complete and removed on any error, so a failed write leaves no file."""
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w") as fh:
            fh.write('{"features":[')
            sep = ""
            for features in filter(None, blocks):
                fh.write(sep + ",".join(features))
                sep = ","
            fh.write('],"type":"FeatureCollection"}\n')
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _lonlat(lon: list[float], lat: list[float]) -> list[str]:
    """The JSON text [lon,lat] of each point, rounded to six decimals."""
    return [f"[{x},{y}]" for x, y in zip(_rounded(lon, 6), _rounded(lat, 6))]


def _subpoints(snap: Snapshot, sats: np.ndarray) -> list[str]:
    """_lonlat of the sub-points of sats at the snapshot's stamp, one batch."""
    epoch = snap.constellation.config.epoch
    return _lonlat(*eci_to_lonlat(snap.sat_positions[sats], snap.t, epoch))


# node id -> _lonlat, per snapshot: the nodes and links writers share one batch
_NODE_LONLAT: weakref.WeakKeyDictionary[Snapshot, list[str]] = weakref.WeakKeyDictionary()


def _node_lonlat(snap: Snapshot) -> list[str]:
    """_lonlat of every node by node id (satellite sub-points, then stations),
    converted once per snapshot."""
    lonlat = _NODE_LONLAT.get(snap)
    if lonlat is None:
        stations = snap.station_geodetic
        lonlat = _subpoints(snap, np.arange(snap.sat_count))
        lonlat += _lonlat([g.lon_deg for g in stations], [g.lat_deg for g in stations])
        _NODE_LONLAT[snap] = lonlat
    return lonlat


def snapshot_nodes_geojson(snap: Snapshot, path: FsPath) -> None:
    """Write the snapshot's nodes to path as Point features."""
    lonlat, count, kind = _node_lonlat(snap), snap.sat_count, _json("satellite")
    sats = [_SATELLITE % (lonlat[s], s, kind) for s in range(count)]
    stations = [
        _STATION % (lonlat[count + i], count + i, _json(st.kind), _json(st.name))
        for i, st in enumerate(snap.stations)
    ]
    _write_geojson(path, [sats, stations])


def snapshot_links_geojson(snap: Snapshot, path: FsPath) -> None:
    """Write the snapshot's links to path as LineString features, in _links order."""
    lonlat = _node_lonlat(snap)
    kinds = {kind: _json(kind) for kind in (*ISL_KIND_NAMES, KIND_GSL, KIND_MSL)}
    blocks = (
        [
            _LINK % (f"[{lonlat[a]},{lonlat[b]}]", kinds[kind], ms, km)
            for (a, b, kind), km, ms in zip(ends, _rounded(lengths, 3), _rounded(latencies, 6))
        ]
        for ends, lengths, latencies in _links(snap)
    )
    _write_geojson(path, blocks)


def paths_geojson(scenario: Scenario, log: PathLog, path: FsPath) -> None:
    """Write the delivered rows of a path log to path as LineString features
    of satellite sub-points, hop_count their vertex count minus one. The log
    is read in runs of rows at one stamp, whose snapshots are built a block
    of runs at a time (harness._blocks, one snapshot_at call each), the only
    block kept. Each run is checked against its snapshot (check_stamp), and
    the sub-points of its delivered rows are converted and formatted once."""
    snapshot_of, stamps = snapshot_at(scenario), scenario.time.stamps()
    sets, status = _path_sets(scenario), _json(STATUSES[0])
    names = [tuple(map(_json, n)) for n in _set_names(scenario)]
    # the first row of each run, then the row count: stamps are >= 0
    cut = np.flatnonzero(np.diff(log.stamp, prepend=-1, append=-1)).tolist()
    runs = list(pairwise(cut))

    def snapshots() -> Iterator[tuple[tuple[int, int], PathLog, Snapshot]]:
        for block in _blocks(len(runs)):
            parts = [log.take(np.arange(*runs[r])) for r in block]
            yield from zip(runs[block.start : block.stop], parts,
                           snapshot_of([stamps[p.stamp[0]] for p in parts]))

    def features() -> Iterator[list[str]]:
        for (lo, hi), part, snap in snapshots():
            check_stamp(snap, sets, part, np.arange(lo + 1, hi + 1))
            delivered = np.repeat(part.end == 0, np.diff(part.starts))
            needed = np.unique(part.sats[delivered])
            lonlat = dict(zip(needed.tolist(), _subpoints(snap, needed))).__getitem__
            sats, starts, t = part.sats.tolist(), part.starts.tolist(), _json(_t(snap.t))
            rows = zip(part.path_set.tolist(), _rounded(part.latency_ms.tolist(), 6),
                       part.end.tolist())
            features = []
            for (k, ms, e), (a, b) in zip(rows, pairwise(starts)):
                if e == 0:
                    algo, src, dst = names[k]
                    coordinates = ",".join(map(lonlat, sats[a:b]))
                    hops = b - a - 1
                    features.append(_PATH % (f"[{coordinates}]", algo, dst, hops, ms, src,
                                             status, t))
            yield features

    _write_geojson(path, features())


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
        paths_geojson(result.scenario, result.path_log, out("paths.geojson"))
    return written
