"""Experiment runner: sweep the time grid, trace paths per connection and
algorithm, and assemble connection metrics.

Per-stamp work is independent by construction: a stamp is routed from its
snapshot alone, greedy traces aiming at the destination station's inertial
position in that snapshot. One isolating function, _stamp, finishes a stamp
from its path sets, routed or read from a log, for serial runs, workers and
reanalysis alike: set stats, path-log rows and decision counts. The sets
carry no names; _path_sets is the one list that names and orders them. The
merge folds stamps in stamp order and does only what crosses them: the
evolution chain, the failure reset, and the location table, which is the last
folded stamp's (every station refreshed, then each delivering greedy set's
source).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime
from functools import partial
from itertools import chain, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .constellation import build_walker
from .geometry import link_latency_ms
from .metrics import (
    ConnectionSeries,
    ConnectionSummary,
    StampStats,
    make_stamp_stats,
    path_evolution,
    summarize,
)
from .routing import (
    ALGO_MPLF_CPI,
    ALGO_MPLF_NFP,
    STATUSES,
    DecisionStats,
    LocationTable,
    PathSet,
    decision_counts,
    ler_encapsulate,
    record_delivery,
    stamp_path_sets,
)
from .scenario import Scenario
from .topology import IslTemplate, Snapshot, build_persistent_isls, snapshot

_MPLF_ALGOS = (ALGO_MPLF_CPI, ALGO_MPLF_NFP)


class PathLogError(ValueError):
    """A path-log row that cannot be read or does not fit the scenario.

    row is the 1-based data-row number (the header line not counted); 0
    means the header itself.
    """

    def __init__(self, row: int, message: str) -> None:
        super().__init__(f"path log row {row}: {message}")
        self.row = row


@dataclass(frozen=True)
class PathLogRow:
    """One row of the path log; the exported CSV mirrors these fields."""

    t: datetime
    algorithm: str
    src_station: str
    dst_station: str
    src_sat: int
    hop_list: tuple[int, ...]
    latency_ms: float
    hops: int
    status: str  # "delivered" | "dropped:<reason>"


@dataclass(frozen=True)
class StampOutcome:
    """What one stamp determines. Per set, connection-major, algorithm-minor:
    stats with vertex_changes None, and the sorted PathSet.vertices."""

    t: datetime
    station_ecef: np.ndarray
    stats: tuple[StampStats, ...]
    vertices: tuple[np.ndarray, ...]
    path_rows: list[PathLogRow]
    comparisons: list[int]  # the candidate count of every forwarding decision


@dataclass
class ExperimentResult:
    scenario: Scenario
    series: list[ConnectionSeries]
    summaries: list[ConnectionSummary]
    path_rows: list[PathLogRow]
    failures: list[tuple[datetime, str]]
    location_table: LocationTable
    decision_stats: DecisionStats

    def series_for(self, src: str, dst: str, algorithm: str) -> ConnectionSeries:
        for s in self.series:
            if (s.src_ei, s.dst_ei, s.algorithm) == (src, dst, algorithm):
                return s
        raise KeyError(f"no series for {src}->{dst} under {algorithm}")

    def summary_for(self, src: str, dst: str, algorithm: str) -> ConnectionSummary:
        for s in self.summaries:
            if (s.src_ei, s.dst_ei, s.algorithm) == (src, dst, algorithm):
                return s
        raise KeyError(f"no summary for {src}->{dst} under {algorithm}")


def _connection_indices(scenario: Scenario) -> list[tuple[int, int]]:
    by_name = {s.name: i for i, s in enumerate(scenario.stations)}
    return [(by_name[a], by_name[b]) for a, b in scenario.connections]


def _path_sets(scenario: Scenario) -> list[tuple[tuple[int, int], str]]:
    """((source, destination station index), algorithm) of each path set of a
    stamp, connection-major, algorithm-minor."""
    return list(product(_connection_indices(scenario), scenario.algorithms))


def snapshot_at(scenario: Scenario) -> tuple[Callable[[datetime], Snapshot], IslTemplate]:
    """The scenario's stamp -> snapshot map, and its persistent-link template.

    The constellation and its template do not change over time, so they are
    built once, here; each call of the map builds one snapshot.
    """
    constellation = build_walker(scenario.constellation)
    template = build_persistent_isls(constellation, scenario.pattern)

    def at(t: datetime) -> Snapshot:
        return snapshot(
            constellation,
            scenario.stations,
            scenario.pattern,
            t,
            scenario.elevation_min_deg,
            template=template,
        )

    return at, template


def _stamp(
    sets: list[tuple[tuple[int, int], str]],
    snapshot_of: Callable[[datetime], Snapshot],
    path_sets_of: Callable[[Snapshot], Iterable[PathSet]],
    t: datetime,
) -> StampOutcome | str:
    """Finish one stamp from its snapshot and path sets, one per entry of sets
    (_path_sets), or return the repr of the exception it raised. Decision
    counts follow set, then trace order."""
    try:
        snap = snapshot_of(t)
        stats, vertices, rows, comparisons = [], [], [], []
        for ((si, di), algo), ps in zip(sets, path_sets_of(snap), strict=True):
            points = snap.station_geodetic[si], snap.station_geodetic[di]
            stats.append(make_stamp_stats(t, snap.covered(si), snap.covered(di), ps, *points))
            vertices.append(ps.vertices)
            rows.extend(_log_rows(t, algo, snap.stations[si].ei, snap.stations[di].ei, ps))
            if algo in _MPLF_ALGOS:
                comparisons.extend(decision_counts(snap.template.degree, ps))
        return StampOutcome(t, snap.station_ecef, tuple(stats), tuple(vertices), rows, comparisons)
    except PathLogError:
        raise  # a log row that does not fit the scenario fails the whole reanalysis
    except Exception as exc:  # noqa: BLE001 - per-stamp isolation is the contract
        return repr(exc)


def _stamp_runner(
    scenario: Scenario, snapshot_of: Callable[[datetime], Snapshot]
) -> Callable[[datetime], StampOutcome | str]:
    pairs = _connection_indices(scenario)
    route = partial(stamp_path_sets, algorithms=scenario.algorithms, connections=pairs)
    return partial(_stamp, _path_sets(scenario), snapshot_of, route)


_WORKER_STATE: dict = {}


def _worker_init(scenario: Scenario) -> None:
    _WORKER_STATE["run"] = _stamp_runner(scenario, snapshot_at(scenario)[0])


def _worker_run(t: datetime) -> StampOutcome | str:
    return _WORKER_STATE["run"](t)


def _log_rows(t: datetime, algo: str, src: str, dst: str, ps: PathSet) -> Iterator[PathLogRow]:
    """The path-log rows of the set of src->dst under algo: its delivered
    paths, then its drops, each group in trace order."""
    routes, latency, end = ps.routes(), ps.latency_ms.tolist(), ps.end.tolist()
    for i in np.argsort(~ps.delivered, kind="stable").tolist():
        route = routes[i]
        yield PathLogRow(
            t, algo, src, dst, route[0], route, latency[i], len(route) - 1, STATUSES[end[i]]
        )


def run_experiment(scenario: Scenario, parallel: int = 1) -> ExperimentResult:
    """Execute a scenario over its full time grid.

    parallel > 1 distributes stamps over at most one worker process per
    stamp; results are merged in stamp order either way, so the output is
    identical. A stamp that raises is logged under failures and skipped; the
    run continues.
    """
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    stamps = scenario.time.stamps()
    workers = min(parallel, len(stamps))
    if workers == 1:
        return _merge(scenario, map(_stamp_runner(scenario, snapshot_at(scenario)[0]), stamps))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(scenario,)
    ) as pool:
        return _merge(scenario, pool.map(_worker_run, stamps))


def _merge(scenario: Scenario, results: Iterable[StampOutcome | str]) -> ExperimentResult:
    """Fold finished stamps in stamp order, keeping only the last one. A failed
    stamp (its exception's repr) is logged and leaves the next stamp without a
    predecessor for vertex_changes. Every stamp overwrites every station entry
    of the location table, so it is built once, from the last folded stamp."""
    sets = _path_sets(scenario)
    failures: list[tuple[datetime, str]] = []
    path_rows: list[PathLogRow] = []
    stamps: list[list[StampStats]] = [[] for _ in sets]
    prev: list[np.ndarray | None] = [None] * len(sets)
    stats = DecisionStats()
    last: StampOutcome | None = None
    for t, r in zip(scenario.time.stamps(), results):
        if isinstance(r, str):
            failures.append((t, r))
            prev = [None] * len(sets)
            continue
        path_rows.extend(r.path_rows)
        stats.comparisons.extend(r.comparisons)
        for k, (st, vertices) in enumerate(zip(r.stats, r.vertices)):
            if st.n_paths and prev[k] is not None:
                st = replace(st, vertex_changes=path_evolution(prev[k], vertices))
            stamps[k].append(st)
            prev[k] = vertices if st.valid else None
        last = r

    eis = [st.ei for st in scenario.stations]
    table = LocationTable()
    if last is not None:
        t, epoch = last.t, scenario.constellation.epoch
        for ei, ecef in zip(eis, last.station_ecef):
            table.update(ei, ecef, t)
        for ((si, di), algo), st in zip(sets, last.stats):
            if algo in _MPLF_ALGOS and st.n_paths:
                record_delivery(table, ler_encapsulate(table, eis[si], eis[di], t, epoch), epoch)
    series = [
        ConnectionSeries(eis[si], eis[di], algo, tuple(s))
        for ((si, di), algo), s in zip(sets, stamps)
    ]
    return ExperimentResult(
        scenario=scenario,
        series=series,
        summaries=[summarize(s) for s in series],
        path_rows=path_rows,
        failures=failures,
        location_table=table,
        decision_stats=stats,
    )


# -- reanalysis from a path log ------------------------------------------------


def index_path_log(
    scenario: Scenario, rows: Iterable[PathLogRow], template: IslTemplate
) -> Iterator[tuple[int, int, int, PathLogRow]]:
    """Each path-log row with its (1-based row number, stamp index, path-set
    index).

    A row whose stamp, connection, algorithm or hop ids do not fit the
    scenario, whose status, hops or src_sat are not those of a traced path (a
    baseline path is always delivered), whose latency is not finite and
    non-negative, whose consecutive hops are not a link of the scenario's
    template, or that repeats a greedy set's source satellite or a baseline
    set's (source, end) satellite pair, raises PathLogError with its 1-based
    number.
    """
    index_of = {t: i for i, t in enumerate(scenario.time.stamps())}
    eis = [st.ei for st in scenario.stations]
    set_of = {
        ((eis[si], eis[di]), algo): k
        for k, ((si, di), algo) in enumerate(_path_sets(scenario))
    }
    conns = {conn for conn, _ in set_of}
    sats = scenario.constellation.total_sats
    links = {(a, b) for a, b in template.pairs.tolist()}
    links |= {(b, a) for a, b in links}
    first: dict[tuple, int] = {}
    for n, r in enumerate(rows, start=1):
        if r.t not in index_of:
            raise PathLogError(n, f"stamp {r.t} is outside the scenario time grid")
        conn = (r.src_station, r.dst_station)
        if conn not in conns:
            raise PathLogError(
                n, f"connection {r.src_station}->{r.dst_station} is not in the scenario"
            )
        if r.algorithm not in scenario.algorithms:
            raise PathLogError(n, f"algorithm {r.algorithm!r} is not in the scenario")
        for h in r.hop_list:
            if not 0 <= h < sats:
                raise PathLogError(
                    n, f"hop {h} is outside the shell's satellites 0..{sats - 1}"
                )
        if r.status not in STATUSES:
            raise PathLogError(n, f"status {r.status!r} is not one of {', '.join(STATUSES)}")
        if r.status != "delivered" and r.algorithm not in _MPLF_ALGOS:
            raise PathLogError(n, f"status {r.status!r}: {r.algorithm} paths are never dropped")
        if not 0.0 <= r.latency_ms < np.inf:
            raise PathLogError(n, f"latency_ms {r.latency_ms} is not finite and non-negative")
        if r.hops != len(r.hop_list) - 1:
            raise PathLogError(n, f"hops {r.hops} does not match the hop list {r.hop_list}")
        if tuple(r.hop_list[:1]) != (r.src_sat,):
            raise PathLogError(n, f"src_sat {r.src_sat} is not the first hop")
        hops = r.hop_list
        if not links.issuperset(zip(hops, hops[1:])):
            a, b = next(s for s in zip(hops, hops[1:]) if s not in links)
            raise PathLogError(n, f"hops {a} and {b} are not linked in the template")
        # one greedy trace per source satellite, one baseline path per (source, end) pair
        i, k = index_of[r.t], set_of[conn, r.algorithm]
        key = (i, k, r.src_sat) if r.algorithm in _MPLF_ALGOS else (i, k, r.src_sat, hops[-1])
        if key in first:
            raise PathLogError(n, f"repeats the {r.algorithm} path of row {first[key]}")
        first[key] = n
        yield n, i, k, r


def check_attachment(snap: Snapshot, conn: tuple[int, int], n: int, r: PathLogRow) -> None:
    """Raise PathLogError with row number n unless, in the snapshot of the
    row's stamp, the source station conn[0] sees the row's first satellite
    and, for a delivered row, the destination station conn[1] its last."""
    si, di = conn
    if r.hop_list[0] not in snap.edge_sats[si].tolist():
        raise PathLogError(n, f"first hop {r.hop_list[0]} is not in view of {r.src_station}")
    if r.status == "delivered" and r.hop_list[-1] not in snap.edge_sats[di].tolist():
        raise PathLogError(n, f"last hop {r.hop_list[-1]} is not in view of {r.dst_station}")


def analyze_rows(scenario: Scenario, rows: Iterable[PathLogRow]) -> ExperimentResult:
    """Recompute every connection metric from a path log.

    Station coverage and positions are rebuilt from the scenario (a cheap
    topology-only sweep); paths come from the log, and a stamp that raises is
    listed under failures, as in a run. A row that does not fit the scenario
    (index_path_log), or whose ends its stations do not see in its stamp's
    snapshot (check_attachment), raises PathLogError. The series, summaries
    and location table match the original run to the six-decimal precision
    of the logged latencies.
    """
    snapshot_of, template = snapshot_at(scenario)
    stamps = scenario.time.stamps()
    grouped: dict[tuple[datetime, int], list[tuple[int, PathLogRow]]] = {}
    for n, i, k, r in index_path_log(scenario, rows, template):
        grouped.setdefault((stamps[i], k), []).append((n, r))

    sets = _path_sets(scenario)

    def path_set(snap: Snapshot, k: int) -> PathSet:
        conn, algo = sets[k]
        numbered = grouped.get((snap.t, k), [])
        for n, r in numbered:
            check_attachment(snap, conn, n, r)
        logged = [r for _, r in numbered]
        if algo in _MPLF_ALGOS:
            logged.sort(key=attrgetter("src_sat"))  # trace order
        starts = np.cumsum([0] + [len(r.hop_list) for r in logged])
        sats = np.fromiter(chain.from_iterable(r.hop_list for r in logged), np.int64, starts[-1])
        end = np.array([STATUSES.index(r.status) for r in logged], dtype=np.int8)
        latency = np.array([r.latency_ms for r in logged])
        total = latency / float(link_latency_ms(1.0))
        return PathSet(sats, starts, end, total, latency)

    def path_sets_of(snap: Snapshot) -> list[PathSet]:
        return [path_set(snap, k) for k in range(len(sets))]

    return _merge(scenario, map(partial(_stamp, sets, snapshot_of, path_sets_of), stamps))
