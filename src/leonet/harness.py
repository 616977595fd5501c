"""Experiment runner: sweep the time grid, trace paths per connection and
algorithm, and assemble connection metrics.

Per-stamp work is independent by construction: a stamp is routed from its
snapshot alone, greedy traces aiming at the destination station's inertial
position in that snapshot, so stamps may be computed in parallel and merged
in stamp order. The run's one location table is maintained serially in
stamp order by the merge: a refresh of every station entry per stamp, then
a delivery update of the source entry for every delivered greedy path. The
merge also reads the candidate count of every forwarding decision off the
greedy paths it folds, so simulate and analyze report the same counts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from itertools import chain, product, starmap
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .constellation import build_walker
from .geometry import GeodeticPoint, link_latency_ms
from .metrics import (
    ConnectionSeries,
    ConnectionSummary,
    ReachabilityRecord,
    StampStats,
    make_stamp_stats,
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

    row is the 1-based data-row number (the header line not counted).
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
    """Everything computed for one stamp, independent of other stamps."""

    station_points: tuple[GeodeticPoint, ...]
    station_ecef: np.ndarray
    covered: tuple[bool, ...]
    pathsets: tuple[PathSet, ...]  # connection-major, algorithm-minor


@dataclass
class ExperimentResult:
    scenario: Scenario
    series: list[ConnectionSeries]
    summaries: list[ConnectionSummary]
    path_rows: list[PathLogRow]
    records: list[ReachabilityRecord]
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


def _stamp_outcome(snap: Snapshot, pathsets: Iterable[PathSet]) -> StampOutcome:
    return StampOutcome(
        station_points=snap.station_geodetic,
        station_ecef=snap.station_ecef,
        covered=tuple(snap.covered(i) for i in range(len(snap.stations))),
        pathsets=tuple(pathsets),
    )


def _compute_stamp(
    snapshot_of: Callable[[datetime], Snapshot],
    algorithms: Sequence[str],
    pairs: Sequence[tuple[int, int]],
    t: datetime,
) -> StampOutcome | str:
    """The stamp's outcome, routed from its snapshot alone, or the repr of the
    exception it raised."""
    try:
        snap = snapshot_of(t)
        return _stamp_outcome(snap, stamp_path_sets(snap, algorithms, pairs))
    except Exception as exc:  # noqa: BLE001 - per-stamp isolation is the contract
        return repr(exc)


def _stamp_runner(
    scenario: Scenario, snapshot_of: Callable[[datetime], Snapshot]
) -> Callable[[datetime], StampOutcome | str]:
    pairs = _connection_indices(scenario)
    return partial(_compute_stamp, snapshot_of, scenario.algorithms, pairs)


_WORKER_STATE: dict = {}


def _worker_init(scenario: Scenario) -> None:
    _WORKER_STATE["run"] = _stamp_runner(scenario, snapshot_at(scenario)[0])


def _worker_run(t: datetime) -> StampOutcome | str:
    return _WORKER_STATE["run"](t)


def _log_rows(t: datetime, ps: PathSet) -> Iterator[PathLogRow]:
    """The path-log rows of a set: its delivered paths, then its drops, each
    group in trace order."""
    routes, latency, end = ps.routes(), ps.latency_ms.tolist(), ps.end.tolist()
    for i in np.argsort(~ps.delivered, kind="stable").tolist():
        route = routes[i]
        yield PathLogRow(
            t, ps.algorithm, ps.src_ei, ps.dst_ei, route[0], route, latency[i], len(route) - 1,
            STATUSES[end[i]],
        )


def run_experiment(scenario: Scenario, parallel: int = 1) -> ExperimentResult:
    """Execute a scenario over its full time grid.

    parallel > 1 distributes stamps over worker processes; results are merged
    in stamp order either way, so the output is identical. A stamp that
    raises is logged under failures and skipped; the run continues.
    """
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    stamps = scenario.time.stamps()
    snapshot_of, template = snapshot_at(scenario)
    if parallel == 1:
        return _merge(scenario, template, map(_stamp_runner(scenario, snapshot_of), stamps))
    with ProcessPoolExecutor(
        max_workers=parallel, initializer=_worker_init, initargs=(scenario,)
    ) as pool:
        return _merge(scenario, template, pool.map(_worker_run, stamps))


def _merge(
    scenario: Scenario, template: IslTemplate, results: Iterable[StampOutcome | str]
) -> ExperimentResult:
    """Fold per-stamp results, one at a time in stamp order, into the run's
    result, keeping no outcome once it is folded. A failed stamp (the repr of
    its exception) is logged, contributes nothing and leaves the next stamp
    without a predecessor. The decision counts are read off each greedy path
    set's traces in set order: source-satellite order, the order they were
    traced in."""
    epoch = scenario.constellation.epoch
    sets = _path_sets(scenario)
    failures: list[tuple[datetime, str]] = []
    path_rows: list[PathLogRow] = []
    stamps: list[list[StampStats]] = [[] for _ in sets]
    prev: list[tuple | None] = [None] * len(sets)
    stats = DecisionStats()
    table = LocationTable()
    for t, r in zip(scenario.time.stamps(), results):
        if isinstance(r, str):
            failures.append((t, r))
            prev = [None] * len(sets)
            continue
        for i, st in enumerate(scenario.stations):
            table.update(st.ei, r.station_ecef[i], t)
        for k, (ps, ((si, di), _)) in enumerate(zip(r.pathsets, sets)):
            path_rows.extend(_log_rows(t, ps))
            if ps.algorithm in _MPLF_ALGOS:
                stats.comparisons.extend(decision_counts(template.degree, ps))
                if ps.delivered.any():
                    header = ler_encapsulate(table, ps.src_ei, ps.dst_ei, t, epoch)
                    record_delivery(table, header, epoch)
            st = make_stamp_stats(
                t=t,
                covered_src=r.covered[si],
                covered_dst=r.covered[di],
                paths=ps,
                src_point=r.station_points[si],
                dst_point=r.station_points[di],
                prev=prev[k],
            )
            stamps[k].append(st)
            prev[k] = ps if st.valid else None

    eis = [st.ei for st in scenario.stations]
    series = [
        ConnectionSeries(eis[si], eis[di], algo, tuple(s))
        for ((si, di), algo), s in zip(sets, stamps)
    ]
    return ExperimentResult(
        scenario=scenario,
        series=series,
        summaries=[summarize(s) for s in series],
        path_rows=path_rows,
        records=[
            ReachabilityRecord(s.src_ei, s.dst_ei, st.t, st.psi)
            for s in series
            for st in s.stamps
            if st.psi is not None
        ],
        failures=failures,
        location_table=table,
        decision_stats=stats,
    )


# -- reanalysis from a path log ------------------------------------------------


def _path_sets(scenario: Scenario) -> list[tuple[tuple[int, int], str]]:
    """((source, destination station index), algorithm) of each path set of a
    stamp, connection-major, algorithm-minor."""
    return list(product(_connection_indices(scenario), scenario.algorithms))


def index_path_log(
    scenario: Scenario, rows: Iterable[PathLogRow], template: IslTemplate
) -> Iterator[tuple[int, int, PathLogRow]]:
    """Each path-log row with its (stamp index, path-set index).

    A row whose stamp, connection, algorithm or hop ids do not fit the
    scenario, whose status, hops or src_sat are not those of a traced path, or
    whose consecutive hops are not a link of the scenario's template, or that
    repeats a greedy set's source satellite or a baseline set's (source, end)
    satellite pair, raises PathLogError with its 1-based number.
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
        yield i, k, r


def analyze_rows(scenario: Scenario, rows: Iterable[PathLogRow]) -> ExperimentResult:
    """Recompute every connection metric from a path log.

    Station coverage and positions are rebuilt from the scenario (a cheap
    topology-only sweep); paths come from the log. The series, summaries and
    location table match the original run to the six-decimal precision of
    the logged latencies.
    """
    snapshot_of, template = snapshot_at(scenario)
    grouped: dict[tuple[int, int], list[PathLogRow]] = {}
    for i, k, r in index_path_log(scenario, rows, template):
        grouped.setdefault((i, k), []).append(r)

    sets = _path_sets(scenario)
    eis = [st.ei for st in scenario.stations]

    def path_set(t: datetime, si: int, di: int, algo: str, logged: list[PathLogRow]) -> PathSet:
        if algo in _MPLF_ALGOS:
            logged.sort(key=attrgetter("src_sat"))  # trace order
        starts = np.cumsum([0] + [len(r.hop_list) for r in logged])
        sats = np.fromiter(chain.from_iterable(r.hop_list for r in logged), np.int64, starts[-1])
        end = np.array([STATUSES.index(r.status) for r in logged], dtype=np.int8)
        latency = np.array([r.latency_ms for r in logged])
        total = latency / float(link_latency_ms(1.0))
        return PathSet(eis[si], eis[di], t, algo, sats, starts, end, total, latency)

    def outcome(i: int, t: datetime) -> StampOutcome:
        pathsets = [
            path_set(t, si, di, algo, grouped.get((i, k), []))
            for k, ((si, di), algo) in enumerate(sets)
        ]
        return _stamp_outcome(snapshot_of(t), pathsets)

    return _merge(scenario, template, starmap(outcome, enumerate(scenario.time.stamps())))
