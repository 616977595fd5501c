"""Experiment runner: sweep the time grid, trace paths per connection and
algorithm, and assemble connection metrics.

Per-stamp work is independent by construction: a stamp is routed from its
snapshot alone, greedy traces aiming at the destination station's inertial
position in that snapshot. One isolating function, _stamp, finishes a stamp
from its path sets, routed or read from a log, for serial runs, workers and
reanalysis alike: set stats, path-log rows and decision counts. The sets
carry no names; _path_sets is the one list that names and orders them. The
merge folds stamps in stamp order and does only what crosses them: the
evolution chain, the failure reset, the location table, which is the last
folded stamp's (every station refreshed, then each delivering greedy set's
source), and the path log. That log is one columnar PathLog from the stamp to
the file and back; analyze_rows slices its path sets out of it and checks
each stamp's rows against that stamp's snapshot (check_stamp).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime
from functools import partial
from itertools import pairwise, product
from typing import Callable, Iterable, Sequence

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
from .topology import Snapshot, build_persistent_isls, snapshot

_MPLF_ALGOS = (ALGO_MPLF_CPI, ALGO_MPLF_NFP)


class PathLogError(ValueError):
    """A path-log row that cannot be read or does not fit the scenario.

    row is the 1-based data-row number (the header line not counted); 0
    means the header itself.
    """

    def __init__(self, row: int, message: str) -> None:
        super().__init__(f"path log row {row}: {message}")
        self.row = row


@dataclass(frozen=True, eq=False)
class PathLog:
    """The path log in columns. Row i is a path of the set path_set[i] (of
    _path_sets) at stamp[i] (of the time grid): it visits sats[starts[i]:
    starts[i + 1]], ends with the code end[i] (of STATUSES) and takes
    latency_ms[i]. A run's rows are in file order: by stamp, then set, each
    set's delivered paths and then its drops, each group in trace order."""

    stamp: np.ndarray  # int32
    path_set: np.ndarray  # int32
    end: np.ndarray  # int8
    latency_ms: np.ndarray
    sats: np.ndarray  # int32
    starts: np.ndarray  # int64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathLog):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))

    def take(self, rows: np.ndarray) -> PathLog:
        """The given rows, in that order, with one gather of their hops."""
        lengths = (self.starts[1:] - self.starts[:-1])[rows]
        starts = np.concatenate(([0], np.cumsum(lengths)))
        hops = np.repeat(self.starts[:-1][rows] - starts[:-1], lengths) + np.arange(starts[-1])
        rows_of = (self.stamp, self.path_set, self.end, self.latency_ms)
        return PathLog(*(c[rows] for c in rows_of), self.sats[hops], starts)


_NO_ROWS = PathLog(*(np.zeros(0, d) for d in (np.int32, np.int32, np.int8, float, np.int32)),
                   np.zeros(1, np.int64))


def _concat(logs: Sequence[PathLog]) -> PathLog:
    """The rows of logs, one log after another."""
    logs = [_NO_ROWS, *logs]
    offsets = np.cumsum([log.sats.size for log in logs]).tolist()
    rows = zip(*((log.stamp, log.path_set, log.end, log.latency_ms, log.sats) for log in logs))
    starts = [log.starts[1:] + lo for log, lo in zip(logs[1:], offsets)]
    return PathLog(*map(np.concatenate, rows), np.concatenate([_NO_ROWS.starts, *starts]))


def _stamp_log(i: int, path_sets: Sequence[PathSet]) -> PathLog:
    """The path-log rows of stamp i from its path sets, in file order."""
    log = _concat([
        PathLog(np.full(n, i, np.int32), np.full(n, k, np.int32), ps.end, ps.latency_ms,
                ps.sats.astype(np.int32), ps.starts)
        for k, ps in enumerate(path_sets)
        if (n := ps.end.size)
    ])
    return log.take(np.argsort(2 * log.path_set + (log.end != 0), kind="stable"))


@dataclass(frozen=True)
class StampOutcome:
    """What one stamp determines. Per set, connection-major, algorithm-minor:
    stats with vertex_changes None, and the sorted PathSet.vertices."""

    t: datetime
    station_ecef: np.ndarray
    stats: tuple[StampStats, ...]
    vertices: tuple[np.ndarray, ...]
    log: PathLog  # the stamp's rows
    comparisons: list[int]  # the candidate count of every forwarding decision


@dataclass
class ExperimentResult:
    scenario: Scenario
    series: list[ConnectionSeries]
    summaries: list[ConnectionSummary]
    path_log: PathLog
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


def snapshot_at(scenario: Scenario) -> Callable[[datetime], Snapshot]:
    """The scenario's stamp -> snapshot map. The constellation and its
    persistent-link template do not change over time, so they are built once,
    here; each call of the map builds one snapshot."""
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

    return at


def _stamp(
    sets: list[tuple[tuple[int, int], str]],
    stamps: Sequence[datetime],
    snapshot_of: Callable[[datetime], Snapshot],
    path_sets_of: Callable[[Snapshot], Iterable[PathSet]],
    i: int,
) -> StampOutcome | str:
    """Finish stamp i of stamps from its snapshot and path sets, one per entry
    of sets (_path_sets), or return the repr of the exception it raised.
    Decision counts follow set, then trace order."""
    try:
        snap = snapshot_of(t := stamps[i])
        stats, vertices, comparisons = [], [], []
        path_sets = list(path_sets_of(snap))
        for ((si, di), algo), ps in zip(sets, path_sets, strict=True):
            points = snap.station_geodetic[si], snap.station_geodetic[di]
            stats.append(make_stamp_stats(t, snap.covered(si), snap.covered(di), ps, *points))
            vertices.append(ps.vertices)
            if algo in _MPLF_ALGOS:
                comparisons.extend(decision_counts(snap.template.degree, ps))
        log = _stamp_log(i, path_sets)
        return StampOutcome(t, snap.station_ecef, tuple(stats), tuple(vertices), log, comparisons)
    except PathLogError:
        raise  # a log row that does not fit the scenario fails the whole reanalysis
    except Exception as exc:  # noqa: BLE001 - per-stamp isolation is the contract
        return repr(exc)


def _stamp_runner(
    scenario: Scenario, snapshot_of: Callable[[datetime], Snapshot]
) -> Callable[[int], StampOutcome | str]:
    pairs = _connection_indices(scenario)
    route = partial(stamp_path_sets, algorithms=scenario.algorithms, connections=pairs)
    return partial(_stamp, _path_sets(scenario), scenario.time.stamps(), snapshot_of, route)


_WORKER_STATE: dict = {}


def _worker_init(scenario: Scenario) -> None:
    _WORKER_STATE["run"] = _stamp_runner(scenario, snapshot_at(scenario))


def _worker_run(i: int) -> StampOutcome | str:
    return _WORKER_STATE["run"](i)


def run_experiment(scenario: Scenario, parallel: int = 1) -> ExperimentResult:
    """Execute a scenario over its full time grid.

    parallel > 1 distributes stamps over at most one worker process per
    stamp; results are merged in stamp order either way, so the output is
    identical. A stamp that raises is logged under failures and skipped; the
    run continues.
    """
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    stamps = range(scenario.time.count)
    workers = min(parallel, len(stamps))
    if workers == 1:
        return _merge(scenario, map(_stamp_runner(scenario, snapshot_at(scenario)), stamps))
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
    logs: list[PathLog] = []
    stamps: list[list[StampStats]] = [[] for _ in sets]
    prev: list[np.ndarray | None] = [None] * len(sets)
    stats = DecisionStats()
    last: StampOutcome | None = None
    for t, r in zip(scenario.time.stamps(), results):
        if isinstance(r, str):
            failures.append((t, r))
            prev = [None] * len(sets)
            continue
        logs.append(r.log)
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
        path_log=_concat(logs),
        failures=failures,
        location_table=table,
        decision_stats=stats,
    )


# -- reanalysis from a path log ------------------------------------------------


def check_stamp(snap: Snapshot, sets: list[tuple], part: PathLog, numbers: np.ndarray) -> None:
    """Raise PathLogError for the lowest-numbered row of part (of the sets of
    _path_sets, numbered 1-based by numbers, all at snap's stamp) whose hops
    are not template links (IslTemplate.linked), whose first satellite its
    source station does not see or, delivered, whose last one its destination
    does not see (Snapshot.edge_km)."""
    sats, starts = part.sats, part.starts
    unlinked = ~snap.template.linked(sats[:-1], sats[1:])
    unlinked[starts[1:-1] - 1] = False  # the pairs that span two rows
    src, dst = np.array([conn for conn, _ in sets], dtype=int).reshape(-1, 2)[part.path_set].T
    first, last = sats[starts[:-1]], sats[starts[1:] - 1]
    unseen = snap.edge_km[src, first] == np.inf
    bad = unseen | ((part.end == 0) & (snap.edge_km[dst, last] == np.inf))
    bad[np.searchsorted(starts, np.flatnonzero(unlinked), side="right") - 1] = True
    if bad.any():
        r = np.flatnonzero(bad)[numbers[bad].argmin()]
        pair = starts[r] + np.flatnonzero(unlinked[starts[r] : starts[r + 1] - 1])[:1]
        if pair.size:
            message = f"hops {sats[pair[0]]} and {sats[pair[0] + 1]} are not linked in the template"
        elif unseen[r]:
            message = f"first hop {first[r]} is not in view of {snap.stations[src[r]].ei}"
        else:
            message = f"last hop {last[r]} is not in view of {snap.stations[dst[r]].ei}"
        raise PathLogError(int(numbers[r]), message)


def analyze_rows(scenario: Scenario, log: PathLog) -> ExperimentResult:
    """Recompute every connection metric from a path log.

    Station coverage and positions come from the scenario (a cheap
    topology-only sweep), paths from the log. A stamp that raises is listed
    under failures, as in a run; a row whose links or ends do not fit its
    stamp's snapshot raises PathLogError (check_stamp). The series, summaries
    and location table match the run to the logged latencies' six decimals.
    """
    snapshot_of, stamps, sets = snapshot_at(scenario), scenario.time.stamps(), _path_sets(scenario)
    index_of = {t: i for i, t in enumerate(stamps)}
    # rows by stamp, set, first and last satellite: stamp_path_sets' order in each set
    first, last = log.sats[log.starts[:-1]], log.sats[log.starts[1:] - 1]
    order = np.lexsort((last, first, log.path_set, log.stamp))
    key = log.stamp[order] * np.int64(len(sets)) + log.path_set[order]
    cut = np.searchsorted(key, np.arange(len(stamps) * len(sets) + 1))
    unit = float(link_latency_ms(1.0))

    def path_sets_of(snap: Snapshot) -> list[PathSet]:
        bounds = cut[index_of[snap.t] * len(sets) :][: len(sets) + 1]
        rows = order[bounds[0] : bounds[-1]]
        part = log.take(rows)
        check_stamp(snap, sets, part, rows + 1)
        sats, s, ms = part.sats.astype(np.int64), part.starts, part.latency_ms
        return [
            PathSet(sats[s[a] : s[b]], s[a : b + 1] - s[a], part.end[a:b], ms[a:b] / unit, ms[a:b])
            for a, b in pairwise((bounds - bounds[0]).tolist())
        ]

    runner = partial(_stamp, sets, stamps, snapshot_of, path_sets_of)
    return _merge(scenario, map(runner, range(len(stamps))))
