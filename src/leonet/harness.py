"""Experiment runner: sweep the time grid, trace paths per connection and
algorithm, and assemble connection metrics.

Per-stamp work is independent by construction: a stamp is routed from its
snapshot alone, greedy traces aiming at the destination station's inertial
position in that snapshot. Stamps are finished in contiguous blocks of at
most STAMP_BLOCK (_blocks), so that work whose cost is mostly per call is
paid once per block: the snapshots of a block are built in one call
(topology.snapshot), the greedy traces of a block run as one batch and its
exact baselines as another, whose distance passes may span stamps
(routing.block_path_sets), and its path-log rows and decision counts are
assembled once. One isolating function, _block, finishes a block from its
snapshots and path sets, routed or read from a log, for serial runs,
workers and reanalysis alike: the set stats of the whole block as columns,
one row per (stamp, set), with one column of the sets' vertices
(metrics.make_stamp_stats), and the block's path-log rows and decision
counts, one small int array. A block that raises is finished again one
stamp at a time, so a stamp that raises is isolated as before. The sets
carry no names; _path_sets is the one list that names and orders them.
The merge folds blocks in stamp order and does only what crosses stamps:
it builds each StampStats once, with vertex_changes from one pass over the
stamp before's vertex rows and the block's vertex column
(StampColumns.vertex_changes); the failure reset; and the path log. That
log is one columnar PathLog from the block to the file and back;
analyze_rows slices its path sets out of it and checks each stamp's rows
against that stamp's snapshot (check_stamp).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from itertools import chain, pairwise, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .constellation import build_walker
from .geometry import link_latency_ms
from .metrics import (
    ConnectionSeries,
    ConnectionSummary,
    StampColumns,
    StampStats,
    make_stamp_stats,
    summarize,
)
from .routing import (
    ALGO_MPLF_CPI,
    ALGO_MPLF_NFP,
    STATUSES,
    DecisionStats,
    PathSet,
    block_path_sets,
    decision_counts,
    join_path_sets,
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


def _block_log(
    first: int, sets: list[tuple], paths: PathSet, counts: Sequence[int], degree: np.ndarray
) -> tuple[PathLog, list[int]]:
    """The path-log rows of the stamps first, first + 1, ... from their path
    sets, joined in paths with counts[i] paths in set i (stamp-major, each
    stamp's sets in _path_sets order), in file order, and the candidate
    count of every forwarding decision of their greedy sets, by stamp, set,
    then trace (decision_counts)."""
    group = np.repeat(np.arange(len(counts)), counts)  # stamp-major set
    stamp, path_set = np.divmod(group, len(sets))
    log = PathLog((stamp + first).astype(np.int32), path_set.astype(np.int32), paths.end,
                  paths.latency_ms, paths.sats.astype(np.int32), paths.starts)
    greedy = np.array([algo in _MPLF_ALGOS for _, algo in sets])
    comparisons = decision_counts(degree, log.take(np.flatnonzero(greedy[path_set])))
    return log.take(np.argsort(2 * group + (paths.end != 0), kind="stable")), comparisons


@dataclass(frozen=True)
class BlockOutcome:
    """What a contiguous block of stamps determines. Its stats are columns
    with one row per (stamp, set), stamp-major, each stamp's sets in
    _path_sets order, and one column of each row's distinct delivered
    satellites (metrics.StampColumns). vertex_changes, which compares a set
    with the preceding valid stamp's, is filled in by _merge."""

    stats: StampColumns
    stamps: int  # the block's stamp count
    log: PathLog  # the block's rows
    comparisons: np.ndarray  # the candidate count of every forwarding decision


@dataclass
class ExperimentResult:
    scenario: Scenario
    series: list[ConnectionSeries]
    summaries: list[ConnectionSummary]
    path_log: PathLog
    failures: list[tuple[datetime, str]]
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


def snapshot_at(scenario: Scenario) -> Callable:
    """The scenario's stamp -> snapshot map, which also maps a block of
    stamps to its list of snapshots in one call (topology.snapshot). The
    constellation and its persistent-link template do not change over time,
    so they are built once, here."""
    constellation = build_walker(scenario.constellation)
    template = build_persistent_isls(constellation, scenario.pattern)

    def at(t: datetime | Sequence[datetime]) -> Snapshot | list[Snapshot]:
        return snapshot(
            constellation,
            scenario.stations,
            scenario.pattern,
            t,
            scenario.elevation_min_deg,
            template=template,
        )

    return at


# the most stamps routed as one block. A block's snapshots, the kernel's
# stacked positions and the baselines' stacked slot weights stay alive
# together: on perfbench (40x40, a 2-core Xeon) blocks of 4, 6 and 8 stamps
# raised the bench's peak RSS over blocks of one stamp by 0.4, 1.6 and 1.6 MB
# on static-baselines and by 0.4, 1.5 and 2.8 MB on mobile-greedy, and cut
# its wall_s from 0.171 s to 0.116, 0.100 and 0.101 s and from 0.279 s to
# 0.175, 0.162 and 0.152 s
STAMP_BLOCK = 6


def _blocks(count: int, workers: int = 1) -> list[range]:
    """The stamps 0..count - 1 in contiguous, near-equal blocks, in order, each
    at most STAMP_BLOCK long. Their number is rounded up to a multiple of
    workers, as far as the stamps allow, so that a pool that hands out one
    block at a time gives each worker an equal share."""
    m = -(-count // STAMP_BLOCK)
    m = min(count, -(-m // workers) * workers)
    q, r = divmod(count, max(m, 1))
    bounds = np.cumsum([0] + [q + 1] * r + [q] * (m - r)).tolist()
    return [range(a, b) for a, b in pairwise(bounds)]


def _block(
    sets: list[tuple[tuple[int, int], str]],
    stamps: Sequence[datetime],
    snapshot_of: Callable[[list[datetime]], list[Snapshot]],
    path_sets_of: Callable[[list[Snapshot]], Sequence[Sequence[PathSet]]],
    block: range,
) -> list[BlockOutcome | str]:
    """Finish the stamps block (indices into stamps) from their snapshots and
    path sets, one list per snapshot with one set per entry of sets
    (_path_sets). A block that raises anything but PathLogError is run again
    one stamp at a time, so that it comes back as outcomes of its stamps, a
    failed stamp as the repr of the exception it raised."""
    try:
        snaps = snapshot_of([stamps[i] for i in block])
        flat = [
            ps
            for _, path_sets in zip(snaps, path_sets_of(snaps), strict=True)
            for _, ps in zip(sets, path_sets, strict=True)
        ]
        paths, counts = join_path_sets(flat), [ps.end.size for ps in flat]
        pairs = dict.fromkeys(conn for conn, _ in sets)  # in order: sets are connection-major
        ends = [(snap, si, di) for snap in snaps for si, di in pairs]
        stats = make_stamp_stats(
            paths,
            counts,
            [(snap.covered(si), snap.covered(di)) for snap, si, di in ends],
            [(snap.station_geodetic[si], snap.station_geodetic[di]) for snap, si, di in ends],
        )
        log, comparisons = _block_log(block.start, sets, paths, counts, snaps[0].template.degree)
        return [BlockOutcome(stats, len(block), log, comparisons)]
    except PathLogError:
        raise  # a log row that does not fit the scenario fails the whole reanalysis
    except Exception as exc:  # noqa: BLE001 - per-stamp isolation is the contract
        if len(block) == 1:
            return [repr(exc)]
        run = partial(_block, sets, stamps, snapshot_of, path_sets_of)
        return [r for i in block for r in run(range(i, i + 1))]


def _block_runner(
    scenario: Scenario, snapshot_of: Callable[[list[datetime]], list[Snapshot]]
) -> Callable[[range], list[BlockOutcome | str]]:
    pairs = _connection_indices(scenario)
    route = partial(block_path_sets, algorithms=scenario.algorithms, connections=pairs)
    return partial(_block, _path_sets(scenario), scenario.time.stamps(), snapshot_of, route)


_WORKER_STATE: dict = {}


def _worker_init(scenario: Scenario) -> None:
    _WORKER_STATE["run"] = _block_runner(scenario, snapshot_at(scenario))


def _worker_run(block: range) -> list[BlockOutcome | str]:
    return _WORKER_STATE["run"](block)


def run_experiment(scenario: Scenario, parallel: int = 1) -> ExperimentResult:
    """Execute a scenario over its full time grid.

    Stamps are routed in contiguous blocks of at most STAMP_BLOCK (_blocks).
    parallel > 1 hands whole blocks to at most one worker process per stamp,
    one block at a time; the blocks' count is a multiple of the workers'.
    Results are merged in stamp order either way, so the output is identical.
    A stamp that raises is logged under failures and skipped; the run
    continues.
    """
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    workers = min(parallel, scenario.time.count)
    blocks = _blocks(scenario.time.count, workers)
    if workers == 1:
        return _merge(scenario, map(_block_runner(scenario, snapshot_at(scenario)), blocks))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(scenario,)
    ) as pool:
        return _merge(scenario, pool.map(_worker_run, blocks))


def _merge(scenario: Scenario, blocks: Iterable[list[BlockOutcome | str]]) -> ExperimentResult:
    """Fold finished blocks, each the list _block returns, in stamp order,
    keeping only the last one. Each StampStats is built here, once, with its
    vertex_changes: path_evolution of the set's vertices and those of the
    same set at the stamp before, if that stamp is valid, in one pass per
    block (StampColumns.vertex_changes) with the stamp before's vertex rows
    placed first. A failed stamp (its exception's repr) is logged and leaves
    the next stamp without a predecessor: empty rows, none valid. The
    decision counts are concatenated once."""
    sets = _path_sets(scenario)
    n = len(sets)
    times = iter(scenario.time.stamps())
    failures: list[tuple[datetime, str]] = []
    logs: list[PathLog] = []
    comparisons: list[np.ndarray] = [np.zeros(0, np.uint8)]
    stamps: list[list[StampStats]] = [[] for _ in sets]
    # the stamp before's vertices, its rows' vertex counts and validity
    none_before = (np.zeros(0, np.int32), np.zeros(n, np.int64), np.zeros(n, bool))
    before = none_before
    for r in chain.from_iterable(blocks):
        if isinstance(r, str):
            failures.append((next(times), r))
            before = none_before
            continue
        logs.append(r.log)
        comparisons.append(r.comparisons)
        columns = r.stats
        vertices, counts, valid = before
        changes = columns.vertex_changes(vertices, counts).tolist()
        known = (np.concatenate((valid, columns.valid[:-n])) & (columns.n_paths > 0)).tolist()
        cut = columns.vertex_starts[-n - 1 :]
        before = (columns.vertices[cut[0] :], np.diff(cut), columns.valid[-n:])
        block_times = [next(times) for _ in range(r.stamps)]
        block_stats = columns.rows([t for t in block_times for _ in sets],
                                   [c if on else None for c, on in zip(changes, known)])
        for k, series in enumerate(stamps):
            series.extend(block_stats[k::n])

    eis = [st.ei for st in scenario.stations]
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
        decision_stats=DecisionStats(np.concatenate(comparisons).tolist()),
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
    stamp's snapshot raises PathLogError (check_stamp). The series and
    summaries match the run to the logged latencies' six decimals.
    """
    snapshot_of, stamps, sets = snapshot_at(scenario), scenario.time.stamps(), _path_sets(scenario)
    index_of = {t: i for i, t in enumerate(stamps)}
    # rows by stamp, set, first and last satellite: stamp_path_sets' order in each set
    first, last = log.sats[log.starts[:-1]], log.sats[log.starts[1:] - 1]
    order = np.lexsort((last, first, log.path_set, log.stamp))
    key = log.stamp[order] * np.int64(len(sets)) + log.path_set[order]
    cut = np.searchsorted(key, np.arange(len(stamps) * len(sets) + 1))
    unit = float(link_latency_ms(1.0))

    def path_sets_at(snap: Snapshot) -> list[PathSet]:
        bounds = cut[index_of[snap.t] * len(sets) :][: len(sets) + 1]
        rows = order[bounds[0] : bounds[-1]]
        part = log.take(rows)
        check_stamp(snap, sets, part, rows + 1)
        sats, s, ms = part.sats.astype(np.int64), part.starts, part.latency_ms
        return [
            PathSet(sats[s[a] : s[b]], s[a : b + 1] - s[a], part.end[a:b], ms[a:b] / unit, ms[a:b])
            for a, b in pairwise((bounds - bounds[0]).tolist())
        ]

    def path_sets_of(snaps: list[Snapshot]) -> list[list[PathSet]]:
        return [path_sets_at(snap) for snap in snaps]

    runner = partial(_block, sets, stamps, snapshot_of, path_sets_of)
    return _merge(scenario, map(runner, _blocks(len(stamps))))
