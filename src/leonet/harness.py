"""Experiment runner: sweep the time grid, trace paths per connection and
algorithm, and assemble connection metrics.

Per-stamp work is independent by construction (the destination address in a
header is derived from the location table as refreshed at that same stamp),
so stamps may be computed in parallel and merged in stamp order. The
run-level location table is maintained serially in stamp order: a refresh of
every station entry per stamp, then a delivery update of the source entry
for every delivered greedy path.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from .constellation import Constellation, build_walker
from .geometry import GeodeticPoint, geodetic_to_ecef, link_latency_ms
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
    DecisionStats,
    LocationTable,
    PathSet,
    enumerate_paths,
    ler_encapsulate,
    record_delivery,
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

    t: datetime
    station_points: tuple[GeodeticPoint, ...]
    station_ecef: np.ndarray
    covered: tuple[bool, ...]
    pathsets: tuple[PathSet, ...]  # connection-major, algorithm-minor
    comparisons: tuple[int, ...] = ()  # candidates per forwarding decision


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


def _compute_stamp(
    constellation: Constellation,
    template: IslTemplate,
    scenario: Scenario,
    t: datetime,
) -> StampOutcome | str:
    """The stamp's outcome, or the repr of the exception it raised."""
    stats = DecisionStats()
    try:
        snap = snapshot(
            constellation,
            scenario.stations,
            scenario.pattern,
            t,
            scenario.elevation_min_deg,
            template=template,
        )
        epoch = scenario.constellation.epoch
        # stamp-local view of the location service: every EI at its true position
        table = LocationTable()
        for i, st in enumerate(scenario.stations):
            table.update(st.ei, snap.station_ecef[i], t)

        pathsets: list[PathSet] = []
        for si, di in _connection_indices(scenario):
            src = scenario.stations[si]
            dst = scenario.stations[di]
            header = ler_encapsulate(table, src.ei, dst.ei, t, epoch)
            for algo in scenario.algorithms:
                dest_pos = header.dst_saddr if algo in _MPLF_ALGOS else None
                pathsets.append(
                    enumerate_paths(snap, algo, si, di, dest_pos=dest_pos, stats=stats)
                )
        return StampOutcome(
            t=t,
            station_points=snap.station_geodetic,
            station_ecef=snap.station_ecef,
            covered=tuple(snap.covered(i) for i in range(len(scenario.stations))),
            pathsets=tuple(pathsets),
            comparisons=tuple(stats.comparisons),
        )
    except Exception as exc:  # noqa: BLE001 - per-stamp isolation is the contract
        return repr(exc)


_WORKER_STATE: dict = {}


def _worker_init(scenario: Scenario) -> None:
    constellation = build_walker(scenario.constellation)
    _WORKER_STATE["scenario"] = scenario
    _WORKER_STATE["constellation"] = constellation
    _WORKER_STATE["template"] = build_persistent_isls(constellation, scenario.pattern)


def _worker_run(t: datetime) -> StampOutcome | str:
    return _compute_stamp(
        _WORKER_STATE["constellation"],
        _WORKER_STATE["template"],
        _WORKER_STATE["scenario"],
        t,
    )


def _row_from_path(t: datetime, algo: str, src_ei: str, dst_ei: str, p) -> PathLogRow:
    status = "delivered" if p.delivered else f"dropped:{p.drop_reason}"
    return PathLogRow(
        t=t,
        algorithm=algo,
        src_station=src_ei,
        dst_station=dst_ei,
        src_sat=p.src_sat,
        hop_list=tuple(p.sats),
        latency_ms=p.latency_ms,
        hops=p.hops,
        status=status,
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
    if parallel == 1:
        constellation = build_walker(scenario.constellation)
        template = build_persistent_isls(constellation, scenario.pattern)
        results = [_compute_stamp(constellation, template, scenario, t) for t in stamps]
    else:
        with ProcessPoolExecutor(
            max_workers=parallel, initializer=_worker_init, initargs=(scenario,)
        ) as pool:
            results = list(pool.map(_worker_run, stamps))
    failures = [(t, r) for t, r in zip(stamps, results) if isinstance(r, str)]
    outcomes = [None if isinstance(r, str) else r for r in results]
    stats = DecisionStats()
    for out in outcomes:
        if out is not None:
            stats.comparisons.extend(out.comparisons)

    # run-level location table, updated in stamp order
    epoch = scenario.constellation.epoch
    table = LocationTable()
    for out in outcomes:
        if out is None:
            continue
        for i, st in enumerate(scenario.stations):
            table.update(st.ei, out.station_ecef[i], out.t)
        for ps in out.pathsets:
            if ps.algorithm in _MPLF_ALGOS and ps.any_delivered:
                header = ler_encapsulate(table, ps.src_ei, ps.dst_ei, out.t, epoch)
                record_delivery(table, header, epoch)

    series, records, path_rows = _assemble(scenario, outcomes)
    summaries = [summarize(s) for s in series]
    return ExperimentResult(
        scenario=scenario,
        series=series,
        summaries=summaries,
        path_rows=path_rows,
        records=records,
        failures=failures,
        location_table=table,
        decision_stats=stats,
    )


def _assemble(
    scenario: Scenario, outcomes: Sequence[StampOutcome | None]
) -> tuple[list[ConnectionSeries], list[ReachabilityRecord], list[PathLogRow]]:
    conn_idx = _connection_indices(scenario)
    algos = scenario.algorithms
    n_algo = len(algos)
    series: list[ConnectionSeries] = []
    records: list[ReachabilityRecord] = []
    rows: list[PathLogRow] = []

    # path log in stamp-major order
    for out in outcomes:
        if out is None:
            continue
        for ps in out.pathsets:
            for p in ps.paths:
                rows.append(_row_from_path(out.t, ps.algorithm, ps.src_ei, ps.dst_ei, p))
            for p in ps.drops:
                rows.append(_row_from_path(out.t, ps.algorithm, ps.src_ei, ps.dst_ei, p))

    for c, (si, di) in enumerate(conn_idx):
        for a, algo in enumerate(algos):
            stamps: list[StampStats] = []
            prev_delivered = None
            for out in outcomes:
                if out is None:
                    prev_delivered = None
                    continue
                ps = out.pathsets[c * n_algo + a]
                st = make_stamp_stats(
                    t=out.t,
                    covered_src=out.covered[si],
                    covered_dst=out.covered[di],
                    delivered=ps.paths,
                    n_drops=len(ps.drops),
                    src_point=out.station_points[si],
                    dst_point=out.station_points[di],
                    prev_delivered=prev_delivered,
                )
                stamps.append(st)
                if st.psi is not None:
                    records.append(
                        ReachabilityRecord(ps.src_ei, ps.dst_ei, out.t, st.psi)
                    )
                prev_delivered = ps.paths if st.valid else None
            series.append(
                ConnectionSeries(
                    src_ei=scenario.stations[si].ei,
                    dst_ei=scenario.stations[di].ei,
                    algorithm=algo,
                    stamps=tuple(stamps),
                )
            )
    return series, records, rows


# -- reanalysis from a path log ------------------------------------------------


@dataclass(frozen=True)
class LoggedPath:
    """Path surface reconstructed from a log row (lengths folded into latency)."""

    sats: tuple[int, ...]
    status: str
    latency_value_ms: float

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"

    @property
    def drop_reason(self) -> str | None:
        return self.status.split(":", 1)[1] if ":" in self.status else None

    @property
    def src_sat(self) -> int:
        return self.sats[0]

    @property
    def hops(self) -> int:
        return len(self.sats) - 1

    @property
    def latency_ms(self) -> float:
        return self.latency_value_ms

    @property
    def total_km(self) -> float:
        return self.latency_value_ms / float(link_latency_ms(1.0))


def analyze_rows(scenario: Scenario, rows: Iterable[PathLogRow]) -> ExperimentResult:
    """Recompute every connection metric from a path log.

    Station coverage and positions are rebuilt from the scenario (a cheap
    topology-only sweep); paths come from the log. Produces the same series
    and summaries as the original run.
    """
    constellation = build_walker(scenario.constellation)
    template = build_persistent_isls(constellation, scenario.pattern)
    stamps = scenario.time.stamps()
    index_of = {t: i for i, t in enumerate(stamps)}
    conn_idx = _connection_indices(scenario)
    algos = scenario.algorithms
    n_algo = len(algos)
    conn_pos = {
        (scenario.stations[si].ei, scenario.stations[di].ei): c
        for c, (si, di) in enumerate(conn_idx)
    }
    algo_pos = {a: i for i, a in enumerate(algos)}

    grouped: dict[tuple[int, int], tuple[list[LoggedPath], list[LoggedPath]]] = {}
    for n, r in enumerate(rows, start=1):
        if r.t not in index_of:
            raise PathLogError(n, f"stamp {r.t} is outside the scenario time grid")
        conn = conn_pos.get((r.src_station, r.dst_station))
        if conn is None:
            raise PathLogError(
                n, f"connection {r.src_station}->{r.dst_station} is not in the scenario"
            )
        if r.algorithm not in algo_pos:
            raise PathLogError(n, f"algorithm {r.algorithm!r} is not in the scenario")
        key = (index_of[r.t], conn * n_algo + algo_pos[r.algorithm])
        delivered, dropped = grouped.setdefault(key, ([], []))
        p = LoggedPath(sats=r.hop_list, status=r.status, latency_value_ms=r.latency_ms)
        (delivered if p.delivered else dropped).append(p)

    outcomes: list[StampOutcome | None] = []
    for i, t in enumerate(stamps):
        snap = snapshot(
            constellation,
            scenario.stations,
            scenario.pattern,
            t,
            scenario.elevation_min_deg,
            template=template,
        )
        pathsets: list[PathSet] = []
        for c, (si, di) in enumerate(conn_idx):
            for a, algo in enumerate(algos):
                delivered, dropped = grouped.get((i, c * n_algo + a), ([], []))
                pathsets.append(
                    PathSet(
                        src_ei=scenario.stations[si].ei,
                        dst_ei=scenario.stations[di].ei,
                        t=t,
                        algorithm=algo,
                        paths=tuple(delivered),
                        drops=tuple(dropped),
                    )
                )
        outcomes.append(
            StampOutcome(
                t=t,
                station_points=snap.station_geodetic,
                station_ecef=snap.station_ecef,
                covered=tuple(snap.covered(k) for k in range(len(scenario.stations))),
                pathsets=tuple(pathsets),
            )
        )

    series, records, path_rows = _assemble(scenario, outcomes)
    return ExperimentResult(
        scenario=scenario,
        series=series,
        summaries=[summarize(s) for s in series],
        path_rows=path_rows,
        records=records,
        failures=[],
        location_table=LocationTable(),
        decision_stats=DecisionStats(),
    )
