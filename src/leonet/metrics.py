"""Connection-level metrics over traced path sets (routing.PathSet columns).

Conventions: a stamp has a reachability indicator psi (StampStats.psi) only
when both stations are covered (an uncovered endpoint is an access gap, not a
routing failure, and is reported separately as an invalid stamp); a series'
reachable probability is the mean of its psi. A stamp is "valid" for
latency/hop/diversity statistics when both stations are covered and at least
one path was delivered. Edge-link lengths count toward latency and stretch.
make_stamp_stats measures a block of path sets in one columnar pass, one row
per set (StampColumns), with every set's distinct delivered satellites in one
vertex column; the run's merge turns the rows into StampStats and fills in
vertex_changes (path_evolution). It is the only stretch: each delivered
path's total length over the stations' great circle, None for coincident
stations. summarize rolls latency and hops up by one rule over the valid
stamps: the global minimum, the mean of the per-stamp means and the global
maximum. Means are summed left to right, as Python's sum of floats does on
3.10 and 3.11 (3.12 compensates), so no bit depends on the Python version.
The per-stamp CDF tables are written from the series by the exporters.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from datetime import datetime
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT_KM_PER_S,
    GeodeticPoint,
    geodesic_distance,
)

if TYPE_CHECKING:
    from .routing import PathSet

# reference propagation speed for the geodesic yardstick: two thirds of c,
# the usual fiber-optic figure
FIBER_SPEED_KM_PER_S = 2.0 * SPEED_OF_LIGHT_KM_PER_S / 3.0


# the station points of path_independence, which measures no stretch
_NOWHERE = (GeodeticPoint(0.0, 0.0), GeodeticPoint(0.0, 0.0))


def path_independence(paths: PathSet) -> float:
    """Vertex count over edge count of the deduplicated satellite-only union
    of a set's delivered paths: the one-set case of make_stamp_stats.

    Higher values mean less shared infrastructure between the paths. The
    union must contain at least one satellite link; edge links never count.
    """
    gamma = float(make_stamp_stats(paths, [paths.end.size], [(True, True)], [_NOWHERE]).gamma[0])
    if math.isnan(gamma):
        raise ValueError("path union has no satellite links" if paths.delivered.any()
                         else "path set is empty")
    return gamma


def path_evolution(before: np.ndarray, after: np.ndarray) -> int:
    """Size of the symmetric difference of two sets' delivered satellites,
    each given as its distinct ids, ascending (StampColumns.vertices)."""
    both = np.sort(np.concatenate((before, after)))
    return both.size - 2 * int(np.count_nonzero(both[1:] == both[:-1]))


def geodesic_reference_latency_ms(geodesic_km: float | np.ndarray) -> float | np.ndarray:
    """Latency yardstick: the station great-circle at fiber speed (2c/3);
    elementwise on an array."""
    return geodesic_km / FIBER_SPEED_KM_PER_S * 1000.0


# -- per-connection series -----------------------------------------------------


@dataclass(frozen=True)
class StampStats:
    """Everything measured for one (connection, algorithm, stamp)."""

    t: datetime
    covered_src: bool
    covered_dst: bool
    n_paths: int
    n_drops: int
    psi: int | None  # None when either endpoint is uncovered
    latency_min_ms: float | None
    latency_avg_ms: float | None
    latency_max_ms: float | None
    hops_min: int | None
    hops_avg: float | None
    hops_max: int | None
    gamma: float | None
    stretch_min: float | None
    stretch_avg: float | None
    stretch_max: float | None
    vertex_changes: int | None
    geodesic_km: float
    geodesic_latency_ms: float

    @property
    def valid(self) -> bool:
        return self.covered_src and self.covered_dst and self.n_paths > 0


@dataclass(frozen=True, eq=False)
class StampColumns:
    """The stats of a block of path sets in columns (make_stamp_stats), row i
    for the block's set i. A float column holds NaN where StampStats holds
    None: the spreads of a set that delivered nothing, gamma of a union with
    no satellite link, the stretches of coincident stations. Row i's distinct
    delivered satellites, ascending, are vertices[vertex_starts[i]:
    vertex_starts[i + 1]]; they stay columns, for the merge's vertex_changes."""

    covered: np.ndarray  # (rows, 2) bool: the source and the destination station
    n_paths: np.ndarray  # int64
    n_drops: np.ndarray  # int64
    hops: np.ndarray  # (rows, 2) int64: hops_min, hops_max (0 without a delivered path)
    # (rows, 8): latency_min_ms, latency_avg_ms, latency_max_ms, hops_avg,
    # stretch_min, stretch_avg, stretch_max, gamma
    floats: np.ndarray
    geodesic_km: np.ndarray
    vertices: np.ndarray  # int32
    vertex_starts: np.ndarray  # int64, rows + 1

    @property
    def gamma(self) -> np.ndarray:
        return self.floats[:, 7]

    @property
    def valid(self) -> np.ndarray:
        """StampStats.valid of each row."""
        return self.covered.all(axis=1) & (self.n_paths > 0)

    def vertex_changes(self, before: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """path_evolution of each row i against row i - lag, lag = counts.size
        >= 1 (the same set one stamp earlier), where the lag rows before row
        0 hold counts[j] satellites each, end to end in before: one sort of
        (pair, satellite) keys, pair i holding the vertices of rows i and
        i - lag, a satellite in both one repeated key."""
        lag, vertices = counts.size, np.concatenate((before, self.vertices))
        count = np.concatenate((counts, np.diff(self.vertex_starts)))
        row = np.repeat(np.arange(count.size), count)
        later, earlier = row >= lag, row < count.size - lag
        span = int(vertices.max(initial=-1)) + 1
        keys = np.sort(np.concatenate((row[later] * span + vertices[later],
                                       (row[earlier] + lag) * span + vertices[earlier])))
        shared = np.bincount(keys[1:][keys[1:] == keys[:-1]] // span, minlength=count.size)
        return count[lag:] + count[:-lag] - 2 * shared[lag:]

    def rows(
        self, times: Sequence[datetime], vertex_changes: Sequence[int | None]
    ) -> list[StampStats]:
        """Row i as a StampStats at times[i] with vertex_changes[i], each
        value a Python scalar or None."""
        empty = self.n_paths == 0
        psi = (~empty).astype(np.int64).astype(object)
        psi[~self.covered.all(axis=1)] = None
        hops = self.hops.astype(object)
        hops[empty] = None
        floats = self.floats.astype(object)
        floats[np.isnan(self.floats)] = None
        lat_min, lat_avg, lat_max, hops_avg, *stretch, gamma = floats.T.tolist()
        hops_min, hops_max = hops.T.tolist()
        geo = self.geodesic_km
        return list(map(
            StampStats, times, *self.covered.T.tolist(), self.n_paths.tolist(),
            self.n_drops.tolist(), psi.tolist(), lat_min, lat_avg, lat_max, hops_min, hops_avg,
            hops_max, gamma, *stretch, vertex_changes, geo.tolist(),
            geodesic_reference_latency_ms(geo).tolist(),
        ))


def make_stamp_stats(
    paths: PathSet,
    counts: Sequence[int],
    covered: Sequence[tuple[bool, bool]],
    ends: Sequence[tuple[GeodeticPoint, GeodeticPoint]],
) -> StampColumns:
    """The stats of a block of path sets in one columnar pass.

    paths holds the sets' paths one set after another
    (routing.join_path_sets), counts[i] of them in set i. ends holds the
    source and destination station points of each (stamp, connection),
    covered whether each of the two sees a satellite: len(counts) //
    len(ends) consecutive sets (one per algorithm) to each entry, in the
    same order. The geodesic is computed once per entry. The spreads are over
    each set's delivered paths: min and max by segment, the mean summed left
    to right in set order, as Python's sum of floats does on 3.10 and 3.11.
    gamma and the vertices come from sorted (set, satellite) and (set, link)
    keys. A set alone is a block of one: make_stamp_stats(ps, [ps.end.size],
    ...).
    """
    rows = len(counts)
    per = rows // max(len(ends), 1)
    geo = np.repeat([geodesic_distance(a, b) for a, b in ends], per)
    cover = np.repeat(np.array(covered, dtype=bool).reshape(-1, 2), per, axis=0)
    row = np.repeat(np.arange(rows), counts)  # of each path
    delivered, entries, sats = paths.delivered, paths.hops + 1, paths.sats
    n_paths = np.bincount(row[delivered], minlength=rows)
    # the delivered paths, set by set in set order: set i's from first[i]
    d_row, hops = row[delivered], paths.hops[delivered]
    first = np.cumsum(n_paths) - n_paths
    latency, km = paths.latency_ms[delivered], paths.total_km[delivered]
    stretch = np.divide(km, geo[d_row], out=np.full(km.size, np.nan), where=geo[d_row] > 0.0)
    spread = np.stack((latency, hops, stretch), axis=1)
    # left-to-right sums: with the sets ranked by size, largest first, those
    # with a path at position p are a prefix of the ranking, so with the paths
    # placed by (position, rank) each step adds one slice to a prefix
    rank = np.empty(rows, np.int64)
    rank[np.argsort(-n_paths, kind="stable")] = np.arange(rows)
    pos = np.arange(d_row.size) - first[d_row]
    live = np.bincount(pos)  # the sets with a path at each position
    at = np.cumsum(live) - live
    ordered = np.empty_like(spread)
    ordered[at[pos] + rank[d_row]] = spread
    sums = np.zeros((rows, 3))
    for lo, count in zip(at.tolist(), live.tolist()):
        sums[:count] += ordered[lo : lo + count]
    means = sums[rank] / np.maximum(n_paths, 1)[:, None]
    floats = np.full((rows, 8), np.nan)
    hop_ends = np.zeros((rows, 2), np.int64)
    some = np.flatnonzero(n_paths)
    if some.size:
        low, high = (f.reduceat(spread, first[some]) for f in (np.minimum, np.maximum))
        floats[some, :7] = np.column_stack((low[:, 0], means[some, 0], high[:, 0], means[some, 1],
                                            low[:, 2], means[some, 2], high[:, 2]))
        hop_ends[some] = np.column_stack((low[:, 1], high[:, 1]))
    # distinct (set, satellite) and (set, link) keys of the delivered entries;
    # entry j links to entry j + 1 unless a path starts there
    e_row, on = np.repeat(row, entries), np.repeat(delivered, entries)
    span = int(sats.max(initial=-1)) + 1
    v_row, vertices = np.divmod(_distinct(e_row[on] * span + sats[on]), span)
    link = on[:-1].copy()
    link[paths.starts[1:-1] - 1] = False
    a, b = sats[:-1][link], sats[1:][link]
    links = _distinct((e_row[:-1][link] * span + np.minimum(a, b)) * span + np.maximum(a, b))
    n_vertices = np.bincount(v_row, minlength=rows)
    n_links = np.bincount(links // (span * span), minlength=rows)
    np.divide(n_vertices, n_links, out=floats[:, 7], where=n_links > 0)
    return StampColumns(
        cover, n_paths, np.bincount(row, minlength=rows) - n_paths, hop_ends, floats, geo,
        vertices.astype(np.int32), np.concatenate(([0], np.cumsum(n_vertices))),
    )


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of non-negative keys, ascending, by one sort."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


@dataclass(frozen=True)
class ConnectionSeries:
    """Time series of stamp stats for one (connection, algorithm)."""

    src_ei: str
    dst_ei: str
    algorithm: str
    stamps: tuple[StampStats, ...]

    def valid_stamps(self) -> tuple[StampStats, ...]:
        return tuple(s for s in self.stamps if s.valid)


@dataclass(frozen=True)
class SeriesStats:
    """Order statistics of one quantity over the valid stamps of a series."""

    minimum: float
    average: float
    maximum: float


def _series_stats(valid: tuple[StampStats, ...], *fields: str) -> SeriesStats | None:
    """One quantity over the valid stamps, read as floats from its (min, avg,
    max) StampStats fields: the global min, the mean of the per-stamp means
    and the global max; None if no stamp is valid."""
    if not valid:
        return None
    mins, avgs, maxs = ([float(getattr(s, f)) for s in valid] for f in fields)
    # summed left to right: Python's sum of floats is compensated from 3.12 on
    return SeriesStats(min(mins), reduce(add, avgs, 0.0) / len(avgs), max(maxs))


@dataclass(frozen=True)
class ConnectionSummary:
    """Per-connection rollup used by reports and acceptance checks."""

    src_ei: str
    dst_ei: str
    algorithm: str
    n_stamps: int
    n_valid: int
    n_invalid: int
    reachable_probability: float | None
    latency: SeriesStats | None
    hops: SeriesStats | None
    gamma_median: float | None
    stretch_max: float | None
    frac_changes_le_20: float | None


def summarize(series: ConnectionSeries) -> ConnectionSummary:
    valid = series.valid_stamps()
    psis = [s.psi for s in series.stamps if s.psi is not None]
    gammas = [s.gamma for s in valid if s.gamma is not None]
    stretches = [s.stretch_max for s in valid if s.stretch_max is not None]
    changes = [s.vertex_changes for s in series.stamps if s.vertex_changes is not None]
    return ConnectionSummary(
        src_ei=series.src_ei,
        dst_ei=series.dst_ei,
        algorithm=series.algorithm,
        n_stamps=len(series.stamps),
        n_valid=len(valid),
        n_invalid=len(series.stamps) - len(valid),
        reachable_probability=(sum(psis) / len(psis)) if psis else None,
        latency=_series_stats(valid, "latency_min_ms", "latency_avg_ms", "latency_max_ms"),
        hops=_series_stats(valid, "hops_min", "hops_avg", "hops_max"),
        gamma_median=statistics.median(gammas) if gammas else None,
        stretch_max=max(stretches) if stretches else None,
        frac_changes_le_20=(
            sum(1 for c in changes if c <= 20) / len(changes) if changes else None
        ),
    )
