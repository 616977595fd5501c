"""Connection-level metrics over traced path sets (routing.PathSet columns).

Conventions: a stamp has a reachability indicator psi (StampStats.psi) only
when both stations are covered (an uncovered endpoint is an access gap, not a
routing failure, and is reported separately as an invalid stamp); a series'
reachable probability is the mean of its psi. A stamp is "valid" for
latency/hop/diversity statistics when both stations are covered and at least
one path was delivered. Edge-link lengths count toward latency and stretch.
make_stamp_stats is the only stretch: each delivered path's total length over
the stations' great circle, None for coincident stations. summarize rolls
latency and hops up by one rule over the valid stamps: the global minimum,
the mean of the per-stamp means and the global maximum.
The per-stamp CDF tables are written from the series by the exporters.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING

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


def path_independence(paths: PathSet) -> float:
    """Vertex count over edge count of the deduplicated satellite-only union
    of a set's delivered paths.

    Higher values mean less shared infrastructure between the paths. The
    union must contain at least one satellite link; edge links never count.
    """
    if not paths.vertices.size:
        raise ValueError("path set is empty")
    # entry j of a delivered path links to entry j + 1 unless a path starts there
    link = np.repeat(paths.delivered, paths.hops + 1)[:-1]
    link[paths.starts[1:-1] - 1] = False
    a, b = paths.sats[:-1][link], paths.sats[1:][link]
    if not a.size:
        raise ValueError("path union has no satellite links")
    edges = np.sort(np.minimum(a, b) << 32 | np.maximum(a, b))
    return paths.vertices.size / (1 + np.count_nonzero(edges[1:] != edges[:-1]))


def path_evolution(before: np.ndarray, after: np.ndarray) -> int:
    """Size of the symmetric difference of two sets' delivered satellites,
    each given as its distinct ids (PathSet.vertices)."""
    both = np.sort(np.concatenate((before, after)))
    return both.size - 2 * int(np.count_nonzero(both[1:] == both[:-1]))


def geodesic_reference_latency_ms(geodesic_km: float) -> float:
    """Latency yardstick: the station great-circle at fiber speed (2c/3)."""
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


def _spread(values: list) -> tuple:
    """(min, mean, max) of the values by Python's min, sum and max; Nones if none."""
    return (min(values), sum(values) / len(values), max(values)) if values else (None,) * 3


def make_stamp_stats(
    t: datetime,
    covered_src: bool,
    covered_dst: bool,
    paths: PathSet,
    src_point: GeodeticPoint,
    dst_point: GeodeticPoint,
) -> StampStats:
    """Aggregate one stamp's path set into a stats row, the spreads over its
    delivered paths in set order.

    vertex_changes is left None: it compares the set with the preceding valid
    stamp's (path_evolution), which the stamp alone does not know.
    """
    geo = geodesic_distance(src_point, dst_point)
    delivered = paths.delivered
    n_paths = int(np.count_nonzero(delivered))
    try:
        gamma = path_independence(paths)
    except ValueError:
        gamma = None  # nothing delivered, or an all-bent-pipe union with no satellite link
    stretches = (paths.total_km[delivered] / geo).tolist() if geo > 0.0 else []
    return StampStats(  # positional in field order, up to the last spread
        t,
        covered_src,
        covered_dst,
        n_paths,
        delivered.size - n_paths,
        (1 if n_paths else 0) if covered_src and covered_dst else None,
        *_spread(paths.latency_ms[delivered].tolist()),
        *_spread(paths.hops[delivered].tolist()),
        gamma,
        *_spread(stretches),
        vertex_changes=None,
        geodesic_km=geo,
        geodesic_latency_ms=geodesic_reference_latency_ms(geo),
    )


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
    return SeriesStats(min(mins), sum(avgs) / len(avgs), max(maxs))


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
