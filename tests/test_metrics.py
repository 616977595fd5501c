"""Connection metrics against closed-form oracles on synthetic path sets."""

import math
from dataclasses import dataclass, replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leonet.geometry import (
    EARTH_RADIUS_KM,
    SPEED_OF_LIGHT_KM_PER_S,
    GeodeticPoint,
    geodesic_distance,
    utc,
)
from leonet.routing import STATUSES, PathSet
from leonet.metrics import (
    FIBER_SPEED_KM_PER_S,
    ConnectionSeries,
    geodesic_reference_latency_ms,
    make_stamp_stats,
    path_evolution,
    path_independence,
    summarize,
)

EPOCH = utc(2025, 1, 1)


@dataclass(frozen=True)
class FakePath:
    """Stand-in for one path, with explicit totals."""

    sats: tuple[int, ...]
    status: str = "delivered"
    up_km: float = 0.0
    down_km: float = 0.0
    isl_km_each: float = 1000.0

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"

    @property
    def hops(self) -> int:
        return len(self.sats) - 1

    @property
    def total_km(self) -> float:
        return self.up_km + self.down_km + self.isl_km_each * self.hops

    @property
    def latency_ms(self) -> float:
        return self.total_km / SPEED_OF_LIGHT_KM_PER_S * 1000.0


def path(*sats, **kw):
    return FakePath(tuple(sats), **kw)


def path_set(paths, drops=0):
    """The columns of the given paths, then of `drops` dead-end traces."""
    paths = list(paths) + [path(0, status="dropped")] * drops
    ends = ["delivered" if p.delivered else "dropped:dead-end" for p in paths]
    return PathSet(
        np.array([s for p in paths for s in p.sats], dtype=np.int64),
        np.cumsum([0] + [len(p.sats) for p in paths]),
        np.array([STATUSES.index(e) for e in ends], dtype=np.int8),
        np.array([p.total_km for p in paths], dtype=float),
        np.array([p.latency_ms for p in paths], dtype=float),
    )


def vertices(paths):
    """The distinct delivered satellites of the given paths' set."""
    return path_set(paths).vertices


class TestPathIndependence:
    def test_single_path(self):
        # five vertices over four links
        assert path_independence(path_set([path(1, 2, 3, 4, 5)])) == pytest.approx(1.25)

    def test_two_disjoint_paths(self):
        got = path_independence(path_set([path(0, 1, 2, 3, 4, 5), path(10, 11, 12, 13, 14, 15)]))
        assert got == pytest.approx(12 / 10)

    def test_repeating_a_path_changes_nothing(self):
        one = path_independence(path_set([path(1, 2, 3)]))
        two = path_independence(path_set([path(1, 2, 3), path(1, 2, 3)]))
        assert one == two == pytest.approx(1.5)

    def test_direction_does_not_matter(self):
        # reversed traversal uses the same undirected links
        got = path_independence(path_set([path(1, 2, 3), path(3, 2, 1)]))
        assert got == pytest.approx(1.5)

    def test_shared_vertex_lowers_ratio_vs_disjoint(self):
        disjoint = path_independence(path_set([path(1, 2), path(3, 4)]))
        shared = path_independence(path_set([path(1, 2), path(2, 3)]))
        assert disjoint == pytest.approx(2.0)
        assert shared == pytest.approx(1.5)
        assert shared < disjoint

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=6))
    def test_disjoint_union_closed_form(self, verts, k):
        # k vertex-disjoint simple paths of v vertices each: v / (v - 1)
        paths = [
            path(*range(i * verts, (i + 1) * verts)) for i in range(k)
        ]
        assert path_independence(path_set(paths)) == pytest.approx(verts / (verts - 1))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            path_independence(path_set([]))

    def test_linkless_union_rejected(self):
        # bent-pipe only: single-satellite paths have no satellite links
        with pytest.raises(ValueError):
            path_independence(path_set([path(7), path(9)]))


class TestPathEvolution:
    def test_counts_vertex_turnover(self):
        before = [path(1, 2, 3)]
        after = [path(2, 3, 4)]
        assert path_evolution(vertices(before), vertices(after)) == 2  # 1 left, 4 arrived

    def test_identical_sets_do_not_move(self):
        assert path_evolution(vertices([path(1, 2, 3)]), vertices([path(3, 2, 1)])) == 0

    def test_union_across_paths(self):
        before = [path(1, 2), path(3, 4)]
        after = [path(1, 2, 3, 4)]
        assert path_evolution(vertices(before), vertices(after)) == 0

    @given(
        st.lists(st.integers(0, 30), min_size=2, max_size=10),
        st.lists(st.integers(0, 30), min_size=2, max_size=10),
    )
    def test_matches_symmetric_difference(self, a, b):
        got = path_evolution(vertices([FakePath(tuple(a))]), vertices([FakePath(tuple(b))]))
        assert got == len(set(a) ^ set(b))

    @given(
        st.sets(st.integers(0, 20), min_size=2, max_size=8),
        st.sets(st.integers(0, 20), min_size=2, max_size=8),
        st.sets(st.integers(0, 20), min_size=2, max_size=8),
    )
    def test_triangle_inequality(self, a, b, c):
        pa, pb, pc = (FakePath(tuple(sorted(x))) for x in (a, b, c))
        pa, pb, pc = (vertices([p]) for p in (pa, pb, pc))
        assert path_evolution(pa, pb) <= path_evolution(pa, pc) + path_evolution(pc, pb)


QUARTER = EARTH_RADIUS_KM * math.pi / 2  # equator, 90 degrees apart
SRC = GeodeticPoint(0.0, 0.0, 0.0)
DST = GeodeticPoint(0.0, 90.0, 0.0)


class TestStretch:
    def test_coincident_stations_have_no_stretch(self):
        paths = path_set([path(1, 2, up_km=500, down_km=500), path(3, up_km=600, down_km=600)])
        row = make_stamp_stats(EPOCH, True, True, paths, SRC, SRC)
        assert row.valid and row.n_paths == 2 and row.geodesic_km == 0.0
        assert (row.stretch_min, row.stretch_avg, row.stretch_max) == (None, None, None)
        assert summarize(ConnectionSeries("a", "a", "sp", (row,))).stretch_max is None

    def test_reference_latency_uses_fiber_speed(self):
        assert FIBER_SPEED_KM_PER_S == pytest.approx(2.0 * SPEED_OF_LIGHT_KM_PER_S / 3.0)
        assert geodesic_reference_latency_ms(QUARTER) == pytest.approx(
            QUARTER / FIBER_SPEED_KM_PER_S * 1000.0
        )
        assert geodesic_reference_latency_ms(QUARTER) == pytest.approx(
            geodesic_distance(SRC, DST) / (2.0 * 299792.458 / 3.0) * 1000.0
        )


class TestStampStats:
    def t(self, s=0):
        return EPOCH + timedelta(seconds=s)

    def test_delivered_stamp_aggregates(self):
        delivered = [
            path(1, 2, up_km=500, down_km=500, isl_km_each=2000),  # total 3000
            path(3, 4, 5, up_km=250, down_km=250, isl_km_each=2000),  # total 4500
        ]
        row = make_stamp_stats(self.t(), True, True, path_set(delivered, 1), SRC, DST)
        assert row.valid and row.psi == 1
        assert row.n_paths == 2 and row.n_drops == 1
        ms = 1000.0 / SPEED_OF_LIGHT_KM_PER_S
        assert row.latency_min_ms == pytest.approx(3000 * ms)
        assert row.latency_avg_ms == pytest.approx(3750 * ms)
        assert row.latency_max_ms == pytest.approx(4500 * ms)
        assert (row.hops_min, row.hops_avg, row.hops_max) == (1, 1.5, 2)
        assert row.gamma == pytest.approx(5 / 3)
        assert row.stretch_min == pytest.approx(3000 / QUARTER)
        assert row.stretch_max == pytest.approx(4500 / QUARTER)
        assert row.vertex_changes is None
        assert row.geodesic_km == pytest.approx(QUARTER)
        assert row.geodesic_latency_ms == pytest.approx(
            geodesic_reference_latency_ms(QUARTER)
        )

    def test_covered_but_undelivered(self):
        row = make_stamp_stats(self.t(), True, True, path_set([], 3), SRC, DST)
        assert row.psi == 0
        assert not row.valid
        assert row.latency_avg_ms is None and row.gamma is None

    def test_uncovered_endpoint_invalidates(self):
        row = make_stamp_stats(self.t(), True, False, path_set([]), SRC, DST)
        assert row.psi is None
        assert not row.valid

    def test_evolution_against_previous_stamp(self):
        prev = path_set([path(1, 2, 3)])
        cur = path_set([path(2, 3, 4)])
        # the stamp alone does not know its predecessor: the merge sets the count
        row = make_stamp_stats(self.t(10), True, True, cur, SRC, DST)
        assert row.valid and row.vertex_changes is None
        assert path_evolution(prev.vertices, cur.vertices) == 2

    def test_bent_pipe_only_stamp_has_no_gamma(self):
        row = make_stamp_stats(
            self.t(), True, True, path_set([path(9, up_km=600, down_km=600)]), SRC, DST
        )
        assert row.valid
        assert row.gamma is None
        assert row.stretch_min == pytest.approx(1200 / QUARTER)


def make_series():
    """Four stamps: two valid, one covered-but-empty, one uncovered."""
    rows = [
        make_stamp_stats(EPOCH, True, True, path_set([path(1, 2, isl_km_each=3000)]), SRC, DST),
        replace(
            make_stamp_stats(
                EPOCH + timedelta(seconds=10),
                True,
                True,
                path_set([path(2, 3, isl_km_each=5000)], 1),
                SRC,
                DST,
            ),
            vertex_changes=path_evolution(vertices([path(1, 2)]), vertices([path(2, 3)])),
        ),
        make_stamp_stats(EPOCH + timedelta(seconds=20), True, True, path_set([], 2), SRC, DST),
        make_stamp_stats(EPOCH + timedelta(seconds=30), False, True, path_set([]), SRC, DST),
    ]
    return ConnectionSeries("a", "b", "mplf-nfp", tuple(rows))


class TestSeries:
    def test_valid_stamp_filter(self):
        series = make_series()
        assert len(series.stamps) == 4
        assert len(series.valid_stamps()) == 2

    def test_latency_stats_pool_valid_stamps(self):
        stats = summarize(make_series()).latency
        ms = 1000.0 / SPEED_OF_LIGHT_KM_PER_S
        assert stats.minimum == pytest.approx(3000 * ms)
        assert stats.average == pytest.approx(4000 * ms)
        assert stats.maximum == pytest.approx(5000 * ms)

    def test_hop_stats_pool_valid_stamps(self):
        series = make_series()
        stats = summarize(series).hops
        assert (stats.minimum, stats.average, stats.maximum) == (1.0, 1.0, 1.0)
        # a third valid stamp, of 1 and 3 hops, moves all three
        t = EPOCH + timedelta(seconds=40)
        more = make_stamp_stats(t, True, True, path_set([path(4, 5), path(6, 7, 8, 9)]), SRC, DST)
        stats = summarize(replace(series, stamps=(*series.stamps, more))).hops
        assert (stats.minimum, stats.average, stats.maximum) == (1.0, 4 / 3, 3.0)
        # hops roll up as floats, like latency
        assert [type(v) for v in (stats.minimum, stats.average, stats.maximum)] == [float] * 3

    def test_all_invalid_covered_series_has_no_latency_or_hops(self):
        rows = [make_stamp_stats(EPOCH, True, True, path_set([]), SRC, DST)]
        s = summarize(ConnectionSeries("a", "b", "sp", tuple(rows)))
        assert s.n_valid == 0 and s.reachable_probability == 0.0
        assert s.latency is None and s.hops is None

    def test_summary_rollup(self):
        s = summarize(make_series())
        assert (s.n_stamps, s.n_valid, s.n_invalid) == (4, 2, 2)
        # psi defined on the three covered stamps only
        assert s.reachable_probability == pytest.approx(2 / 3)
        assert s.gamma_median == pytest.approx(2.0)
        assert s.stretch_max == pytest.approx(5000 / QUARTER)
        assert s.frac_changes_le_20 == pytest.approx(1.0)
        assert s.latency is not None and s.hops is not None

    def test_summary_of_blind_series(self):
        rows = [make_stamp_stats(EPOCH, False, False, path_set([]), SRC, DST)]
        s = summarize(ConnectionSeries("a", "b", "sp", tuple(rows)))
        assert s.reachable_probability is None
        assert s.latency is None and s.hops is None
        assert s.gamma_median is None and s.frac_changes_le_20 is None
