"""Connection metrics against closed-form oracles on synthetic path sets, and
the block stats pass against a per-set scalar reference."""

import math
from dataclasses import dataclass, replace
from datetime import timedelta
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonet.geometry import (
    EARTH_RADIUS_KM,
    SPEED_OF_LIGHT_KM_PER_S,
    GeodeticPoint,
    geodesic_distance,
    utc,
)
from leonet.harness import _connection_indices, snapshot_at
from leonet.routing import STATUSES, PathSet, block_path_sets
from leonet.metrics import (
    FIBER_SPEED_KM_PER_S,
    ConnectionSeries,
    StampColumns,
    StampStats,
    geodesic_reference_latency_ms,
    make_stamp_stats,
    path_evolution,
    path_independence,
    summarize,
)

from test_harness import shortened, small_scenarios

EPOCH = utc(2025, 1, 1)
QUARTER = EARTH_RADIUS_KM * math.pi / 2  # equator, 90 degrees apart
SRC = GeodeticPoint(0.0, 0.0, 0.0)
DST = GeodeticPoint(0.0, 90.0, 0.0)


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


def one_set(t, covered_src, covered_dst, paths, src, dst):
    """The stats row of one set: the block pass over a block of one."""
    columns = make_stamp_stats(paths, [paths.end.size], [(covered_src, covered_dst)], [(src, dst)])
    return columns.rows([t], [None])[0]


def vertices(paths):
    """The distinct delivered satellites of the given paths' set, as the
    block pass's vertex column holds them."""
    ps = path_set(paths)
    return make_stamp_stats(ps, [ps.end.size], [(True, True)], [(SRC, DST)]).vertices


# -- the per-set scalar reference ----------------------------------------------
# What make_stamp_stats computed before it became a block pass, one set at a
# time, with Python's min and max and a left-to-right sum: the block pass must
# give the same row, value for value and type for type.


def ref_vertices(ps):
    mark = np.zeros(ps.sats.max(initial=-1) + 1, dtype=bool)
    mark[ps.sats[np.repeat(ps.delivered, ps.hops + 1)]] = True
    return np.flatnonzero(mark)


def ref_gamma(ps):
    verts = ref_vertices(ps)
    link = np.repeat(ps.delivered, ps.hops + 1)[:-1]
    link[ps.starts[1:-1] - 1] = False
    a, b = ps.sats[:-1][link], ps.sats[1:][link]
    if not verts.size or not a.size:
        return None
    edges = np.sort(np.minimum(a, b) << 32 | np.maximum(a, b))
    # float: numpy's count made this an np.float64 of the same value
    return float(verts.size / (1 + np.count_nonzero(edges[1:] != edges[:-1])))


def ref_spread(values):
    if not values:
        return (None,) * 3
    return min(values), reduce(add, values, 0) / len(values), max(values)


def reference_stamp_stats(t, covered_src, covered_dst, ps, src, dst):
    geo = geodesic_distance(src, dst)
    delivered = ps.delivered
    n_paths = int(np.count_nonzero(delivered))
    stretches = (ps.total_km[delivered] / geo).tolist() if geo > 0.0 else []
    return StampStats(
        t, covered_src, covered_dst, n_paths, delivered.size - n_paths,
        (1 if n_paths else 0) if covered_src and covered_dst else None,
        *ref_spread(ps.latency_ms[delivered].tolist()),
        *ref_spread(ps.hops[delivered].tolist()),
        ref_gamma(ps),
        *ref_spread(stretches),
        None,
        geo,
        geodesic_reference_latency_ms(geo),
    )


def joined(sets):
    """The paths of sets one set after another in one PathSet, as
    block_path_sets returns a block, and each set's path count."""
    lengths = np.concatenate([np.diff(ps.starts) for ps in sets])
    names = ("end", "total_km", "latency_ms")
    columns = (np.concatenate([getattr(ps, c) for ps in sets]) for c in names)
    paths = PathSet(np.concatenate([ps.sats for ps in sets]),
                    np.concatenate(([0], np.cumsum(lengths))), *columns)
    return paths, [ps.end.size for ps in sets]


def check_block(paths, counts, covered, ends, times=None):
    """make_stamp_stats of a block equals the reference set by set: every
    field and its type, and the vertex column."""
    columns = make_stamp_stats(paths, counts, covered, ends)
    sets = paths.split(counts)
    per = len(sets) // max(len(ends), 1)
    times = times or [EPOCH] * len(sets)
    rows = columns.rows(times, [None] * len(sets))
    assert len(rows) == len(sets)
    bounds = columns.vertex_starts.tolist()
    for i, (ps, row) in enumerate(zip(sets, rows)):
        want = reference_stamp_stats(times[i], *covered[i // per], ps, *ends[i // per])
        assert row == want, i
        assert [type(v) for v in vars(row).values()] == [type(v) for v in vars(want).values()], i
        assert np.array_equal(columns.vertices[bounds[i] : bounds[i + 1]], ref_vertices(ps)), i
    return rows


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

    @given(
        st.integers(1, 3),
        st.lists(st.sets(st.integers(0, 40), max_size=8), min_size=1, max_size=12),
    )
    def test_block_pass_equals_the_pairwise_reference(self, lag, sets):
        # rows of lag sets per stamp; each row against the row one stamp
        # earlier, the first stamp's rows given before the block's
        sets = sets[: len(sets) // lag * lag] or [set()] * lag
        ids = [np.array(sorted(v), dtype=np.int32) for v in sets]
        rows = len(ids) - lag
        starts = np.concatenate(([0], np.cumsum([v.size for v in ids[lag:]], dtype=np.int64)))
        columns = StampColumns(
            np.ones((rows, 2), bool), np.ones(rows, np.int64), np.zeros(rows, np.int64),
            np.zeros((rows, 2), np.int64), np.zeros((rows, 8)), np.zeros(rows),
            np.concatenate([np.zeros(0, np.int32), *ids[lag:]]), starts,
        )
        before = np.concatenate([np.zeros(0, np.int32), *ids[:lag]])
        counts = np.array([v.size for v in ids[:lag]], dtype=np.int64)
        want = [path_evolution(ids[i - lag], ids[i]) for i in range(lag, len(ids))]
        assert columns.vertex_changes(before, counts).tolist() == want


class TestStretch:
    def test_coincident_stations_have_no_stretch(self):
        paths = path_set([path(1, 2, up_km=500, down_km=500), path(3, up_km=600, down_km=600)])
        row = one_set(EPOCH, True, True, paths, SRC, SRC)
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
        row = one_set(self.t(), True, True, path_set(delivered, 1), SRC, DST)
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
        row = one_set(self.t(), True, True, path_set([], 3), SRC, DST)
        assert row.psi == 0
        assert not row.valid
        assert row.latency_avg_ms is None and row.gamma is None

    def test_uncovered_endpoint_invalidates(self):
        row = one_set(self.t(), True, False, path_set([]), SRC, DST)
        assert row.psi is None
        assert not row.valid

    def test_evolution_against_previous_stamp(self):
        before, after = [path(1, 2, 3)], [path(2, 3, 4)]
        # the stamp alone does not know its predecessor: the merge sets the count
        row = one_set(self.t(10), True, True, path_set(after), SRC, DST)
        assert row.valid and row.vertex_changes is None
        assert path_evolution(vertices(before), vertices(after)) == 2

    def test_bent_pipe_only_stamp_has_no_gamma(self):
        row = one_set(
            self.t(), True, True, path_set([path(9, up_km=600, down_km=600)]), SRC, DST
        )
        assert row.valid
        assert row.gamma is None
        assert row.stretch_min == pytest.approx(1200 / QUARTER)


def make_series():
    """Four stamps: two valid, one covered-but-empty, one uncovered."""
    rows = [
        one_set(EPOCH, True, True, path_set([path(1, 2, isl_km_each=3000)]), SRC, DST),
        replace(
            one_set(
                EPOCH + timedelta(seconds=10),
                True,
                True,
                path_set([path(2, 3, isl_km_each=5000)], 1),
                SRC,
                DST,
            ),
            vertex_changes=path_evolution(vertices([path(1, 2)]), vertices([path(2, 3)])),
        ),
        one_set(EPOCH + timedelta(seconds=20), True, True, path_set([], 2), SRC, DST),
        one_set(EPOCH + timedelta(seconds=30), False, True, path_set([]), SRC, DST),
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
        more = one_set(t, True, True, path_set([path(4, 5), path(6, 7, 8, 9)]), SRC, DST)
        stats = summarize(replace(series, stamps=(*series.stamps, more))).hops
        assert (stats.minimum, stats.average, stats.maximum) == (1.0, 4 / 3, 3.0)
        # hops roll up as floats, like latency
        assert [type(v) for v in (stats.minimum, stats.average, stats.maximum)] == [float] * 3

    def test_all_invalid_covered_series_has_no_latency_or_hops(self):
        rows = [one_set(EPOCH, True, True, path_set([]), SRC, DST)]
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
        rows = [one_set(EPOCH, False, False, path_set([]), SRC, DST)]
        s = summarize(ConnectionSeries("a", "b", "sp", tuple(rows)))
        assert s.reachable_probability is None
        assert s.latency is None and s.hops is None
        assert s.gamma_median is None and s.frac_changes_le_20 is None

    def test_mean_of_means_sums_left_to_right(self):
        # Python's sum of floats is compensated from 3.12 on; the rollup is not
        assert reduce(add, [0.1] * 10, 0.0) == 0.9999999999999999
        row = one_set(EPOCH, True, True, path_set([path(1, 2)]), SRC, DST)
        rows = [replace(row, latency_avg_ms=0.1)] * 10
        stats = summarize(ConnectionSeries("a", "b", "sp", tuple(rows))).latency
        assert stats.average == 0.9999999999999999 / 10


# a third station point, off the equator, for a second connection
EAST = GeodeticPoint(10.0, 45.0, 0.0)


def timed_set(latencies, totals, sats=None, ends=None):
    """A set of delivered paths with the given latencies and totals, path i
    visiting sats[i] (default (i, i + 1)) and ending with ends[i] (default
    delivered)."""
    sats = sats or [(i, i + 1) for i in range(len(latencies))]
    ends = ends or [0] * len(latencies)
    return PathSet(
        np.array([s for p in sats for s in p], dtype=np.int64),
        np.cumsum([0] + [len(p) for p in sats]),
        np.array(ends, dtype=np.int8),
        np.array(totals, dtype=float),
        np.array(latencies, dtype=float),
    )


@st.composite
def random_blocks(draw):
    """A block of random sets: (paths, counts, covered, ends), with one to
    three sets per (stamp, connection) entry and points drawn from a few, so
    that coincident stations occur."""
    n_ends, per = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    points = st.sampled_from([SRC, DST, EAST])
    ends = [(draw(points), draw(points)) for _ in range(n_ends)]
    covered = [(draw(st.booleans()), draw(st.booleans())) for _ in range(n_ends)]
    floats = st.floats(0.001, 1e5, allow_nan=False, allow_infinity=False)
    paths = st.tuples(st.lists(st.integers(0, 40), min_size=1, max_size=6),
                      st.sampled_from(range(len(STATUSES))), floats, floats)
    sets = []
    for _ in range(n_ends * per):
        drawn = draw(st.lists(paths, max_size=12))
        sets.append(timed_set([p[2] for p in drawn], [p[3] for p in drawn],
                              [p[0] for p in drawn], [p[1] for p in drawn]))
    return *joined(sets), covered, ends


def routed_block(scn):
    """Every stamp of scn as one block: its paths and each set's path count,
    stamp-major, the coverage and station points of each (stamp,
    connection), and each set's stamp."""
    conns = _connection_indices(scn)
    snaps = list(map(snapshot_at(scn), scn.time.stamps()))
    paths, counts = block_path_sets(snaps, scn.algorithms, conns)
    covered = [(s.covered(si), s.covered(di)) for s in snaps for si, di in conns]
    ends = [(s.station_geodetic[si], s.station_geodetic[di]) for s in snaps for si, di in conns]
    times = [s.t for s in snaps for _ in range(len(counts) // len(snaps))]
    return paths, counts, covered, ends, times


class TestBlockPass:
    """make_stamp_stats of a block against the per-set scalar reference."""

    @pytest.mark.parametrize(
        "name",
        ["experiment1_20x20.json", "experiment1_40x40.json", "experiment2_40x40.json",
         "experiment3_moving.json"],
    )
    def test_shipped_scenarios(self, name):
        rows = check_block(*routed_block(shortened(name)))
        assert any(r.valid for r in rows) and any(r.gamma is not None for r in rows)

    @given(case=small_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_small_scenarios(self, case):
        scn, _ = case
        check_block(*routed_block(scn))

    @given(block=random_blocks())
    @settings(max_examples=200, deadline=None)
    def test_random_blocks(self, block):
        check_block(*block)

    def test_edge_cases_in_one_block(self):
        bent = [path(9, up_km=600, down_km=600), path(4, up_km=700, down_km=500)]
        sets = [
            path_set([]),  # nothing traced
            path_set([], 3),  # all dropped
            path_set([]),  # an uncovered endpoint
            path_set(bent),  # bent pipes only: no satellite link
            path_set([path(3, 2, 1), path(1, 2)], 1),  # coincident stations
            path_set([path(5, 6, 7)]),
        ]
        covered = [(True, True), (True, True), (False, True), (True, True), (True, True),
                   (True, True)]
        ends = [(SRC, DST), (SRC, DST), (SRC, DST), (SRC, DST), (EAST, EAST), (SRC, EAST)]
        rows = check_block(*joined(sets), covered, ends)
        assert [r.psi for r in rows] == [0, 0, None, 1, 1, 1]
        assert [r.n_drops for r in rows] == [0, 3, 0, 0, 1, 0]
        assert rows[3].gamma is None and rows[3].stretch_min is not None
        assert rows[4].geodesic_km == 0.0 and rows[4].stretch_avg is None
        assert rows[4].gamma == 1.5 and rows[5].gamma == 1.5

    def test_one_set_far_larger_than_the_rest(self):
        # the large set sits between small ones; its values sum differently
        # left to right than pairwise, compensated or sorted
        n = 300
        latencies = [0.1 * (i % 7 + 1) for i in range(n)]
        totals = [1000.0 + 0.3 * (i % 11) for i in range(n)]
        others = math.fsum(latencies), np.sum(latencies), reduce(add, sorted(latencies), 0.0)
        assert reduce(add, latencies, 0.0) not in others
        small = timed_set([3.0, 1.0], [900.0, 300.0])
        sets = [small, timed_set(latencies, totals), timed_set([2.0], [600.0]), small]
        rows = check_block(*joined(sets), [(True, True)] * 2, [(SRC, DST), (SRC, EAST)])
        assert rows[1].latency_avg_ms == reduce(add, latencies, 0.0) / n
        assert (rows[1].n_paths, rows[1].hops_avg, rows[0].latency_avg_ms) == (n, 1.0, 2.0)

    def test_mean_sums_left_to_right(self):
        row = one_set(EPOCH, True, True, timed_set([0.1] * 10, [1.0] * 10), SRC, DST)
        assert row.latency_avg_ms == 0.9999999999999999 / 10
