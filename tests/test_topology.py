"""Persistent-link templates, snapshots, and transient crossing-mesh links,
checked against brute-force oracles on small shells."""

import math
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR

from leonet import topology
from leonet.constellation import ConstellationConfig, build_walker
from leonet.geometry import (
    EARTH_RADIUS_KM,
    GeodeticPoint,
    ecef_to_eci,
    elevation_angle,
    geodetic_to_ecef,
    link_latency_ms,
    utc,
)
from leonet.exporters import _links
from leonet.harness import snapshot_at
from leonet.routing import trace_path
from leonet.scenario import load_scenario
from leonet.topology import (
    GRID_PLUS,
    GRID_STAR,
    ISL_KIND_NAMES,
    EislTracker,
    FixedPosition,
    IslPattern,
    IslTemplate,
    Station,
    build_persistent_isls,
    detect_eisls,
    direction_histogram,
    eisl_statistics,
    self_link_parameter,
    snapshot,
    synthetic_snapshot,
)

EPOCH = utc(2025, 1, 1)

# Visibility cone half-angle at the sub-satellite point, for a 550 km shell
# seen above 40 deg elevation: acos(R/a * cos E) - E.
COVERAGE_HALF_ANGLE_DEG = 5.1569


def shell(sats=10, planes=10, phase=0, alt=550.0, incl=53.0):
    return build_walker(ConstellationConfig(sats, planes, phase, alt, incl, EPOCH))


def per_link_template(n, p, pattern):
    """(pairs, kinds) of the persistent template built one link at a time:
    the in-plane rings, then each bias's cross-plane links, canonicalised
    and deduplicated keeping the first kind; None if a link is a self-link."""
    links = [(plane * n + slot, plane * n + (slot + 1) % n, 0)
             for plane in range(p) for slot in range(n)]
    links += [(plane * n + slot, (plane + 1) % p * n + (slot + bias) % n, 1)
              for bias in pattern.bias for plane in range(p) for slot in range(n)]
    if any(a == b for a, b, _ in links):
        return None
    arr = np.array([(min(a, b), max(a, b)) for a, b, _ in links], dtype=np.int32)
    uniq, first = np.unique(arr, axis=0, return_index=True)
    return uniq, np.array([k for _, _, k in links], dtype=np.int8)[first]


def free_snapshot(positions, vz, pairs):
    """Synthetic snapshot of len(positions) satellites with vertical speeds vz."""
    n = len(positions)
    vel = np.zeros((n, 3))
    vel[:, 2] = vz
    pairs = np.array(pairs, dtype=np.int32).reshape(-1, 2)
    kinds = np.zeros(len(pairs), dtype=np.int8)
    return synthetic_snapshot(EPOCH, shell(n, 1), positions, vel, pairs, kinds)


def brute_force_eisls(snap, l_h):
    """All-pairs double loop over the three crossing-link predicates."""
    persistent = {tuple(sorted(p)) for p in snap.isl_pairs.tolist()}
    pos, vz = snap.sat_positions, snap.sat_velocities[:, 2]
    rows = [
        [a, b]
        for a in range(len(pos))
        for b in range(a + 1, len(pos))
        if (a, b) not in persistent
        and vz[a] * vz[b] < 0.0
        and np.sum((pos[a] - pos[b]) ** 2, axis=-1) < l_h * l_h
    ]
    return np.array(rows, dtype=np.int32).reshape(-1, 2)


def dense_eisls(snap, l_h_km):
    """The former all-pairs S x S formula, kept as a reference."""
    pos = snap.sat_positions
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    vz = snap.sat_velocities[:, 2]
    opposite = vz[:, None] * vz[None, :] < 0.0
    cand = np.triu((d2 < l_h_km * l_h_km) & opposite, k=1)
    cand[snap.isl_pairs[:, 0], snap.isl_pairs[:, 1]] = False
    a, b = np.nonzero(cand)
    return np.stack([a, b], axis=1).astype(np.int32)


@st.composite
def crossing_cases(draw):
    """Satellites on a 100 km lattice (shared coordinates, distances exactly
    at round radii), level or moving vertically, persistent pairs in either
    orientation; flat cases put every satellite in one z plane, like a
    low-inclination shell."""
    n = draw(st.integers(2, 24))
    flat = draw(st.booleans())
    cell = st.integers(-5, 5).map(lambda k: 100.0 * k)
    positions = [
        [7000.0 + draw(cell), draw(cell), 0.0 if flat else draw(cell)] for _ in range(n)
    ]
    vz = draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0]), min_size=n, max_size=n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=2 * n,
        )
    )
    l_h = draw(st.sampled_from([50.0, 100.0, 300.0, 500.0, 1000.0, 5000.0]))
    return positions, vz, pairs, l_h


def ground(name, lat, lon):
    return Station(name, name, "ground", FixedPosition(GeodeticPoint(lat, lon, 0.0)))


class TestIslPattern:
    def test_single_bias_accepts_each_value(self):
        assert IslPattern(GRID_PLUS, (0,)).bias == (0,)
        assert IslPattern(GRID_PLUS, (-1,)).bias == (-1,)

    def test_single_bias_rejects_two_values(self):
        with pytest.raises(ValueError):
            IslPattern(GRID_PLUS, (-1, 0))

    def test_double_bias_requires_both(self):
        assert IslPattern(GRID_STAR, (-1, 0)).bias == (-1, 0)
        with pytest.raises(ValueError):
            IslPattern(GRID_STAR, (0,))

    def test_bias_normalized_to_sorted_unique(self):
        assert IslPattern(GRID_STAR, (0, -1, 0)).bias == (-1, 0)

    def test_bias_outside_allowed_set(self):
        with pytest.raises(ValueError):
            IslPattern(GRID_PLUS, (1,))

    def test_unknown_grid_kind(self):
        with pytest.raises(ValueError):
            IslPattern("hex", (0,))


class TestPersistentTemplate:
    @pytest.mark.parametrize("n,p", [(4, 6), (20, 20), (40, 40)])
    def test_single_bias_degree_four(self, n, p):
        tpl = build_persistent_isls(shell(n, p), IslPattern(GRID_PLUS, (0,)))
        assert tpl.edge_count == 2 * n * p
        deg = np.bincount(tpl.pairs.ravel(), minlength=n * p)
        assert np.all(deg == 4)

    @pytest.mark.parametrize("n,p", [(4, 6), (20, 20), (40, 40)])
    def test_double_bias_degree_six(self, n, p):
        tpl = build_persistent_isls(shell(n, p), IslPattern(GRID_STAR, (-1, 0)))
        assert tpl.edge_count == 3 * n * p
        deg = np.bincount(tpl.pairs.ravel(), minlength=n * p)
        assert np.all(deg == 6)

    def test_kind_census(self):
        n, p = 5, 7
        tpl = build_persistent_isls(shell(n, p), IslPattern(GRID_STAR, (-1, 0)))
        assert int(np.sum(tpl.kinds == 0)) == n * p  # in-plane rings
        assert int(np.sum(tpl.kinds == 1)) == 2 * n * p  # both cross-plane biases

    def test_canonical_rows(self):
        tpl = build_persistent_isls(shell(6, 5), IslPattern(GRID_STAR, (-1, 0)))
        assert np.all(tpl.pairs[:, 0] < tpl.pairs[:, 1])
        # sorted lexicographically, no duplicate rows
        assert np.array_equal(np.unique(tpl.pairs, axis=0), tpl.pairs)

    def test_plane_wrap_edge_present(self):
        n, p = 4, 6
        tpl = build_persistent_isls(shell(n, p), IslPattern(GRID_PLUS, (0,)))
        rows = {tuple(r) for r in tpl.pairs.tolist()}
        assert (0, (p - 1) * n) in rows  # last plane links back to plane 0

    def test_bias_shifts_cross_plane_slot(self):
        n, p = 4, 6
        tpl = build_persistent_isls(shell(n, p), IslPattern(GRID_PLUS, (-1,)))
        rows = {tuple(r) for r in tpl.pairs.tolist()}
        assert (0, n + (n - 1)) in rows  # plane0 slot0 to plane1 slot -1
        assert (0, n) not in rows

    def test_phase_factor_does_not_change_template(self):
        a = build_persistent_isls(shell(5, 6, phase=0), IslPattern(GRID_STAR, (-1, 0)))
        b = build_persistent_isls(shell(5, 6, phase=2), IslPattern(GRID_STAR, (-1, 0)))
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.kinds, b.kinds)
        assert a.shape == b.shape == (6, 5)  # (planes, sats_per_plane)

    def test_one_sat_per_plane_rejected(self):
        with pytest.raises(ValueError):
            build_persistent_isls(shell(1, 8), IslPattern(GRID_PLUS, (0,)))

    def test_single_plane_zero_bias_rejected(self):
        with pytest.raises(ValueError):
            build_persistent_isls(shell(8, 1), IslPattern(GRID_PLUS, (0,)))

    @pytest.mark.parametrize(
        "n,p,pattern",
        [
            *[
                (sc.constellation.sats_per_plane, sc.constellation.planes, sc.pattern)
                for sc in (load_scenario(f) for f in sorted(SCENARIO_DIR.glob("*.json")))
            ],
            (2, 3, IslPattern(GRID_STAR, (-1, 0))),  # in-plane rings fold onto one link
            (8, 1, IslPattern(GRID_PLUS, (-1,))),  # cross-plane links repeat the ring
            (3, 2, IslPattern(GRID_PLUS, (0,))),  # cross-plane links fold onto one
            (1, 8, IslPattern(GRID_PLUS, (0,))),
            (8, 1, IslPattern(GRID_PLUS, (0,))),
            (2, 1, IslPattern(GRID_STAR, (-1, 0))),
            (1, 3, IslPattern(GRID_PLUS, (-1,))),
        ],
    )
    def test_arrays_equal_the_per_link_construction(self, n, p, pattern):
        want = per_link_template(n, p, pattern)
        # the stated rule names a parameter exactly where some link is a self-link
        assert (self_link_parameter(n, p, pattern) is None) == (want is not None)
        if want is None:
            with pytest.raises(ValueError, match="self-link"):
                build_persistent_isls(shell(n, p), pattern)
            return
        tpl = build_persistent_isls(shell(n, p), pattern)
        assert tpl.pairs.dtype == np.int32 and tpl.kinds.dtype == np.int8
        assert np.array_equal(tpl.pairs, want[0]) and np.array_equal(tpl.kinds, want[1])
        assert tpl.shape == (p, n)

    def test_kind_name_lookup(self):
        tpl = build_persistent_isls(shell(4, 4), IslPattern(GRID_PLUS, (0,)))
        names = {ISL_KIND_NAMES[k] for k in tpl.kinds.tolist()}
        assert names == {"iISL", "sISL"}

    @pytest.mark.parametrize(
        "pattern",
        [IslPattern(GRID_PLUS, (0,)), IslPattern(GRID_STAR, (-1, 0))],
        ids=lambda p: p.grid,
    )
    def test_linked_matches_pair_membership(self, pattern):
        tpl = build_persistent_isls(shell(4, 6), pattern)
        listed = {tuple(p) for p in tpl.pairs.tolist()}
        # every ordered pair, so each link is asked in both orientations
        a, b = np.divmod(np.arange(tpl.sat_count**2), tpl.sat_count)
        want = [(x, y) in listed or (y, x) in listed for x, y in zip(a.tolist(), b.tolist())]
        assert tpl.linked(a, b).tolist() == want
        assert sum(want) == 2 * tpl.edge_count

    def test_linked_ignores_padding_slots(self):
        # 0 and 1 have two links, 2 and 3 one: rows 2 and 3 are padded with themselves
        tpl = IslTemplate(np.array([[0, 1], [0, 2], [1, 3]], dtype=np.int32),
                          np.zeros(3, dtype=np.int8), 4)
        assert tpl.nbr[2, 1] == 2 and not tpl.real[2, 1]
        v = np.arange(4)
        assert not tpl.linked(v, v).any()
        assert tpl.linked(np.array([1, 2, 3]), np.array([0, 0, 1])).all()

    def test_linked_without_links(self):
        tpl = IslTemplate(np.zeros((0, 2), dtype=np.int32), np.zeros(0, dtype=np.int8), 3)
        a, b = np.divmod(np.arange(9), 3)
        assert not tpl.linked(a, b).any()


def loop_edge_links(pos, ground, min_el):
    """(edge_km, edge_sats, edge_lengths) by one elevation_angle call over the
    whole shell per station: the loop the batched edge links replaced."""
    km = np.full((ground.shape[0], pos.shape[0]), np.inf)
    sats, lengths = [], []
    for i, g in enumerate(ground):
        vis = np.flatnonzero(np.asarray(elevation_angle(g, pos)) >= min_el)
        km[i, vis] = ln = np.linalg.norm(pos[vis] - g, axis=1)
        sats.append(vis.astype(np.int32))
        lengths.append(ln)
    return km, sats, lengths


def assert_loop_edge_links(snap):
    """The snapshot's edge links are the loop's, bit for bit; returns the
    number of links."""
    km, sats, lengths = loop_edge_links(
        snap.sat_positions, snap.station_positions, snap.min_elevation_deg
    )
    assert snap.edge_km.shape == km.shape and snap.edge_km.tobytes() == km.tobytes()
    assert len(snap.edge_sats) == len(snap.edge_lengths) == len(snap.stations)
    for got, want in zip(snap.edge_sats, sats):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    for got, want in zip(snap.edge_lengths, lengths):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return sum(v.size for v in sats)


class CentrePoint:
    """A geodetic-like point at the Earth's centre, which GeodeticPoint refuses."""

    lat_deg, lon_deg, alt_km = 0.0, 0.0, -EARTH_RADIUS_KM


def at_epoch(stations):
    """The stations' inertial positions at the epoch, as a snapshot there has them."""
    ecef = np.stack([geodetic_to_ecef(st.position_at(EPOCH)) for st in stations])
    return ecef_to_eci(ecef, EPOCH, EPOCH)


def station_frame(g):
    """Local up and a unit horizontal vector at the inertial position g."""
    up = g / np.linalg.norm(g)
    east = np.cross([0.0, 0.0, 1.0], up)
    return up, east / np.linalg.norm(east)


def ring(n):
    pairs = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return pairs, np.zeros(n, dtype=np.int8)


class TestSnapshot:
    def test_edge_links_match_brute_force_elevation(self):
        const = shell(10, 10)
        st = ground("obs", 45.0, 10.0)
        t = EPOCH + timedelta(seconds=600)
        snap = snapshot(const, [st], IslPattern(GRID_PLUS, (0,)), t, 40.0)

        oracle = {
            s
            for s in range(const.sat_count)
            if elevation_angle(snap.station_positions[0], snap.sat_positions[s]) >= 40.0
        }
        assert set(snap.edge_sats[0].tolist()) == oracle
        for s, length in zip(snap.edge_sats[0], snap.edge_lengths[0]):
            want = np.linalg.norm(snap.sat_positions[s] - snap.station_positions[0])
            assert length == pytest.approx(float(want))
        # the station x satellite table: inf exactly where unseen, the edge lengths elsewhere
        seen = np.zeros(const.sat_count, dtype=bool)
        seen[list(oracle)] = True
        assert snap.edge_km.shape == (1, const.sat_count)
        assert np.array_equal(snap.edge_km[0] == np.inf, ~seen)
        assert np.array_equal(snap.edge_km[0, seen], snap.edge_lengths[0])
        assert assert_loop_edge_links(snap) == len(oracle)

    @pytest.mark.parametrize("name", [
        "experiment1_20x20.json", "experiment1_40x40.json", "experiment2_40x40.json",
        "experiment3_moving.json",
    ])
    def test_edge_links_equal_the_station_loop_on_shipped_scenarios(self, name):
        scenario = load_scenario(SCENARIO_DIR / name)
        at = snapshot_at(scenario)
        links = sum(assert_loop_edge_links(at(t)) for t in scenario.time.stamps()[::7])
        assert links > 100

    def test_edge_links_equal_the_station_loop_on_a_star_grid_with_aircraft(self):
        scenario = load_scenario(SCENARIO_DIR / "experiment3_moving.json")
        scenario = replace(scenario, pattern=IslPattern(GRID_STAR, (-1, 0)))
        assert any(st.kind == "mobile" for st in scenario.stations)
        at = snapshot_at(scenario)
        assert sum(assert_loop_edge_links(at(t)) for t in scenario.time.stamps()[::11]) > 100

    @pytest.mark.parametrize("min_el", [-30.0, 0.0, 10.0, 40.0, 75.0])
    def test_edge_links_equal_the_station_loop_at_mixed_radii(self, min_el):
        rng = np.random.default_rng(int(min_el) + 30)
        n = 3000
        # radii inside and outside the stations' own, down to the Earth's centre
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        radius = rng.choice([0.0, 10.0, EARTH_RADIUS_KM - 50.0, EARTH_RADIUS_KM + 0.5,
                             EARTH_RADIUS_KM + 550.0, 8000.0, 42164.0], size=n)
        radius += rng.uniform(0.0, 300.0, size=n)
        stations = tuple(ground(f"g{i}", lat, lon) for i, (lat, lon) in enumerate(
            [(0.0, 0.0), (45.0, 10.0), (-60.0, 120.0), (89.0, -75.0), (30.0, 179.5)]))
        pairs, kinds = ring(n)
        snap = synthetic_snapshot(EPOCH, shell(n, 1), direction * radius[:, None],
                                  np.zeros((n, 3)), pairs, kinds, stations=stations,
                                  min_elevation_deg=min_el)
        assert assert_loop_edge_links(snap) > 10

    @pytest.mark.parametrize("min_el", [-10.0, 0.0, 25.0, 40.0, 89.0, 90.0])
    def test_edge_links_equal_the_station_loop_at_the_minimum_elevation(self, min_el):
        # satellites within 1e-9 degrees of the minimum elevation, either side,
        # at ranges from 1 km to 40,000 km and bearings all round; at 0 and 90
        # degrees some sit on the horizon plane or at the zenith, where
        # rounding alone decides
        stations = (ground("a", 45.0, 10.0), ground("b", -20.0, -100.0))
        rng = np.random.default_rng(7)
        positions = []
        for g in at_epoch(stations):
            up, east = station_frame(g)
            north = np.cross(up, east)
            for offset in np.linspace(-1e-9, 1e-9, 21):
                for rng_km in (1.0, 550.0, 2000.0, 40_000.0):
                    az = rng.uniform(0.0, 2.0 * np.pi)
                    e = np.radians(min_el + offset)
                    h = np.cos(az) * east + np.sin(az) * north
                    positions.append(g + rng_km * (np.cos(e) * h + np.sin(e) * up))
        n = len(positions)
        pairs, kinds = ring(n)
        snap = synthetic_snapshot(EPOCH, shell(n, 1), np.array(positions), np.zeros((n, 3)),
                                  pairs, kinds, stations=stations, min_elevation_deg=min_el)
        seen = assert_loop_edge_links(snap)
        assert 0 < seen < n

    @pytest.mark.parametrize("name, pattern", [
        ("experiment1_20x20.json", None), ("experiment1_40x40.json", None),
        ("experiment2_40x40.json", None), ("experiment3_moving.json", None),
        ("experiment3_moving.json", IslPattern(GRID_STAR, (-1, 0))),  # with aircraft
    ])
    def test_a_block_equals_its_stamps_alone(self, name, pattern):
        # every stamp, in blocks of up to six, against the stamp built alone
        scenario = load_scenario(SCENARIO_DIR / name)
        scenario = replace(scenario, pattern=pattern or scenario.pattern)
        const = build_walker(scenario.constellation)
        tpl = build_persistent_isls(const, scenario.pattern)
        rng = np.random.default_rng(5)

        def at(t):
            return snapshot(const, scenario.stations, scenario.pattern, t,
                            scenario.elevation_min_deg, template=tpl)

        stamps = scenario.time.stamps()
        for first in range(0, len(stamps), 6):
            block = at(stamps[first : first + 6])
            assert [s.t for s in block] == list(stamps[first : first + 6])
            for snap in block:
                alone = at(snap.t)
                # the legs a trace takes are measured alone, before isl_lengths is read
                links = rng.integers(0, tpl.edge_count + 1, size=64)
                got = snap.link_lengths(links)
                assert "isl_lengths" not in vars(snap)
                assert got.tobytes() == np.append(alone.isl_lengths, np.inf)[links].tobytes()
                assert snap.station_geodetic == alone.station_geodetic
                for field in ("sat_positions", "sat_velocities", "isl_lengths", "station_ecef",
                              "station_positions"):
                    assert getattr(snap, field).tobytes() == getattr(alone, field).tobytes()
                for got, want in zip((snap.edge_sats, snap.edge_lengths),
                                     (alone.edge_sats, alone.edge_lengths)):
                    assert len(got) == len(want) == len(scenario.stations)
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
                assert_loop_edge_links(snap)

    @given(seed=st.integers(0, 2**32 - 1),
           min_el=st.sampled_from([-30.0, 0.0, 10.0, 40.0, 75.0]) | st.floats(-90.0, 90.0),
           stamps=st.integers(1, 3), one_shell=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_coarse_floor_keeps_every_exact_candidate(self, seed, min_el, stamps, one_shell):
        # the radii of test_edge_links_equal_the_station_loop_at_mixed_radii,
        # or one radius, where only rounding tells the satellites' bounds
        # apart; stations on the ground, in the air and at the Earth's centre
        rng = np.random.default_rng(seed)
        n = 400
        direction = rng.normal(size=(stamps, n, 3))
        direction /= np.linalg.norm(direction, axis=-1)[..., None]
        radius = rng.choice([0.0, 10.0, EARTH_RADIUS_KM - 50.0, EARTH_RADIUS_KM + 0.5,
                             EARTH_RADIUS_KM + 550.0, 8000.0, 42164.0], size=(stamps, n))
        radius += rng.uniform(0.0, 300.0, size=(stamps, n))
        shell_km = EARTH_RADIUS_KM + 550.0
        pos = direction * (shell_km if one_shell else radius[..., None])
        ground = np.stack([
            [geodetic_to_ecef(GeodeticPoint(lat, lon, alt)) for lat, lon, alt in zip(
                rng.uniform(-90.0, 90.0, 6), rng.uniform(-180.0, 180.0, 6),
                rng.choice([0.0, 10.0, 550.0], 6))] + [np.zeros(3)]
            for _ in range(stamps)
        ])
        sin_min = float(np.sin(np.radians(min_el)))
        if one_shell:
            # half the shell on the exact bound of the first station, where
            # rounding alone decides the exact prefilter
            g, d = ground[:, :1], direction[:, : n // 2]
            gn = np.linalg.norm(g, axis=-1, keepdims=True)
            reach = abs(shell_km - gn) if sin_min > 0.0 else shell_km + gn
            along = gn + sin_min * reach - 1e-9 * (shell_km + gn)
            side = d - (d * g).sum(-1, keepdims=True) * g / gn**2
            side /= np.linalg.norm(side, axis=-1, keepdims=True)
            across = np.sqrt(np.maximum(shell_km**2 - along**2, 0.0))
            pos[:, : n // 2] = along * g / gn + across * side
        sn, gn = np.linalg.norm(pos, axis=-1), np.linalg.norm(ground, axis=-1)
        floor = topology._coarse_floor(sn, gn, sin_min)
        kept = 0
        for k in range(stamps):
            # the exact prefilter of _edge_links, over every pair
            rise, s, g = ground[k] @ pos[k].T, sn[k][None, :], gn[k][:, None]
            reach = np.abs(s - g) if sin_min > 0.0 else s + g
            exact = rise - g * g >= (sin_min * reach - 1e-9 * s - 1e-9 * g) * g
            assert (rise >= floor[k][:, None])[exact].all()
            kept += int(exact.sum())
        assert kept >= stamps * n  # the station at the centre keeps every satellite

    def test_edge_links_at_zero_elevation_on_a_real_shell(self):
        const = shell(20, 20)
        sts = [ground("a", 45.0, 10.0), ground("b", 0.0, -70.0)]
        snap = snapshot(const, sts, IslPattern(GRID_PLUS, (0,)), EPOCH + timedelta(seconds=90), 0.0)
        assert assert_loop_edge_links(snap) > 20

    def test_edge_links_of_a_blind_station_and_of_no_stations(self):
        const = shell(10, 10)
        pattern = IslPattern(GRID_PLUS, (0,))
        # a 53 degree shell never rises 40 degrees above the pole
        snap = snapshot(const, [ground("pole", 90.0, 0.0), ground("obs", 45.0, 10.0)], pattern,
                        EPOCH, 40.0)
        assert snap.edge_sats[0].size == 0 and snap.edge_lengths[0].size == 0
        assert not snap.covered(0) and snap.covered(1)
        assert assert_loop_edge_links(snap) == snap.edge_sats[1].size
        snap = snapshot(const, [], pattern, EPOCH, 40.0)
        assert snap.edge_km.shape == (0, const.sat_count)
        assert snap.edge_sats == [] and snap.edge_lengths == []
        assert assert_loop_edge_links(snap) == 0

    def test_coincident_satellite_and_centre_station_raise_as_the_loop(self):
        obs = ground("obs", 45.0, 10.0)
        centre = Station("centre", "centre", "ground", FixedPosition(CentrePoint()))
        far = ground("far", -45.0, -170.0)
        # one satellite on the observer, below every other station's horizon
        positions = np.array([at_epoch([obs])[0], [7000.0, 0.0, 0.0], [0.0, 7000.0, 0.0],
                              [0.0, 0.0, 7000.0]])
        pairs, kinds = ring(4)

        def make(stations):
            return synthetic_snapshot(EPOCH, shell(4, 1), positions, np.zeros((4, 3)), pairs,
                                      kinds, stations=stations, min_elevation_deg=40.0)

        # the first station that fails raises, as in the loop
        for stations, message in [
            ((obs,), "satellite coincides with the observer"),
            ((far, obs), "satellite coincides with the observer"),
            ((centre,), "observer at the Earth center has no horizon"),
            ((far, centre, obs), "observer at the Earth center has no horizon"),
            ((obs, centre), "satellite coincides with the observer"),
        ]:
            with pytest.raises(ValueError, match=message):
                loop_edge_links(positions, at_epoch(stations), 40.0)
            with pytest.raises(ValueError, match=message):
                make(stations)
        assert assert_loop_edge_links(make((far,))) == 0

    def test_velocities_propagate_on_first_read_unless_supplied(self, monkeypatch):
        const = shell(6, 6)
        calls = []
        propagate = type(const).velocities_at

        def counted(self, t):
            calls.append(t)
            return propagate(self, t)

        monkeypatch.setattr(type(const), "velocities_at", counted)
        t = EPOCH + timedelta(seconds=30)
        snap = snapshot(const, [ground("obs", 45.0, 10.0)], IslPattern(GRID_PLUS, (0,)), t, 40.0)
        assert calls == []
        assert np.array_equal(snap.sat_velocities, propagate(const, t))
        assert snap.sat_velocities is snap.sat_velocities and calls == [[t]]
        vel = np.ones((4, 3))
        assert square_snapshot(velocities=vel).sat_velocities.tolist() == vel.tolist()
        assert calls == [[t]]

    def test_a_block_propagates_its_velocities_once(self, monkeypatch):
        const = shell(6, 6)
        calls = []
        propagate = type(const).velocities_at

        def counted(self, t):
            calls.append(t)
            return propagate(self, t)

        monkeypatch.setattr(type(const), "velocities_at", counted)
        stamps = [EPOCH + timedelta(seconds=30 * i) for i in range(5)]
        snaps = snapshot(const, [], IslPattern(GRID_PLUS, (0,)), stamps, 40.0)
        assert calls == []
        # the first read, from any snapshot of the block, propagates the block
        for snap in snaps[::-1]:
            assert snap.sat_velocities.tobytes() == propagate(const, snap.t).tobytes()
        assert calls == [stamps]

    def test_visibility_bounded_by_coverage_cone(self):
        const = shell(10, 10)
        st = ground("obs", 0.0, 0.0)
        t = EPOCH + timedelta(seconds=300)
        snap = snapshot(const, [st], IslPattern(GRID_PLUS, (0,)), t, 40.0)

        g = snap.station_positions[0]
        cosang = (snap.sat_positions @ g) / (
            np.linalg.norm(snap.sat_positions, axis=1) * np.linalg.norm(g)
        )
        central = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        vis = set(snap.edge_sats[0].tolist())
        for s in range(const.sat_count):
            if central[s] < COVERAGE_HALF_ANGLE_DEG - 1e-3:
                assert s in vis
            elif central[s] > COVERAGE_HALF_ANGLE_DEG + 1e-3:
                assert s not in vis

    def test_coverage_half_angle_constant(self):
        a = EARTH_RADIUS_KM + 550.0
        want = math.degrees(
            math.acos(EARTH_RADIUS_KM / a * math.cos(math.radians(40.0)))
        ) - 40.0
        assert COVERAGE_HALF_ANGLE_DEG == pytest.approx(want, abs=1e-4)

    def test_node_id_scheme(self):
        const = shell(5, 5)
        sts = [ground("a", 10.0, 20.0), ground("b", -30.0, 40.0)]
        snap = snapshot(const, sts, IslPattern(GRID_PLUS, (0,)), EPOCH, 25.0)
        assert snap.sat_count == 25
        assert snap.station_node(0) == 25
        assert snap.station_node(1) == 26

    def test_duplicate_station_ei_rejected(self):
        const = shell(4, 4)
        sts = [ground("a", 0.0, 0.0), ground("a", 1.0, 1.0)]
        with pytest.raises(ValueError):
            snapshot(const, sts, IslPattern(GRID_PLUS, (0,)), EPOCH, 25.0)

    def test_unknown_station_kind_rejected(self):
        with pytest.raises(ValueError):
            Station("x", "x", "orbital", FixedPosition(GeodeticPoint(0, 0, 0)))

    def test_neighbors_sorted_and_symmetric(self):
        const = shell(6, 6)
        snap = snapshot(const, [], IslPattern(GRID_STAR, (-1, 0)), EPOCH, 40.0)
        for s in range(const.sat_count):
            nb = snap.neighbors(s)
            assert np.all(np.diff(nb) > 0)
            for m in nb:
                assert s in snap.neighbors(int(m))

    def test_isl_lengths_match_positions(self):
        const = shell(6, 6)
        snap = snapshot(const, [], IslPattern(GRID_PLUS, (0,)), EPOCH, 40.0)
        diff = snap.sat_positions[snap.isl_pairs[:, 0]] - snap.sat_positions[snap.isl_pairs[:, 1]]
        assert np.allclose(snap.isl_lengths, np.linalg.norm(diff, axis=1))

    def test_supplied_isl_lengths_are_checked(self):
        # the shell's own grid template, with lengths supplied as a synthetic snapshot's
        const = shell(6, 6)
        tpl = build_persistent_isls(const, IslPattern(GRID_PLUS, (0,)))
        a, b = tpl.pairs[2].tolist()

        def make(lengths):
            return synthetic_snapshot(EPOCH, const, const.positions_at(EPOCH),
                                      const.velocities_at(EPOCH), tpl.pairs, tpl.kinds, lengths,
                                      min_elevation_deg=40.0)

        lengths = np.full(tpl.edge_count, 1000.0)
        for bad in (-1.0, math.nan, math.inf):
            lengths[2] = bad
            with pytest.raises(ValueError, match=rf"link 2 \({a}, {b}\) has length {bad}, not"):
                make(lengths)
        with pytest.raises(ValueError, match=rf"shape \(3,\) for {tpl.edge_count} links"):
            make(lengths[:3])
        lengths[2] = 0.0
        assert make(lengths.tolist()).isl_lengths.tolist() == lengths.tolist()

    def test_link_listing_covers_isls_and_edges(self):
        const = shell(10, 10)
        st = ground("obs", 45.0, 10.0)
        snap = snapshot(const, [st], IslPattern(GRID_PLUS, (0,)), EPOCH, 40.0)
        links = [
            (a, b, kind, length, latency)
            for ends, lengths, latencies in _links(snap)
            for (a, b, kind), length, latency in zip(ends, lengths, latencies)
        ]
        gsl = [l for l in links if l[2] == "GSL"]
        isl = [l for l in links if l[2] in ("iISL", "sISL")]
        assert len(isl) == snap.template.edge_count
        assert [list(l[:2]) for l in isl] == snap.isl_pairs.tolist()
        assert [l[0] for l in gsl] == snap.edge_sats[0].tolist()
        assert all(l[1] == snap.station_node(0) for l in gsl)
        assert len(links) == len(isl) + len(gsl)
        for a, b, kind, length, latency in links:
            assert latency == link_latency_ms(length)

    def test_template_adjacency_matches_neighbors(self):
        const = shell(5, 5)
        snap = snapshot(const, [], IslPattern(GRID_STAR, (-1, 0)), EPOCH, 40.0)
        tpl = snap.template
        for s in range(const.sat_count):
            real = tpl.link[s] < tpl.edge_count
            assert np.array_equal(tpl.real[s], real) and tpl.degree[s] == real.sum()
            src, ln = tpl.nbr[s][real], snap.slot_lengths[s][real]
            assert np.array_equal(np.sort(src), snap.neighbors(s))
            for a, d in zip(src, ln):
                assert d == pytest.approx(
                    float(np.linalg.norm(snap.sat_positions[a] - snap.sat_positions[s]))
                )

    def test_reusing_template_matches_fresh_build(self):
        const = shell(6, 6)
        pat = IslPattern(GRID_PLUS, (0,))
        tpl = build_persistent_isls(const, pat)
        t = EPOCH + timedelta(seconds=120)
        a = snapshot(const, [], pat, t, 40.0, template=tpl)
        b = snapshot(const, [], pat, t, 40.0)
        assert np.array_equal(a.isl_pairs, b.isl_pairs)
        assert np.allclose(a.isl_lengths, b.isl_lengths)


def square_snapshot(lengths=None, velocities=None, stations=()):
    """Four synthetic satellites in a ring, decoupled from real geometry."""
    const = shell(2, 2)
    positions = np.array(
        [
            [7000.0, 0.0, 0.0],
            [7000.0, 100.0, 0.0],
            [7000.0, 100.0, 100.0],
            [7000.0, 0.0, 100.0],
        ]
    )
    if velocities is None:
        velocities = np.zeros((4, 3))
    pairs = np.array([[0, 1], [1, 2], [2, 3], [0, 3]], dtype=np.int32)
    kinds = np.array([0, 1, 0, 1], dtype=np.int8)
    return synthetic_snapshot(
        EPOCH, const, positions, velocities, pairs, kinds,
        lengths=lengths, stations=stations,
    )


class TestSyntheticSnapshot:
    def test_supplied_lengths_override_geometry(self):
        snap = square_snapshot(lengths=[10.0, 20.0, 30.0, 40.0])
        assert snap.isl_lengths.tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_greedy_trace_reads_supplied_lengths(self):
        nowhere = Station("x", "x", "ground", FixedPosition(GeodeticPoint(0.0, 180.0, 0.0)))
        snap = square_snapshot(lengths=[10.0, 20.0, 30.0, 40.0], stations=(nowhere,))
        dest = np.array([7000.0, 150.0, 110.0])
        # the walk turns back at satellite 2; both routes around the ring
        p = trace_path(snap, "nfp", 0, 0, dest_pos=dest)
        assert p.sats == (0, 1, 2)
        assert p.isl_lengths_km == (10.0, 20.0)
        p = trace_path(snap, "nfp", 0, 0, dest_pos=dest[[0, 2, 1]])
        assert p.sats == (0, 3, 2)
        assert p.isl_lengths_km == (40.0, 30.0)

    def test_supplied_lengths_must_be_one_finite_non_negative_per_link(self):
        # a negative length made the baseline relaxation run forever
        with pytest.raises(ValueError, match=r"link 1 \(1, 2\) has length -1.0"):
            square_snapshot(lengths=[5.0, -1.0, 5.0, -2.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"link 3 \(0, 3\) has length {bad}"):
                square_snapshot(lengths=[5.0, 5.0, 5.0, bad])
        # a wrong count mis-mapped the lengths or raised IndexError
        for count in (3, 5):
            with pytest.raises(ValueError, match=rf"shape \({count},\) for 4 links"):
                square_snapshot(lengths=[5.0] * count)
        assert square_snapshot(lengths=[0.0] * 4).isl_lengths.tolist() == [0.0] * 4

    def test_default_lengths_from_positions(self):
        snap = square_snapshot()
        assert np.allclose(snap.isl_lengths, [100.0, 100.0, 100.0, 100.0])

    def test_adjacency_from_supplied_pairs(self):
        snap = square_snapshot()
        assert snap.neighbors(0).tolist() == [1, 3]
        assert snap.neighbors(2).tolist() == [1, 3]


class TestCrossingMeshDetection:
    def test_opposite_vertical_sense_required(self):
        vel = np.zeros((4, 3))
        vel[0, 2] = 1.0
        vel[1, 2] = -1.0
        vel[2, 2] = 1.0
        vel[3, 2] = 1.0
        const = shell(2, 2)
        positions = np.array(
            [
                [7000.0, 0.0, 0.0],
                [7000.0, 80.0, 0.0],
                [7000.0, 0.0, 80.0],
                [7000.0, 80.0, 80.0],
            ]
        )
        # persistent square ring: 0-1, 1-3, 2-3, 0-2
        pairs = np.array([[0, 1], [1, 3], [2, 3], [0, 2]], dtype=np.int32)
        kinds = np.zeros(4, dtype=np.int8)
        snap = synthetic_snapshot(EPOCH, const, positions, vel, pairs, kinds)

        found = {tuple(r) for r in detect_eisls(snap, 150.0).tolist()}
        # 1 descends; 0 and 2 ascend within range; 0-1 is persistent so only
        # the diagonal 1-2 and the side 1-3 are candidates, but 3 ascends too.
        assert found == {(1, 2)}

    def test_radius_gates_detection(self):
        vel = np.zeros((4, 3))
        vel[:, 2] = [1.0, -1.0, 1.0, 1.0]
        snap = square_snapshot(velocities=vel)
        near = {tuple(r) for r in detect_eisls(snap, 120.0).tolist()}
        far = {tuple(r) for r in detect_eisls(snap, 2000.0).tolist()}
        # sides are persistent, diagonal 0-2 is same-sense; only the 141 km
        # diagonal 1-3 qualifies, and only once the radius admits it
        assert near == set()
        assert far == {(1, 3)}

    def test_rows_canonical(self):
        vel = np.zeros((4, 3))
        vel[:, 2] = [1.0, -1.0, 1.0, 1.0]
        snap = square_snapshot(velocities=vel)
        rows = detect_eisls(snap, 2000.0)
        assert rows.size > 0
        assert np.all(rows[:, 0] < rows[:, 1])

    def test_nonpositive_radius_rejected(self):
        snap = square_snapshot()
        with pytest.raises(ValueError):
            detect_eisls(snap, 0.0)

    def test_real_shell_against_brute_force(self):
        const = shell(10, 10)
        pat = IslPattern(GRID_PLUS, (0,))
        snap = snapshot(const, [], pat, EPOCH + timedelta(seconds=450), 40.0)
        l_h = 1500.0
        persistent = {tuple(r) for r in snap.isl_pairs.tolist()}
        oracle = set()
        pos, vz = snap.sat_positions, snap.sat_velocities[:, 2]
        for a in range(const.sat_count):
            for b in range(a + 1, const.sat_count):
                if (a, b) in persistent or vz[a] * vz[b] >= 0:
                    continue
                if np.linalg.norm(pos[a] - pos[b]) < l_h:
                    oracle.add((a, b))
        assert {tuple(r) for r in detect_eisls(snap, l_h).tolist()} == oracle
        assert oracle  # the check must not pass vacuously

    @pytest.mark.parametrize(
        "pairs",
        [[[0, 1], [1, 3], [2, 3], [0, 2]], [[1, 0], [3, 1], [3, 2], [2, 0]]],
        ids=["canonical", "reversed"],
    )
    def test_persistent_pair_excluded_in_either_orientation(self, pairs):
        vel = np.zeros((4, 3))
        vel[:, 2] = [1.0, -1.0, 1.0, 1.0]
        positions = np.array(
            [[7000.0, 0.0, 0.0], [7000.0, 80.0, 0.0], [7000.0, 0.0, 80.0], [7000.0, 80.0, 80.0]]
        )
        snap = synthetic_snapshot(
            EPOCH, shell(2, 2), positions, vel, np.array(pairs), np.zeros(4, dtype=np.int8)
        )
        assert detect_eisls(snap, 150.0).tolist() == [[1, 2]]

    @pytest.mark.parametrize(
        "positions, vz, l_h, expected",
        [
            # satellite 0 is level (vz == 0) and pairs with nobody
            ([[0, 0, 0], [10, 0, 0], [0, 10, 0]], [0.0, 1.0, -1.0], 50.0, [[1, 2]]),
            # four satellites share the sweep-axis coordinate
            (
                [[0, 0, 0], [100, 0, 0], [100, 50, 0], [100, -50, 0], [100, 0, 50]],
                [1.0, -1.0, 1.0, 1.0, -1.0],
                120.0,
                [[0, 1], [0, 4], [1, 2], [1, 3], [2, 4], [3, 4]],
            ),
            # a pair exactly l_h apart (300, 400, 0) is out; just inside is in
            ([[0, 0, 0], [300, 400, 0]], [1.0, -1.0], 500.0, []),
            ([[0, 0, 0], [300, 400, 0]], [1.0, -1.0], 500.000001, [[0, 1]]),
            # no qualifying pair: all ascending, or opposite but far
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [1.0, 2.0, 3.0], 1e4, []),
            ([[0, 0, 0], [900, 0, 0]], [1.0, -1.0], 899.0, []),
        ],
    )
    def test_edge_cases_match_brute_force(self, positions, vz, l_h, expected):
        snap = free_snapshot(positions, vz, [])
        rows = detect_eisls(snap, l_h)
        assert rows.dtype == np.int32 and rows.shape == (len(expected), 2)
        assert rows.tolist() == expected
        assert np.array_equal(rows, brute_force_eisls(snap, l_h))

    @given(case=crossing_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_on_random_snapshots(self, case):
        positions, vz, pairs, l_h = case
        snap = free_snapshot(positions, vz, pairs)
        rows = detect_eisls(snap, l_h)
        expected = brute_force_eisls(snap, l_h)
        assert rows.dtype == expected.dtype and rows.shape == expected.shape
        assert np.array_equal(rows, expected)

    def test_low_inclination_shell_against_brute_force(self):
        # at 5 deg the z spread is small, so the sweep must run on x or y
        const = shell(10, 10, incl=5.0)
        pat = IslPattern(GRID_PLUS, (0,))
        found = 0
        for k in range(4):
            snap = snapshot(const, [], pat, EPOCH + timedelta(seconds=600 * k), 40.0)
            rows = detect_eisls(snap, 1500.0)
            assert np.array_equal(rows, brute_force_eisls(snap, 1500.0))
            found += len(rows)
        assert found

    @pytest.mark.parametrize("l_h", [500.0, 1000.0, 1500.0])
    def test_shipped_shell_equals_dense_formula(self, l_h):
        scn = load_scenario(SCENARIO_DIR / "experiment1_20x20.json")
        const = build_walker(scn.constellation)
        tpl = build_persistent_isls(const, scn.pattern)
        for t in scn.time.stamps()[::40]:
            snap = snapshot(const, scn.stations, scn.pattern, t, 40.0, template=tpl)
            rows, dense = detect_eisls(snap, l_h), dense_eisls(snap, l_h)
            assert rows.dtype == dense.dtype and rows.shape == dense.shape
            assert np.array_equal(rows, dense)

    @pytest.mark.parametrize("incl", [53.0, 5.0])
    def test_memory_stays_linear_on_a_40x40_shell(self, incl):
        # 5 deg: a sweep along z would take nearly all pairs as candidates
        const = shell(40, 40, incl=incl)
        snap = snapshot(const, [], IslPattern(GRID_PLUS, (0,)), EPOCH, 40.0)
        tracemalloc.start()
        try:
            rows = detect_eisls(snap, 500.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows)
        # the dense S x S x 3 difference array alone took 82 MB here
        assert peak < 10 * 2**20

    def test_tiny_radius_against_brute_force(self):
        # 1 m cells of the reach alone would number 1.4e7 to a side of the
        # shell, and their keys would overflow int64
        rng = np.random.default_rng(7)
        base = rng.normal(size=(30, 3))
        base *= 6921.0 / np.linalg.norm(base, axis=1)[:, None]
        step = rng.normal(size=(30, 3))
        step *= rng.uniform(2e-4, 1.6e-3, size=(30, 1)) / np.linalg.norm(step, axis=1)[:, None]
        vz = rng.choice([-1.0, 1.0], size=60)
        snap = free_snapshot(np.concatenate([base, base + step]), vz, [])
        rows, expected = detect_eisls(snap, 1e-3), brute_force_eisls(snap, 1e-3)
        assert rows.dtype == expected.dtype and np.array_equal(rows, expected)
        assert 0 < len(expected) < 30

    def test_radius_beyond_the_shell_diameter(self):
        # one cell holds the shell: every opposite pair that is not linked qualifies
        t = EPOCH + timedelta(seconds=300)
        snap = snapshot(shell(8, 8), [], IslPattern(GRID_PLUS, (0,)), t, 40.0)
        l_h = 3 * 6921.0
        rows, expected = detect_eisls(snap, l_h), brute_force_eisls(snap, l_h)
        assert rows.dtype == expected.dtype and np.array_equal(rows, expected)
        vz = snap.sat_velocities[:, 2]
        a, b = snap.isl_pairs.T
        assert len(rows) == (vz > 0).sum() * (vz < 0).sum() - (vz[a] * vz[b] < 0).sum()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_satellites_on_cell_boundaries_against_brute_force(self, data):
        # the grid's corner is the lowest coordinate on each axis, anchored
        # here at (-1000, -1000, -1000) and (1000, 1000, 1000), and its edge is
        # the padded radius, or 1/64 of the 2000 km extent at tiny radii:
        # satellites at whole multiples of the edge from the corner, each
        # with a partner along one axis at 0, half, just under, exactly and
        # just over the radius
        l_h = data.draw(st.sampled_from([1e-3, 10.0, 100.0, 499.0]))
        edge = max(l_h + 1e-9 * (l_h + 1000.0), 2000.0 / 64)
        top = int(2000.0 // edge)
        positions, vz = [[-1000.0] * 3, [1000.0] * 3], [1.0, -1.0]
        for _ in range(data.draw(st.integers(1, 12))):
            k = st.lists(st.sampled_from([0, 1, 2, top - 1, top]), min_size=3, max_size=3)
            point = [min(-1000.0 + i * edge, 1000.0) for i in data.draw(k)]
            axis = data.draw(st.integers(0, 2))
            shift = data.draw(st.sampled_from([-1, 1])) * data.draw(
                st.sampled_from([0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9])) * l_h
            partner = list(point)
            partner[axis] = min(max(partner[axis] + shift, -1000.0), 1000.0)
            positions += [point, partner]
            vz += data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=2, max_size=2))
        snap = free_snapshot(positions, vz, [])
        rows, expected = detect_eisls(snap, l_h), brute_force_eisls(snap, l_h)
        assert rows.dtype == expected.dtype and np.array_equal(rows, expected)

    def test_tracker_equals_detection_on_a_shipped_scenario(self):
        # EislTracker filters the pairs at its largest radius by distance;
        # each radius counts what detect_eisls finds at it, at every stamp,
        # and its episodes are the runs of each pair's stamps, tracked here
        # one pair at a time
        scn = load_scenario(SCENARIO_DIR / "experiment1_20x20.json")
        radii = [200.0, 500.0, 1000.0, 1500.0]
        tracker = EislTracker(radii, scn.time.step_s)
        counts = {r: [] for r in radii}
        runs, durations = {r: {} for r in radii}, {r: [] for r in radii}
        stamps, snapshot_of = scn.time.stamps(), snapshot_at(scn)
        for lo in range(0, len(stamps), 6):
            for snap in snapshot_of(stamps[lo : lo + 6]):
                tracker.add(snap)
                for r in radii:
                    active = {tuple(p) for p in detect_eisls(snap, r).tolist()}
                    counts[r].append(len(active))
                    for pair in set(runs[r]) - active:
                        durations[r].append(runs[r].pop(pair) * scn.time.step_s)
                    for pair in active:
                        runs[r][pair] = runs[r].get(pair, 0) + 1
        stats = tracker.result()
        for r in radii:
            assert stats[r].per_stamp_counts == tuple(counts[r])
            ended = durations[r] + [n * scn.time.step_s for n in runs[r].values()]
            assert stats[r].episode_durations_s == tuple(sorted(ended))
        assert all(counts[radii[-1]]) and stats[radii[0]].episode_count


class TestEislStatistics:
    def stamps(self):
        """Three stamps: pair 1-3 within range at 0 and 1, pair 0-2 only at 2.

        The square sides are persistent; the two diagonals have opposite
        vertical sense and their distances are the test dials. Pairs across
        the two clusters sit 20000 km apart and never qualify.
        """
        const = shell(2, 2)
        vel = np.zeros((4, 3))
        vel[:, 2] = [1.0, -1.0, -1.0, 1.0]
        pairs = np.array([[0, 1], [1, 2], [2, 3], [0, 3]], dtype=np.int32)
        kinds = np.zeros(4, dtype=np.int8)

        def make(d13, d02, t):
            positions = np.array(
                [
                    [7000.0, 0.0, 0.0],
                    [7000.0, 20000.0, 0.0],
                    [7000.0, d02, 0.0],
                    [7000.0, 20000.0 + d13, 0.0],
                ]
            )
            return synthetic_snapshot(t, const, positions, vel, pairs, kinds)

        t0 = EPOCH
        return [
            make(100.0, 5000.0, t0),
            make(100.0, 5000.0, t0 + timedelta(seconds=10)),
            make(9000.0, 60.0, t0 + timedelta(seconds=20)),
        ]

    def test_episode_tracking(self):
        stats = eisl_statistics(self.stamps(), [200.0], 10.0)[200.0]
        assert stats.per_stamp_counts == (1, 1, 1)
        assert stats.episode_durations_s == (10.0, 20.0)
        assert stats.episode_count == 2

    def test_smaller_radius_sees_nothing(self):
        stats = eisl_statistics(self.stamps(), [40.0, 200.0], 10.0)
        assert stats[40.0].per_stamp_counts == (0, 0, 0)
        assert stats[40.0].episode_count == 0
        assert stats[200.0].episode_count == 2

    def test_empty_radius_list_rejected(self):
        with pytest.raises(ValueError):
            eisl_statistics(self.stamps(), [], 10.0)


class TestDirectionHistogram:
    def flat_and_vertical(self):
        const = shell(2, 2)
        positions = np.array(
            [
                [7000.0, 0.0, 0.0],
                [7000.0, 100.0, 0.0],  # 0-1 horizontal
                [7000.0, 0.0, 50.0],
                [7000.0, 0.0, 150.0],  # 2-3 vertical
            ]
        )
        pairs = np.array([[0, 1], [2, 3]], dtype=np.int32)
        kinds = np.array([0, 1], dtype=np.int8)
        return synthetic_snapshot(EPOCH, const, positions, np.zeros((4, 3)), pairs, kinds)

    def test_known_angles_land_in_end_bins(self):
        hist = direction_histogram([self.flat_and_vertical()])
        assert hist.shape == (90,)
        assert hist[0] == pytest.approx(0.5)
        assert hist[89] == pytest.approx(0.5)
        assert hist.sum() == pytest.approx(1.0)

    def test_kind_filter(self):
        hist = direction_histogram([self.flat_and_vertical()], kinds=("iISL",))
        assert hist[0] == pytest.approx(1.0)
        hist = direction_histogram([self.flat_and_vertical()], kinds=("sISL",))
        assert hist[89] == pytest.approx(1.0)

    def test_unknown_kind_selection_rejected(self):
        with pytest.raises(ValueError):
            direction_histogram([self.flat_and_vertical()], kinds=("eISL",))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            direction_histogram([])

    def test_real_shell_normalized(self):
        const = shell(8, 8)
        pat = IslPattern(GRID_STAR, (-1, 0))
        snaps = [
            snapshot(const, [], pat, EPOCH + timedelta(seconds=60 * k), 40.0)
            for k in range(3)
        ]
        hist = direction_histogram(snaps)
        assert hist.sum() == pytest.approx(1.0)
        assert np.all(hist >= 0.0)
