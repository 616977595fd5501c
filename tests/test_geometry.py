"""Geometry primitives against independently derived oracles."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonet.constellation import ConstellationConfig, build_walker
from leonet.geometry import (
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_PER_S,
    SPEED_OF_LIGHT_KM_PER_S,
    GeodeticPoint,
    central_angle,
    ecef_to_eci,
    ecef_to_geodetic,
    eci_to_ecef,
    eci_to_geodetic,
    eci_to_lonlat,
    elevation_angle,
    geodesic_distance,
    geodetic_to_ecef,
    great_circle_point,
    initial_bearing,
    link_equator_angle,
    link_latency_ms,
    utc,
)

EPOCH = datetime(2025, 1, 1, tzinfo=timezone.utc)

# oracle: elevation of a satellite at 550 km altitude seen from a station
# 25 deg of ground arc away; el = atan2(r*cos(g) - R, r*sin(g)) with the
# station at the origin of the local horizon frame
ELEVATION_AT_25_DEG_OFFSET = -1.9277


def test_earth_constants():
    assert EARTH_RADIUS_KM == 6371.0
    assert EARTH_ROTATION_RAD_PER_S == pytest.approx(7.2921159e-5)
    assert SPEED_OF_LIGHT_KM_PER_S == pytest.approx(299792.458)


class TestGeodeticPoint:
    def test_longitude_normalized_to_half_open_interval(self):
        assert GeodeticPoint(0.0, 181.0).lon_deg == pytest.approx(-179.0)
        assert GeodeticPoint(0.0, -180.0).lon_deg == pytest.approx(180.0)
        assert GeodeticPoint(0.0, 540.0).lon_deg == pytest.approx(180.0)

    def test_latitude_bounds_enforced(self):
        with pytest.raises(ValueError):
            GeodeticPoint(90.1, 0.0)
        with pytest.raises(ValueError):
            GeodeticPoint(-90.1, 0.0)

    def test_negative_altitude_rejected(self):
        with pytest.raises(ValueError):
            GeodeticPoint(0.0, 0.0, -1.0)

    @given(st.floats(-90, 90), st.floats(-1000, 1000))
    def test_normalization_is_idempotent(self, lat, lon):
        p = GeodeticPoint(lat, lon)
        q = GeodeticPoint(p.lat_deg, p.lon_deg)
        assert q.lon_deg == pytest.approx(p.lon_deg)


class TestEcefConversion:
    def test_equator_prime_meridian(self):
        v = geodetic_to_ecef(GeodeticPoint(0.0, 0.0))
        np.testing.assert_allclose(v, [EARTH_RADIUS_KM, 0.0, 0.0], atol=1e-9)

    def test_north_pole(self):
        v = geodetic_to_ecef(GeodeticPoint(90.0, 0.0))
        np.testing.assert_allclose(v, [0.0, 0.0, EARTH_RADIUS_KM], atol=1e-9)

    def test_altitude_adds_radially(self):
        v = geodetic_to_ecef(GeodeticPoint(0.0, 90.0, 550.0))
        np.testing.assert_allclose(v, [0.0, EARTH_RADIUS_KM + 550.0, 0.0], atol=1e-9)

    @given(
        st.floats(-89.9, 89.9),
        st.floats(-179.9, 179.9),
        st.floats(0, 2000),
    )
    @settings(max_examples=200)
    def test_roundtrip(self, lat, lon, alt):
        p = GeodeticPoint(lat, lon, alt)
        q = ecef_to_geodetic(geodetic_to_ecef(p))
        assert q.lat_deg == pytest.approx(lat, abs=1e-9)
        assert q.lon_deg == pytest.approx(lon, abs=1e-9)
        assert q.alt_km == pytest.approx(alt, abs=1e-6)


def reference_geodetic(p, t):
    """The scalar conversion before batches: a 1-D norm, then asin and atan2."""
    e = eci_to_ecef(np.asarray(p, dtype=float), t, EPOCH)
    r = float(np.linalg.norm(e))
    lat = math.degrees(math.asin(float(e[2]) / r))
    lon = math.degrees(math.atan2(float(e[1]), float(e[0])))
    return GeodeticPoint(lat, lon, max(r - EARTH_RADIUS_KM, 0.0))


def bits(g):
    return tuple(float(v).hex() for v in (g.lat_deg, g.lon_deg, g.alt_km))


_NEAR_AXIS = st.floats(-1e-3, 1e-3)  # both zeros included
_RADIUS = st.floats(6400.0, 8000.0)
_POSITIONS = st.one_of(
    st.tuples(*[st.floats(-1e4, 1e4)] * 3).filter(lambda p: math.hypot(*p) > 1.0),
    # near a pole
    st.builds(lambda x, y, z, s: (x, y, s * z), _NEAR_AXIS, _NEAR_AXIS, _RADIUS,
              st.sampled_from([-1.0, 1.0])),
    # near the +-180 deg meridian, exactly on it at the epoch
    st.builds(lambda x, y, z: (-x, y, z), _RADIUS, _NEAR_AXIS, st.floats(-6000.0, 6000.0)),
)


class TestGeodeticBatch:
    @given(
        st.lists(_POSITIONS, min_size=1, max_size=12),
        st.one_of(st.just(0.0), st.floats(0, 86400)),
    )
    @settings(max_examples=300)
    def test_batch_equals_scalar_bit_for_bit(self, positions, dt_s):
        t = EPOCH + timedelta(seconds=dt_s)
        batch = eci_to_geodetic(np.array(positions), t, EPOCH)
        assert len(batch) == len(positions)
        for p, g in zip(positions, batch):
            assert bits(g) == bits(eci_to_geodetic(np.array(p), t, EPOCH))
            assert bits(g) == bits(reference_geodetic(p, t))

    @given(
        st.lists(_POSITIONS, min_size=0, max_size=12),
        st.one_of(st.just(0.0), st.floats(0, 86400)),
    )
    @settings(max_examples=300)
    def test_lonlat_batch_equals_the_points_bit_for_bit(self, positions, dt_s):
        t = EPOCH + timedelta(seconds=dt_s)
        p = np.array(positions).reshape(-1, 3)
        lon, lat = eci_to_lonlat(p, t, EPOCH)
        points = eci_to_geodetic(p, t, EPOCH)
        assert [float(v).hex() for v in lon] == [float(g.lon_deg).hex() for g in points]
        assert [float(v).hex() for v in lat] == [float(g.lat_deg).hex() for g in points]

    def test_lonlat_batch_of_a_whole_shell(self):
        # 4,800 sub-points: numpy's arcsin and arctan2 differ from math's on
        # some of them, the batch must not
        shell = np.concatenate([
            build_walker(ConstellationConfig(40, 40, 0, 550.0, 53.0, EPOCH)).positions_at(
                EPOCH + timedelta(seconds=dt))
            for dt in (0.0, 3600.0, 7777.7)
        ])
        t = EPOCH + timedelta(seconds=5000.0)
        lon, lat = eci_to_lonlat(shell, t, EPOCH)
        points = eci_to_geodetic(shell, t, EPOCH)
        assert lon == [g.lon_deg for g in points] and lat == [g.lat_deg for g in points]
        with pytest.raises(ValueError, match="zero-length position"):
            eci_to_lonlat(np.zeros((1, 3)), t, EPOCH)

    def test_meridian_and_poles(self):
        points = ecef_to_geodetic(
            np.array([[-7000.0, 0.0, 0.0], [-7000.0, -0.0, 0.0], [0.0, 0.0, 7000.0]])
        )
        assert [(g.lat_deg, g.lon_deg) for g in points] == [(0.0, 180.0), (0.0, 180.0), (90.0, 0.0)]

    def test_empty_batch_and_zero_row(self):
        assert ecef_to_geodetic(np.zeros((0, 3))) == []
        with pytest.raises(ValueError, match="zero-length position"):
            ecef_to_geodetic(np.array([[7000.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    def test_other_shapes_rejected(self):
        # a (1, 3) batch is a list of one; no other shape is flattened into one
        assert len(ecef_to_geodetic(np.full((1, 3), 7000.0))) == 1
        for shape in [(), (2,), (4,), (1, 2), (2, 4), (2, 2, 3)]:
            with pytest.raises(ValueError, match=r"an \(n, 3\) batch, not shape \("):
                ecef_to_geodetic(np.full(shape, 7000.0))


class TestFrameRotation:
    def test_identity_at_epoch(self):
        v = np.array([1234.5, -678.9, 42.0])
        np.testing.assert_allclose(ecef_to_eci(v, EPOCH, EPOCH), v, atol=1e-12)

    def test_equatorial_drift_after_one_second(self):
        # a fixed ECEF point on the equator moves omega_E * R in the
        # inertial frame per second of elapsed time
        v = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
        t = EPOCH + timedelta(seconds=1)
        drift = np.linalg.norm(ecef_to_eci(v, t, EPOCH) - v)
        assert drift == pytest.approx(EARTH_ROTATION_RAD_PER_S * EARTH_RADIUS_KM, abs=1e-9)
        assert drift == pytest.approx(0.4646, abs=1e-4)

    def test_rotation_preserves_z_and_norm(self):
        v = np.array([-2000.0, 3000.0, 4000.0])
        t = EPOCH + timedelta(seconds=777)
        w = ecef_to_eci(v, t, EPOCH)
        assert w[2] == pytest.approx(v[2])
        assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v))

    def test_time_before_epoch_rejected(self):
        with pytest.raises(ValueError):
            ecef_to_eci(np.zeros(3), EPOCH - timedelta(seconds=1), EPOCH)

    @given(st.floats(0, 86400))
    @settings(max_examples=100)
    def test_roundtrip(self, dt_s):
        v = np.array([1000.0, -6000.0, 2500.0])
        t = EPOCH + timedelta(seconds=dt_s)
        np.testing.assert_allclose(eci_to_ecef(ecef_to_eci(v, t, EPOCH), t, EPOCH), v, atol=1e-9)

    def test_vectorized_matches_scalar(self):
        pts = np.array([[7000.0, 0.0, 0.0], [0.0, 7000.0, 100.0], [-1.0, 2.0, 3.0]])
        t = EPOCH + timedelta(seconds=3600)
        out = ecef_to_eci(pts, t, EPOCH)
        for row, exp in zip(pts, out):
            np.testing.assert_allclose(ecef_to_eci(row, t, EPOCH), exp, atol=1e-12)

    def test_eci_to_geodetic_composes(self):
        p = GeodeticPoint(12.3, 45.6, 550.0)
        t = EPOCH + timedelta(seconds=500)
        eci = ecef_to_eci(geodetic_to_ecef(p), t, EPOCH)
        q = eci_to_geodetic(eci, t, EPOCH)
        assert q.lat_deg == pytest.approx(p.lat_deg, abs=1e-9)
        assert q.lon_deg == pytest.approx(p.lon_deg, abs=1e-9)


class TestElevation:
    def test_satellite_at_zenith(self):
        station = geodetic_to_ecef(GeodeticPoint(10.0, 20.0))
        sat = geodetic_to_ecef(GeodeticPoint(10.0, 20.0, 550.0))
        assert elevation_angle(station, sat) == pytest.approx(90.0)

    def test_elevation_at_25_deg_ground_offset(self):
        # independent oracle: place the station at the equator, the
        # satellite 25 deg of longitude away at 550 km, and compare with
        # the horizon-frame arctangent formula
        station = geodetic_to_ecef(GeodeticPoint(0.0, 0.0))
        sat = geodetic_to_ecef(GeodeticPoint(0.0, 25.0, 550.0))
        r = EARTH_RADIUS_KM + 550.0
        g = math.radians(25.0)
        oracle = math.degrees(
            math.atan2(r * math.cos(g) - EARTH_RADIUS_KM, r * math.sin(g))
        )
        got = elevation_angle(station, sat)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(ELEVATION_AT_25_DEG_OFFSET, abs=1e-4)

    def test_vectorized_over_satellites(self):
        station = geodetic_to_ecef(GeodeticPoint(0.0, 0.0))
        sats = np.stack(
            [
                geodetic_to_ecef(GeodeticPoint(0.0, off, 550.0))
                for off in (0.0, 5.0, 25.0)
            ]
        )
        els = elevation_angle(station, sats)
        assert els.shape == (3,)
        assert els[0] == pytest.approx(90.0)
        assert els[1] > els[2]

    def test_a_group_of_observers_is_each_observer_alone(self):
        rng = np.random.default_rng(3)
        ground = np.stack([geodetic_to_ecef(GeodeticPoint(lat, lon)) for lat, lon in
                           rng.uniform((-80.0, -180.0), (80.0, 180.0), size=(7, 2))])
        counts = [0, 1, 5, 37, 0, 200, 3]
        sats = rng.normal(size=(sum(counts), 3)) * 7000.0
        got = elevation_angle(ground, sats, counts)
        bounds = np.cumsum([0, *counts])
        want = np.concatenate([elevation_angle(g, sats[a:b])
                               for g, a, b in zip(ground, bounds, bounds[1:])])
        assert got.shape == (sum(counts),) and got.tobytes() == want.tobytes()

    def test_first_bad_observer_of_a_group_raises(self):
        ground = np.array([[7000.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 7000.0, 0.0]])
        sats = np.array([[0.0, 0.0, 8000.0], [1.0, 2.0, 3.0], [0.0, 7000.0, 0.0]])
        with pytest.raises(ValueError, match="observer at the Earth center"):
            elevation_angle(ground, sats, [1, 1, 1])
        with pytest.raises(ValueError, match="satellite coincides"):
            elevation_angle(ground[[0, 2, 1]], sats[[0, 2, 1]], [1, 1, 1])
        # an observer with no rows still has to have a horizon
        with pytest.raises(ValueError, match="observer at the Earth center"):
            elevation_angle(ground, sats[[0, 0]], [2, 0, 0])

    @given(st.floats(-80, 80), st.floats(-170, 170))
    @settings(max_examples=100)
    def test_bounded(self, lat, lon):
        station = geodetic_to_ecef(GeodeticPoint(10.0, 10.0))
        sat = geodetic_to_ecef(GeodeticPoint(lat, lon, 550.0))
        el = float(elevation_angle(station, sat))
        assert -90.0 <= el <= 90.0


class TestLinkEquatorAngle:
    def test_horizontal_link(self):
        assert link_equator_angle(np.array([0.0, 500.0, 0.0])) == pytest.approx(0.0)

    def test_vertical_link(self):
        assert link_equator_angle(np.array([0.0, 0.0, 500.0])) == pytest.approx(math.pi / 2)

    def test_sign_follows_z(self):
        v = np.array([-100.0, 400.0, 300.0])
        assert link_equator_angle(-v) == pytest.approx(-link_equator_angle(v))

    def test_45_degree_link(self):
        v = np.array([300.0, 400.0, 500.0])  # |xy| = 500 = z
        assert link_equator_angle(v) == pytest.approx(math.pi / 4)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            link_equator_angle(np.zeros(3))


class TestGreatCircle:
    def test_quarter_circumference(self):
        d = geodesic_distance(GeodeticPoint(0.0, 0.0), GeodeticPoint(0.0, 90.0))
        assert d == pytest.approx(math.pi / 2 * EARTH_RADIUS_KM)

    def test_central_angle_matches_dot_product(self):
        # haversine against the plain arccos of unit-vector dot product
        a, b = GeodeticPoint(37.77, -122.42), GeodeticPoint(31.23, 121.47)
        ua = geodetic_to_ecef(a) / EARTH_RADIUS_KM
        ub = geodetic_to_ecef(b) / EARTH_RADIUS_KM
        assert central_angle(a, b) == pytest.approx(
            math.acos(float(np.clip(ua @ ub, -1, 1))), abs=1e-12
        )

    def test_link_latency_at_light_speed(self):
        assert link_latency_ms(SPEED_OF_LIGHT_KM_PER_S) == pytest.approx(1000.0)

    def test_bearing_due_north(self):
        assert initial_bearing(GeodeticPoint(0.0, 10.0), GeodeticPoint(50.0, 10.0)) == pytest.approx(0.0)

    def test_bearing_due_east_on_equator(self):
        assert initial_bearing(GeodeticPoint(0.0, 0.0), GeodeticPoint(0.0, 90.0)) == pytest.approx(90.0)

    @given(
        st.floats(-80, 80),
        st.floats(-170, 170),
        st.floats(-80, 80),
        st.floats(-170, 170),
    )
    @settings(max_examples=150)
    def test_walking_the_bearing_reaches_the_target(self, lat1, lon1, lat2, lon2):
        a, b = GeodeticPoint(lat1, lon1), GeodeticPoint(lat2, lon2)
        d = geodesic_distance(a, b)
        if d < 1.0 or math.pi - central_angle(a, b) < 1e-6:
            return  # degenerate and antipodal cases exercised elsewhere
        c = great_circle_point(a, initial_bearing(a, b), d)
        assert geodesic_distance(b, c) < 1e-6 * max(d, 1.0)

    def test_zero_arc_returns_start(self):
        a = GeodeticPoint(12.0, 34.0)
        c = great_circle_point(a, 77.0, 0.0)
        assert c.lat_deg == pytest.approx(12.0)
        assert c.lon_deg == pytest.approx(34.0)


def test_utc_constructor_is_timezone_aware():
    t = utc(2025, 1, 1, 12, 30)
    assert t.tzinfo is timezone.utc
    assert t == datetime(2025, 1, 1, 12, 30, tzinfo=timezone.utc)
