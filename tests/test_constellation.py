"""Walker shell generation against an independent two-body oracle."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from leonet.constellation import (
    MU_EARTH_KM3_PER_S2,
    Constellation,
    ConstellationConfig,
    TimeGrid,
    build_walker,
    max_phase_factor,
)

EPOCH = datetime(2025, 1, 1, tzinfo=timezone.utc)


def make_config(sats=20, planes=20, phase=0, alt=550.0, incl=53.0):
    return ConstellationConfig(sats, planes, phase, alt, incl, EPOCH)


def oracle_position(cfg, plane, slot, t):
    """Independent propagation: rotate the in-plane state by RAAN and
    inclination explicitly, rather than through precomputed axes."""
    a = 6371.0 + cfg.altitude_km
    omega = math.sqrt(MU_EARTH_KM3_PER_S2 / a**3)
    raan = math.radians(360.0 * plane / cfg.planes)
    u0 = math.radians(
        360.0 * slot / cfg.sats_per_plane
        + 360.0 * cfg.phase_factor * plane / (cfg.sats_per_plane * cfg.planes)
    )
    u = u0 + omega * (t - cfg.epoch).total_seconds()
    incl = math.radians(cfg.inclination_deg)
    in_plane = np.array([a * math.cos(u), a * math.sin(u), 0.0])
    rx = np.array(
        [
            [1, 0, 0],
            [0, math.cos(incl), -math.sin(incl)],
            [0, math.sin(incl), math.cos(incl)],
        ]
    )
    rz = np.array(
        [
            [math.cos(raan), -math.sin(raan), 0],
            [math.sin(raan), math.cos(raan), 0],
            [0, 0, 1],
        ]
    )
    return rz @ rx @ in_plane


class TestConfig:
    def test_orbital_period_oracle(self):
        # 2*pi*sqrt(a^3/mu) at 550 km altitude
        cfg = make_config()
        a = 6921.0
        expected = 2 * math.pi * math.sqrt(a**3 / 398600.4418)
        assert cfg.period_s == pytest.approx(expected, abs=1e-9)
        assert cfg.period_s == pytest.approx(5730.127, abs=1e-3)

    def test_total_sats(self):
        assert make_config(40, 40).total_sats == 1600

    def test_phase_factor_bounds(self):
        with pytest.raises(ValueError):
            make_config(phase=20)  # F must be < P
        with pytest.raises(ValueError):
            make_config(phase=-1)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            make_config(sats=0)
        with pytest.raises(ValueError):
            make_config(planes=0)

    def test_epoch_must_be_aware(self):
        with pytest.raises(ValueError):
            ConstellationConfig(20, 20, 0, 550.0, 53.0, datetime(2025, 1, 1))

    def test_inclination_bounds(self):
        with pytest.raises(ValueError):
            make_config(incl=180.5)


def test_max_phase_factor():
    assert max_phase_factor(20) == 9  # even: P/2 - 1
    assert max_phase_factor(7) == 3  # odd: (P-1)/2
    assert max_phase_factor(2) == 0
    assert max_phase_factor(1) == 0


class TestPropagation:
    def test_positions_match_oracle(self):
        cfg = make_config(sats=6, planes=5, phase=2)
        c = build_walker(cfg)
        t = EPOCH + timedelta(seconds=1234.5)
        pos = c.positions_at(t)
        assert pos.shape == (30, 3)
        for plane in range(5):
            for slot in range(6):
                idx = plane * 6 + slot  # plane-major flat layout
                np.testing.assert_allclose(
                    pos[idx], oracle_position(cfg, plane, slot, t), atol=1e-6
                )

    @pytest.mark.parametrize("shape", [(6, 5, 2), (40, 40, 0), (22, 72, 39)])
    def test_a_block_of_stamps_is_each_stamp_alone(self, shape):
        c = build_walker(make_config(*shape))
        stamps = [EPOCH + timedelta(seconds=3600.0 + 10.0 * i) for i in range(13)]
        block = c.positions_at(stamps)
        assert block.shape == (13, c.sat_count, 3)
        for t, pos in zip(stamps, block):
            assert pos.tobytes() == c.positions_at(t).tobytes()
        assert c.positions_at([]).shape == (0, c.sat_count, 3)

    @pytest.mark.parametrize("shape", [(6, 5, 2), (40, 40, 0), (22, 72, 39)])
    def test_a_block_of_velocities_is_each_stamp_alone(self, shape):
        c = build_walker(make_config(*shape))
        stamps = [EPOCH + timedelta(seconds=3600.0 + 10.0 * i) for i in range(13)]
        block = c.velocities_at(stamps)
        assert block.shape == (13, c.sat_count, 3)
        for t, vel in zip(stamps, block):
            assert vel.tobytes() == c.velocities_at(t).tobytes()
        assert c.velocities_at([]).shape == (0, c.sat_count, 3)

    def test_radius_is_constant(self):
        c = build_walker(make_config())
        for dt in (0.0, 300.0, 4000.0):
            pos = c.positions_at(EPOCH + timedelta(seconds=dt))
            np.testing.assert_allclose(np.linalg.norm(pos, axis=1), 6921.0, atol=1e-9)

    def test_velocity_matches_numeric_derivative(self):
        c = build_walker(make_config(sats=4, planes=3, phase=1))
        t = EPOCH + timedelta(seconds=500)
        h = 1e-3
        v = c.velocities_at(t)
        dp = (
            c.positions_at(t + timedelta(seconds=h))
            - c.positions_at(t - timedelta(seconds=h))
        ) / (2 * h)
        np.testing.assert_allclose(v, dp, atol=1e-5)

    def test_speed_is_circular(self):
        cfg = make_config()
        c = build_walker(cfg)
        v = c.velocities_at(EPOCH + timedelta(seconds=42))
        expected = math.sqrt(MU_EARTH_KM3_PER_S2 / 6921.0)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), expected, atol=1e-9)

    def test_period_closes_the_orbit(self):
        cfg = make_config()
        c = build_walker(cfg)
        p0 = c.positions_at(EPOCH)
        p1 = c.positions_at(EPOCH + timedelta(seconds=cfg.period_s))
        np.testing.assert_allclose(p0, p1, atol=1e-3)

    def test_phase_offset_between_adjacent_planes(self):
        # F=1: slot 0 of plane 1 leads slot 0 of plane 0 by 360/(N*P) deg
        cfg = make_config(sats=8, planes=4, phase=1)
        c = build_walker(cfg)
        pos = c.positions_at(EPOCH)
        for plane in (0, 1):
            np.testing.assert_allclose(
                pos[plane * 8], oracle_position(cfg, plane, 0, EPOCH), atol=1e-6
            )

    def test_time_before_epoch_rejected(self):
        c = build_walker(make_config())
        with pytest.raises(ValueError):
            c.positions_at(EPOCH - timedelta(seconds=1))


class TestTimeGrid:
    def test_stamps(self):
        grid = TimeGrid(EPOCH, 10.0, 3)
        assert list(grid.stamps()) == [
            EPOCH,
            EPOCH + timedelta(seconds=10),
            EPOCH + timedelta(seconds=20),
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(EPOCH, 0.0, 3)
        with pytest.raises(ValueError):
            TimeGrid(EPOCH, 10.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(datetime(2025, 1, 1), 10.0, 3)
