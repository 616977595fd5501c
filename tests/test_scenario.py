"""Scenario parsing, validation messages, and great-circle trajectories."""

import json
import math
import pickle
import re
from datetime import timedelta, timezone

import pytest

from leonet.geometry import (
    EARTH_RADIUS_KM,
    GeodeticPoint,
    central_angle,
    geodesic_distance,
    great_circle_point,
    initial_bearing,
    utc,
)
from leonet.scenario import (
    ScenarioError,
    Trajectory,
    TrajectoryProvider,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import SCENARIO_DIR

EPOCH = "2025-01-01T00:00:00Z"
QUARTER = EARTH_RADIUS_KM * math.pi / 2


def base_dict(**overrides):
    root = {
        "name": "unit",
        "constellation": {
            "N": 6,
            "P": 6,
            "F": 1,
            "altitude_km": 550.0,
            "inclination_deg": 53.0,
            "epoch": EPOCH,
        },
        "pattern": {"grid": "+Grid", "bias": [0]},
        "time": {"start": "2025-01-01T01:00:00Z", "step_s": 10.0, "count": 5},
        "stations": [
            {"name": "alpha", "kind": "ground", "lat_deg": 45.0, "lon_deg": 10.0},
            {
                "name": "rover",
                "kind": "mobile",
                "trajectory": {
                    "start": {"lat_deg": 0.0, "lon_deg": 0.0},
                    "end": {"lat_deg": 0.0, "lon_deg": 90.0},
                    "speed_kms": 10.0,
                },
            },
        ],
        "connections": [["rover", "alpha"]],
        "algorithms": ["mplf-nfp", "sp"],
        "elevation_min_deg": 40.0,
        "eisl": {"L_h_km": 500.0},
    }
    root.update(overrides)
    return root


class TestTrajectory:
    def equator_track(self, speed=10.0):
        return Trajectory(
            GeodeticPoint(0.0, 0.0, 0.0), GeodeticPoint(0.0, 90.0, 0.0), speed
        )

    def test_arc_and_bearing(self):
        tr = self.equator_track()
        assert tr.arc_km == pytest.approx(QUARTER)
        assert tr.bearing_deg == pytest.approx(90.0)

    def test_constant_speed_midpoint(self):
        tr = self.equator_track()
        mid = tr.position_after(QUARTER / 2 / 10.0)
        assert mid.lat_deg == pytest.approx(0.0, abs=1e-9)
        assert mid.lon_deg == pytest.approx(45.0)

    def test_position_clamps_at_end(self):
        tr = self.equator_track()
        end = tr.position_after(1e9)
        assert end.lat_deg == pytest.approx(0.0, abs=1e-9)
        assert end.lon_deg == pytest.approx(90.0)

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            self.equator_track().position_after(-1.0)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            self.equator_track(speed=0.0)

    def test_antipodal_track_heads_due_east(self):
        tr = Trajectory(
            GeodeticPoint(10.0, 0.0, 0.0), GeodeticPoint(-10.0, 180.0, 0.0), 5.0
        )
        assert tr.arc_km == pytest.approx(math.pi * EARTH_RADIUS_KM)
        assert tr.bearing_deg == 90.0
        end = tr.position_after(tr.arc_km / 5.0)
        assert end.lat_deg == pytest.approx(-10.0)
        assert abs(end.lon_deg) == pytest.approx(180.0)

    def test_derived_track_equals_the_formula_at_every_stamp(self):
        # the arc and bearing, derived once, give the positions that deriving
        # them at every call gives, bit for bit
        scn = load_scenario(SCENARIO_DIR / "experiment3_moving.json")
        fresh = load_scenario(SCENARIO_DIR / "experiment3_moving.json")
        movers = [st for st in scn.stations if isinstance(st.provider, TrajectoryProvider)]
        assert movers
        for st in movers:
            prov, tr = st.provider, st.provider.trajectory
            for t in scn.time.stamps():
                elapsed = max((t - prov.start_time).total_seconds(), 0.0)
                bearing = (
                    90.0
                    if math.pi - central_angle(tr.start, tr.end) < 1e-9
                    else initial_bearing(tr.start, tr.end)
                )
                s = min(tr.speed_km_s * elapsed, geodesic_distance(tr.start, tr.end))
                assert st.position_at(t) == great_circle_point(tr.start, bearing, s)
        # the derived values take no part in equality, hashing or pickling
        assert scn == fresh and hash(scn) == hash(fresh)
        assert pickle.loads(pickle.dumps(scn)) == fresh

    def test_provider_anchors_at_start_time(self):
        t0 = utc(2025, 1, 1, 1)
        prov = TrajectoryProvider(self.equator_track(), t0)
        assert prov.position_at(t0).lon_deg == pytest.approx(0.0)
        later = prov.position_at(t0 + timedelta(seconds=100))
        assert later.lon_deg == pytest.approx(math.degrees(1000.0 / EARTH_RADIUS_KM))

    def test_provider_waits_at_start_point_before_start_time(self):
        t0 = utc(2025, 1, 1, 1)
        prov = TrajectoryProvider(self.equator_track(), t0)
        for early in (1.0, 20.0, 1e6):
            assert prov.position_at(t0 - timedelta(seconds=early)) == prov.position_at(t0)


class TestParsing:
    def test_full_dict(self):
        s = scenario_from_dict(base_dict())
        assert s.name == "unit"
        assert s.constellation.sats_per_plane == 6
        assert s.constellation.phase_factor == 1
        assert s.pattern.grid == "+Grid" and s.pattern.bias == (0,)
        assert s.time.count == 5 and s.time.step_s == 10.0
        assert [st.name for st in s.stations] == ["alpha", "rover"]
        assert s.stations[0].kind == "ground" and s.stations[1].kind == "mobile"
        assert s.connections == (("rover", "alpha"),)
        assert s.algorithms == ("mplf-nfp", "sp")
        assert s.elevation_min_deg == 40.0
        assert s.eisl_l_h_km == 500.0

    def test_ei_defaults_to_name(self):
        s = scenario_from_dict(base_dict())
        assert s.stations[0].ei == "alpha"

    def test_z_suffix_and_offset_timestamps_agree(self):
        a = scenario_from_dict(base_dict())
        root = base_dict()
        root["constellation"]["epoch"] = "2025-01-01T00:00:00+00:00"
        b = scenario_from_dict(root)
        assert a.constellation.epoch == b.constellation.epoch
        assert a.constellation.epoch.tzinfo == timezone.utc

    def test_naive_timestamp_is_utc(self):
        root = base_dict()
        root["constellation"]["epoch"] = "2025-01-01T00:00:00"
        s = scenario_from_dict(root)
        assert s.constellation.epoch == utc(2025, 1, 1)

    def test_phase_factor_equal_to_planes_normalizes(self):
        root = base_dict()
        root["constellation"]["F"] = 6  # same satellite set as F = 0
        assert scenario_from_dict(root).constellation.phase_factor == 0

    def test_single_plane_loads_under_bias_minus_one(self):
        # its cross-plane links repeat the ring; only bias 0 joins a satellite to itself
        root = base_dict()
        root["constellation"]["P"] = 1
        root["pattern"]["bias"] = [-1]
        assert scenario_from_dict(root).constellation.planes == 1

    def test_eisl_block_optional(self):
        root = base_dict()
        del root["eisl"]
        assert scenario_from_dict(root).eisl_l_h_km is None

    def test_mobile_start_time_defaults_to_grid_start(self):
        s = scenario_from_dict(base_dict())
        prov = s.stations[1].provider
        assert isinstance(prov, TrajectoryProvider)
        assert prov.start_time == s.time.start

    def test_mobile_start_time_override(self):
        root = base_dict()
        root["stations"][1]["trajectory"]["start_time"] = "2025-01-01T02:00:00Z"
        s = scenario_from_dict(root)
        assert s.stations[1].provider.start_time == utc(2025, 1, 1, 2)


def del_path(root, *keys):
    obj = root
    for k in keys[:-1]:
        obj = obj[k]
    del obj[keys[-1]]
    return root


class TestValidationMessages:
    """Every rejection must name the offending field."""

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda r: del_path(r, "constellation"), "constellation"),
            (lambda r: del_path(r, "constellation", "N"), "constellation.N"),
            (lambda r: r["constellation"].update(N="six"), "constellation.N"),
            (lambda r: r["constellation"].update(N=True), "constellation.N"),
            (lambda r: r["constellation"].update(F=9), "constellation"),
            (lambda r: r["constellation"].update(epoch=17), "constellation.epoch"),
            (lambda r: r["constellation"].update(epoch="yesterday"), "constellation.epoch"),
            (lambda r: r["pattern"].update(bias=[0.5]), "pattern.bias"),
            (lambda r: r["pattern"].update(bias=[True]), "pattern.bias"),
            (lambda r: r["pattern"].update(grid="hex"), "pattern"),
            (lambda r: r["pattern"].update(grid="*Grid"), "pattern"),
            (lambda r: r["time"].update(count=0), "time"),
            (lambda r: r["time"].update(start="2024-12-31T23:00:00Z"), "time.start"),
            (lambda r: r.update(stations="none"), "scenario.stations"),
            (lambda r: r["stations"][0].pop("lat_deg"), "stations[0].lat_deg"),
            (lambda r: r["stations"][0].update(name=""), "stations[0].name"),
            (lambda r: r["stations"][1].pop("trajectory"), "stations[1].trajectory"),
            (
                lambda r: r["stations"][1]["trajectory"]["start"].pop("lon_deg"),
                "stations[1].trajectory.start.lon_deg",
            ),
            (lambda r: r["stations"][0].update(kind="boat"), "stations[0].kind"),
            (lambda r: r["connections"].append(["alpha"]), "connections[1]"),
            (lambda r: r["connections"].append(["alpha", "ghost"]), "connections[1]"),
            (lambda r: r["connections"].append(["alpha", "alpha"]), "connections[1]"),
            (lambda r: r.update(algorithms=[]), "scenario.algorithms"),
            (lambda r: r.update(algorithms=["ospf"]), "algorithms[0]"),
            (lambda r: r.update(elevation_min_deg=90.0), "elevation_min_deg"),
            (lambda r: r.update(elevation_min_deg=-1.0), "elevation_min_deg"),
            (lambda r: r["eisl"].update(L_h_km=0.0), "eisl.L_h_km"),
            (lambda r: r.update(eisl=[]), "scenario.eisl"),
        ],
    )
    def test_error_names_field(self, mutate, needle):
        root = base_dict()
        mutate(root)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(root)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda r: r["stations"][0].update(ei=7), "stations[0].ei"),
            (lambda r: r["stations"][0].update(ei=None), "stations[0].ei"),
            (lambda r: r["stations"][0].update(ei=""), "stations[0].ei"),
            (lambda r: r["stations"][0].update(lat_deg=95.0), "stations[0]: latitude 95.0"),
            (lambda r: r["stations"][0].update(lat_deg=math.nan), "stations[0].lat_deg"),
            (lambda r: r["stations"][0].update(alt_km="x"), "stations[0].alt_km"),
            (lambda r: r["stations"][0].update(alt_km=True), "stations[0].alt_km"),
            (lambda r: r["stations"][0].update(alt_km=-1.0), "stations[0]: altitude -1.0"),
            (
                lambda r: r["stations"][1]["trajectory"]["end"].update(lat_deg=-91.0),
                "stations[1]: latitude -91.0",
            ),
            (
                lambda r: r["stations"][1]["trajectory"].update(speed_kms=math.inf),
                "stations[1].trajectory.speed_kms",
            ),
            (lambda r: r["stations"][1]["trajectory"].update(speed_kms=0.0), "stations[1]: speed"),
            (lambda r: r["constellation"].update(altitude_km=math.nan), "constellation.altitude_km"),
            (lambda r: r["eisl"].update(L_h_km=math.nan), "eisl.L_h_km"),
            (lambda r: r["time"].update(step_s=math.nan), "time.step_s"),
            (lambda r: r.update(elevation_min_deg=-math.inf), "scenario.elevation_min_deg"),
            (
                lambda r: r["connections"].append(["rover", "alpha"]),
                "connections[1]: repeats connections[0]",
            ),
            (
                lambda r: r["algorithms"].append("mplf-nfp"),
                "algorithms[2]: repeats algorithms[0]",
            ),
            (
                lambda r: (r["stations"][0].update(ei="rover"), r["stations"][1].update(ei="RVR")),
                "stations[0].ei: 'rover' is the name of stations[1]",
            ),
        ],
        ids=[
            "ei-int",
            "ei-null",
            "ei-empty",
            "lat-95",
            "lat-nan",
            "alt-string",
            "alt-bool",
            "alt-negative",
            "track-lat",
            "track-speed-inf",
            "track-speed-zero",
            "altitude-nan",
            "l_h-nan",
            "step-nan",
            "elevation-inf",
            "repeat-connection",
            "repeat-algorithm",
            "ei-is-another-name",
        ],
    )
    def test_bad_value_names_field(self, mutate, needle, tmp_path):
        root = base_dict()
        mutate(root)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(root)
        assert needle in str(err.value)
        # json writes and reads non-finite numbers as NaN and Infinity
        f = tmp_path / "s.json"
        f.write_text(json.dumps(root))
        with pytest.raises(ScenarioError, match=re.escape(needle)):
            load_scenario(f)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (
                lambda r: r["constellation"].update(altitude_km=math.nan),
                "constellation.altitude_km: expected a finite number",
            ),
            (lambda r: r["constellation"].update(N="six"), "constellation.N: expected an integer"),
            (lambda r: r["time"].update(step_s=math.nan), "time.step_s: expected a finite number"),
            (lambda r: r["pattern"].pop("grid"), "pattern.grid: missing required field"),
            (
                lambda r: r["constellation"].update(N=0),
                "constellation: sats_per_plane must be >= 1",
            ),
            (lambda r: r["time"].update(count=0), "time: count must be >= 1"),
            (
                lambda r: r["constellation"].update(N=1),
                "constellation.N: the persistent links join a satellite to itself",
            ),
            (
                lambda r: r["constellation"].update(P=1),
                "pattern.bias: the persistent links join a satellite to itself",
            ),
            (lambda r: r.update(connections=[]), "scenario.connections: expected a non-empty list"),
        ],
        ids=[
            "altitude-nan",
            "n-string",
            "step-nan",
            "grid-missing",
            "n-zero",
            "count-zero",
            "n-one",
            "one-plane-bias-zero",
            "no-connections",
        ],
    )
    def test_block_error_names_the_field_once(self, mutate, message):
        """A field's own error passes through its block unchanged; only a
        constructor's plain ValueError gets the block prefix."""
        root = base_dict()
        mutate(root)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(root)
        assert str(err.value) == message

    def test_duplicate_station_names(self):
        root = base_dict()
        root["stations"].append(
            {"name": "alpha", "kind": "ground", "lat_deg": 0.0, "lon_deg": 0.0}
        )
        with pytest.raises(ScenarioError, match="unique"):
            scenario_from_dict(root)

    def test_duplicate_station_eis(self):
        root = base_dict()
        root["stations"][1]["ei"] = "alpha"
        with pytest.raises(ScenarioError, match="EI"):
            scenario_from_dict(root)

    def test_top_level_must_be_object(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict([1, 2, 3])


class TestFiles:
    def test_load_uses_stem_as_fallback_name(self, tmp_path):
        root = base_dict()
        del root["name"]
        f = tmp_path / "my-run.json"
        f.write_text(json.dumps(root))
        assert load_scenario(f).name == "my-run"

    def test_invalid_json_reported(self, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(f)

    def test_echo_round_trips(self):
        s = scenario_from_dict(base_dict())
        echo = scenario_to_dict(s)
        again = scenario_from_dict(echo)
        assert again == s


NOMINAL_TRACKS = [
    # (start lat, start lon, end lat, end lon, nominal km, speed km/s)
    (50.0, 0.0, -50.0, 180.0, 19998.15, 10.1),
    (50.0, 18.0, -50.0, 162.0, 17461.25, 8.81),
    (50.0, 36.0, -50.0, 144.0, 15062.56, 7.60),
    (50.0, 54.0, -50.0, 126.0, 13020.83, 6.57),
    (50.0, 72.0, -50.0, 108.0, 11599.87, 5.85),
    (50.0, 90.0, -50.0, 90.0, 11081.69, 5.59),
    (40.0, 0.0, -40.0, 180.0, 19970.32, 10.08),
    (30.0, 0.0, -30.0, 180.0, 19972.31, 10.08),
    (20.0, 0.0, -20.0, 180.0, 19977.69, 10.08),
    (10.0, 0.0, -10.0, 180.0, 19984.97, 10.08),
    (0.0, 0.0, 0.0, 180.0, 19992.30, 10.08),
]


class TestShippedScenarios:
    def test_fixed_station_experiments_parse(self):
        small = load_scenario("scenarios/experiment1_20x20.json")
        assert (small.constellation.sats_per_plane, small.constellation.planes) == (20, 20)
        assert small.pattern.bias == (0,)
        assert small.eisl_l_h_km == 500.0
        assert len(small.connections) == 3
        assert set(small.algorithms) == {"mplf-cpi", "mplf-nfp", "sp", "lh"}

        big = load_scenario("scenarios/experiment1_40x40.json")
        assert (big.constellation.sats_per_plane, big.constellation.planes) == (40, 40)
        assert big.time == small.time
        assert big.connections == small.connections

        swirl = load_scenario("scenarios/experiment2_40x40.json")
        assert swirl.pattern == big.pattern
        assert swirl.connections == big.connections

    def test_moving_station_tracks_match_nominal_lengths(self):
        """Each mobile track's sphere arc stays within 0.5% of its nominal
        point-to-point distance, and the scenario encodes the same rows."""
        s = load_scenario("scenarios/experiment3_moving.json")
        mobiles = [st for st in s.stations if st.kind == "mobile"]
        assert len(mobiles) == len(NOMINAL_TRACKS) == 11
        for st, row in zip(mobiles, NOMINAL_TRACKS):
            lat0, lon0, lat1, lon1, nominal, speed = row
            tr = st.provider.trajectory
            assert tr.start.lat_deg == lat0 and tr.start.lon_deg == lon0
            assert tr.end.lat_deg == lat1 and abs(tr.end.lon_deg) == abs(lon1)
            assert tr.speed_km_s == speed
            arc = geodesic_distance(tr.start, tr.end)
            assert abs(arc - nominal) / nominal <= 0.005

        fixed = [st for st in s.stations if st.kind == "ground"]
        assert [st.name for st in fixed] == ["Harbin"]
        assert all(c[1] == "Harbin" for c in s.connections)
        assert len(s.connections) == 11
