"""Acceptance suite: one test per external guarantee of the library.

The first two tests check the routing primitives against independent
reference implementations on randomized inputs. The middle block replays
the shipped experiment scenarios (via the session fixtures in conftest.py)
and checks the published relationships between the greedy strategies and
the shortest-path baselines. The tail covers topology statistics, frame
conversion accuracy, and byte-level reproducibility of the exports.

The per-path 1.8 stretch bound in test_06 is measured against the exact
latency optimum from the greedy path's own ingress satellite, not against
the stations' surface great circle. No path through this shell meets 1.8x
the great circle, the optimum included: on the moving-source scenario the
best sp path of a stamp exceeds it on 632 of 2,178 stamps (up to 2.49),
although the stations are never farther apart than 12,734 km. The +Grid
mesh at 550 km and the two access links at a 40 degree minimum elevation
add that length whatever the forwarding rule does.
"""

import heapq
import math
import random
import statistics
import time
from collections import Counter, defaultdict
from datetime import timedelta

import numpy as np
import pytest

from leonet.constellation import ConstellationConfig, build_walker
from leonet.exporters import export_result
from leonet.geometry import (
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_PER_S,
    GeodeticPoint,
    ecef_to_eci,
    eci_to_ecef,
    utc,
)
from leonet.harness import run_experiment
from leonet.routing import (
    ALGO_LH,
    ALGO_MPLF_CPI,
    ALGO_MPLF_NFP,
    ALGO_SP,
    STRATEGY_CPI,
    STRATEGY_NFP,
    WEIGHT_LATENCY,
    bellman_ford,
    trace_path,
)
from leonet.scenario import load_scenario
from leonet.topology import (
    FixedPosition,
    IslPattern,
    Station,
    build_persistent_isls,
    direction_histogram,
    eisl_statistics,
    snapshot,
    synthetic_snapshot,
)

from conftest import SCENARIO_DIR, log_rows

EPOCH = utc(2025, 1, 1)
MPLF_ALGOS = (ALGO_MPLF_CPI, ALGO_MPLF_NFP)
BASELINE_ALGOS = (ALGO_SP, ALGO_LH)
CITY_PAIRS = (
    ("Harbin", "London"),
    ("London", "SanFrancisco"),
    ("SanFrancisco", "Shanghai"),
)
MOBILE_SOURCES = tuple(f"AC{i:02d}" for i in range(11))


# -- synthetic graph helpers ---------------------------------------------------


def _shell(sats_per_plane, planes):
    return build_walker(
        ConstellationConfig(sats_per_plane, planes, 0, 550.0, 53.0, EPOCH)
    )


def _synthetic(positions, pairs, lengths=None, stations=(), min_elevation_deg=70.0):
    """Snapshot over explicit node states; any n is realized as an n-plane shell."""
    n = len(positions)
    return synthetic_snapshot(
        EPOCH,
        _shell(1, max(n, 2)),
        np.asarray(positions, dtype=float),
        np.zeros((n, 3)),
        np.asarray(pairs, dtype=np.int32).reshape(-1, 2),
        np.zeros(len(pairs), dtype=np.int8),
        lengths=None if lengths is None else np.asarray(lengths, dtype=float),
        stations=tuple(stations),
        min_elevation_deg=min_elevation_deg,
    )


def _random_weighted_graph(rng, n):
    """Connected simple graph with weights decoupled from node coordinates."""
    edges = {}
    for i in range(1, n):
        edges[(rng.randrange(i), i)] = rng.uniform(10.0, 1000.0)
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges[(min(a, b), max(a, b))] = rng.uniform(10.0, 1000.0)
    pairs = sorted(edges)
    lengths = [edges[p] for p in pairs]
    positions = []
    for _ in range(n):
        phi, costh = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0)
        sinth = math.sqrt(1.0 - costh * costh)
        positions.append(
            [7000.0 * sinth * math.cos(phi), 7000.0 * sinth * math.sin(phi), 7000.0 * costh]
        )
    adj = defaultdict(list)
    for (a, b), w in edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    return _synthetic(positions, pairs, lengths=lengths), adj


def _dijkstra(adj, n, src):
    dist = [math.inf] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def test_01_exact_shortest_path_vs_reference_dijkstra():
    """Latency-weighted search equals an independent Dijkstra, total for total."""
    rng = random.Random(20250401)
    t0 = time.perf_counter()
    for trial in range(100):
        n = rng.randrange(10, 101)
        snap, adj = _random_weighted_graph(rng, n)
        dist = _dijkstra(adj, n, src := rng.randrange(n))
        dst = rng.randrange(n)
        path = bellman_ford(snap, WEIGHT_LATENCY, src, dst)
        assert path is not None
        assert path.isl_km == dist[dst], f"trial {trial}: {path.isl_km} != {dist[dst]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"reference comparison took {elapsed:.1f}s"


# -- greedy forwarding oracle --------------------------------------------------


def _oracle_walk(snap, strategy, src, dest_pos, max_hops):
    """Exhaustive per-hop argmax/argmin replay of the greedy walk."""
    pos = snap.sat_positions
    sats = [src]
    prev = None
    while True:
        if len(sats) - 1 >= max_hops:
            return sats, "dead-end"
        cur = sats[-1]
        ids = snap.neighbors(cur)
        if ids.size == 0:
            return sats, "dead-end"
        best = None
        for i in ids:
            i = int(i)
            if strategy == STRATEGY_CPI:
                v = pos[i] - pos[cur]
                b = dest_pos - pos[cur]
                score = -float(
                    np.dot(v, b) / (np.linalg.norm(v) * np.linalg.norm(b))
                )
            else:
                score = float(np.linalg.norm(dest_pos - pos[i]))
            if best is None or (score, i) < best:
                best = (score, i)
        nxt = best[1]
        if prev is not None and nxt == prev:
            return sats, "loop"
        sats.append(nxt)
        prev = cur


def test_02_greedy_choices_match_exhaustive_oracle():
    """Both per-hop rules agree with a brute-force scorer on jittered meshes."""
    rng = random.Random(20250402)
    # the sink station sits under the pole, far from the planar mesh: the
    # walk can never deliver, so every hop decision is exercised
    sink = Station("sink", "sink", "ground", FixedPosition(GeodeticPoint(89.0, 0.0, 0.0)))
    t0 = time.perf_counter()
    for trial in range(50):
        kx, ky = rng.randrange(2, 9), rng.randrange(2, 9)
        n = kx * ky
        positions = [
            [150.0 * i + rng.uniform(-30.0, 30.0), 150.0 * j + rng.uniform(-30.0, 30.0), 0.0]
            for i in range(kx)
            for j in range(ky)
        ]
        pairs = [(i * ky + j, (i + 1) * ky + j) for i in range(kx - 1) for j in range(ky)]
        pairs += [(i * ky + j, i * ky + j + 1) for i in range(kx) for j in range(ky - 1)]
        snap = _synthetic(positions, pairs, stations=(sink,), min_elevation_deg=89.0)
        dest = np.array(
            [rng.uniform(-100.0, 150.0 * kx + 100.0), rng.uniform(-100.0, 150.0 * ky + 100.0), 0.0]
        )
        src = rng.randrange(n)
        for strategy in (STRATEGY_CPI, STRATEGY_NFP):
            path = trace_path(snap, strategy, src, 0, max_hops=4 * n, dest_pos=dest)
            sats, reason = _oracle_walk(snap, strategy, src, dest, 4 * n)
            assert list(path.sats) == sats, f"trial {trial} {strategy}"
            assert path.status == "dropped" and path.drop_reason == reason
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"


# -- experiment-backed checks --------------------------------------------------


def _mplf_latency_floor_violations(result):
    """Recompute each delivered greedy route and compare it against the exact
    optimum between the same satellite endpoints, stamp by stamp."""
    scenario = result.scenario
    const = build_walker(scenario.constellation)
    template = build_persistent_isls(const, scenario.pattern)
    by_stamp = defaultdict(list)
    for r in log_rows(result):
        if r.algorithm in MPLF_ALGOS and r.status == "delivered":
            by_stamp[r.t].append(r)
    checked = 0
    violations = []
    for t, rows in sorted(by_stamp.items()):
        snap = snapshot(
            const, scenario.stations, scenario.pattern, t,
            scenario.elevation_min_deg, template,
        )
        pos = snap.sat_positions
        floor = {}
        for r in rows:
            km = sum(
                float(np.linalg.norm(pos[b] - pos[a]))
                for a, b in zip(r.hop_list, r.hop_list[1:])
            )
            key = (r.hop_list[0], r.hop_list[-1])
            if key not in floor:
                floor[key] = bellman_ford(snap, WEIGHT_LATENCY, key[0], key[1]).isl_km
            checked += 1
            if km < floor[key] - 1e-6:
                violations.append((t, r.algorithm, key, km, floor[key]))
    return checked, violations


def test_03_greedy_latency_never_beats_exact_optimum(exp1_small, exp1_large):
    """Delivered greedy routes are at or above the optimal propagation cost."""
    for result, _ in (exp1_small, exp1_large):
        checked, violations = _mplf_latency_floor_violations(result)
        assert checked > 0
        assert not violations, f"{len(violations)} routes below optimum: {violations[:3]}"


def test_04_full_reachability_at_scale_and_drops_on_sparse_shell(exp1_small, exp1_large):
    """The dense shell delivers everywhere; the sparse one records drops."""
    large, _ = exp1_large
    for algo in MPLF_ALGOS:
        for src, dst in CITY_PAIRS:
            s = large.summary_for(src, dst, algo)
            assert s.n_stamps == s.n_valid == 200
            assert s.reachable_probability == 1.0
    small, _ = exp1_small
    low_lat = ("SanFrancisco", "Shanghai")
    assert any(
        small.summary_for(*low_lat, algo).reachable_probability < 1.0
        for algo in MPLF_ALGOS
    )
    dropped = [
        r
        for r in log_rows(small)
        if (r.src_station, r.dst_station) == low_lat
        and r.algorithm in MPLF_ALGOS
        and r.status.startswith("dropped:")
    ]
    assert dropped, "expected recorded drops on the low-latitude pair"


def test_05_moving_sources_latency_and_hops_vs_baselines(exp3):
    """Average latency stays within 15% of the optimum; hop maxima do not
    exceed the baselines on most connections."""
    result, elapsed = exp3
    assert elapsed < 300.0, f"moving-source run took {elapsed:.0f}s"
    hop_wins = 0
    for src in MOBILE_SOURCES:
        by_algo = {
            a: result.summary_for(src, "Harbin", a)
            for a in MPLF_ALGOS + BASELINE_ALGOS
        }
        better = min(MPLF_ALGOS, key=lambda a: by_algo[a].latency.average)
        sp_avg = by_algo[ALGO_SP].latency.average
        assert by_algo[better].latency.average <= 1.15 * sp_avg, src
        if by_algo[better].hops.maximum <= min(
            by_algo[ALGO_SP].hops.maximum, by_algo[ALGO_LH].hops.maximum
        ):
            hop_wins += 1
    assert hop_wins >= 8, f"hop maxima at or below baselines on only {hop_wins}/11"


def _pooled(result, algo, field):
    values = []
    for src, dst in result.scenario.connections:
        series = result.series_for(src, dst, algo)
        values.extend(
            v for s in series.stamps if (v := getattr(s, field)) is not None
        )
    return values


def _cdf_dominates(a_values, b_values):
    """True when the empirical CDF of a lies at or left of that of b."""
    a = np.sort(np.asarray(a_values, dtype=float))
    b = np.sort(np.asarray(b_values, dtype=float))
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return bool(np.all(fa >= fb - 1e-12))


def _ingress_optimum_ratios(result):
    """Latency of every delivered greedy path over the exact optimum from its
    own ingress satellite: the minimum sp latency over the egress satellites
    at the same stamp and connection. Both stretches share the great-circle
    denominator, so this is also the ratio of the two stretches.

    Returns (ratio, algorithm, src, dst, t, ingress) tuples and the greedy
    rows that have no sp path from their ingress satellite.
    """
    optimum, rows = {}, log_rows(result)
    for r in rows:
        if r.algorithm == ALGO_SP and r.status == "delivered":
            key = (r.t, r.src_station, r.dst_station, r.src_sat)
            optimum[key] = min(optimum.get(key, math.inf), r.latency_ms)
    ratios, missing = [], []
    for r in rows:
        if r.algorithm not in MPLF_ALGOS or r.status != "delivered":
            continue
        key = (r.t, r.src_station, r.dst_station, r.src_sat)
        if key not in optimum:
            missing.append((r.algorithm, *key))
            continue
        ratio = r.latency_ms / optimum[key]
        ratios.append((ratio, r.algorithm, r.src_station, r.dst_station, r.t, r.src_sat))
    return ratios, missing


def _describe(entry):
    ratio, algo, src, dst, t, ingress = entry
    return f"{algo} {src}->{dst} at {t.isoformat()} from satellite {ingress}: {ratio:.3f}"


def test_06_stretch_cdf_ordering_and_per_path_bound(exp3):
    """Greedy stretch distributions sit left of the baselines; every
    delivered greedy path stays under 1.8x the stretch of the exact optimum
    from its own ingress satellite at the same stamp and connection.

    The ingress satellite comes from the access geometry, not from the
    forwarding rule, so this is the reference a per-path bound on the rule
    can be held to. The stations' great circle is not: on this scenario
    9,109 of 14,681 delivered greedy paths exceed 1.8x it, and for 8,582 of
    them so does the optimum from the same ingress satellite.
    """
    result, _ = exp3
    pooled = {
        a: _pooled(result, a, "stretch_avg") for a in MPLF_ALGOS + BASELINE_ALGOS
    }
    for m in MPLF_ALGOS:
        assert pooled[m], f"no stretch samples for {m}"
        for b in BASELINE_ALGOS:
            assert _cdf_dominates(pooled[m], pooled[b]), f"{m} CDF not left of {b}"
    ratios, missing = _ingress_optimum_ratios(result)
    assert not missing, (
        f"{len(missing)} delivered greedy paths have no sp path from their "
        f"ingress satellite, first: {missing[:3]}"
    )
    for m in MPLF_ALGOS:
        assert any(e[1] == m for e in ratios), f"no delivered paths for {m}"
    lowest = min(ratios)
    assert lowest[0] >= 1.0 - 1e-9, f"greedy path beats the optimum: {_describe(lowest)}"
    worst = max(ratios)
    assert worst[0] < 1.8, (
        f"{sum(e[0] >= 1.8 for e in ratios)} delivered greedy paths reach 1.8x "
        f"the optimum from their ingress satellite, worst {_describe(worst)}"
    )


def test_07_path_independence_above_baselines(exp2):
    """Median route diversity: nearest-rule beats SP, compass-rule beats LH."""
    result, _ = exp2
    med = {
        a: statistics.median(_pooled(result, a, "gamma"))
        for a in MPLF_ALGOS + BASELINE_ALGOS
    }
    assert med[ALGO_MPLF_NFP] > med[ALGO_SP], med
    assert med[ALGO_MPLF_CPI] > med[ALGO_LH], med


def test_08_path_stability_above_baselines(exp2):
    """Greedy routes change fewer vertices between consecutive stamps."""
    result, _ = exp2
    frac = {
        a: result.summary_for("Harbin", "London", a).frac_changes_le_20
        for a in MPLF_ALGOS + BASELINE_ALGOS
    }
    for m in MPLF_ALGOS:
        for b in BASELINE_ALGOS:
            assert frac[m] > frac[b], frac


# -- topology statistics -------------------------------------------------------


def _pattern_histogram(kinds=None):
    config = load_scenario(SCENARIO_DIR / "experiment1_40x40.json")

    def compute(pattern):
        const = build_walker(config.constellation)
        template = build_persistent_isls(const, pattern)
        snaps = (
            snapshot(const, (), pattern, t, 0.0, template)
            for t in config.time.stamps()
        )
        if kinds is None:
            return direction_histogram(snaps)
        return direction_histogram(snaps, kinds)

    return compute


def test_09_link_direction_histogram_band():
    """The double-bias grid adds a diagonal-link mode in the 58-68 degree
    band; in-plane links concentrate within 3 degrees of the inclination."""
    compute = _pattern_histogram()
    star = compute(IslPattern("*Grid", (-1, 0)))
    plus = compute(IslPattern("+Grid", (0,)))
    band = slice(58, 68)
    star_band, plus_band = float(star[band].sum()), float(plus[band].sum())
    assert star_band >= 0.05
    assert star_band >= 2.0 * plus_band
    peak = 58 + int(np.argmax(star[band]))
    assert star[peak] >= star[peak - 1] and star[peak] >= star[peak + 1]
    assert star[peak] >= 2.0 / 90.0

    iisl = _pattern_histogram(kinds=("iISL",))(IslPattern("+Grid", (0,)))
    assert 50 <= int(np.argmax(iisl)) < 56
    assert float(iisl[50:56].sum()) >= 2.0 * (6.0 / 90.0)
    assert float(iisl[56:].sum()) <= 1e-12


def test_10_crossing_link_episodes_short_and_monotone():
    """Transient crossing links exist, die young, and multiply with radius."""
    config = load_scenario(SCENARIO_DIR / "experiment1_20x20.json")
    const = build_walker(config.constellation)
    template = build_persistent_isls(const, config.pattern)
    snaps = (
        snapshot(const, (), config.pattern, t, 0.0, template)
        for t in config.time.stamps()
    )
    radii = (500.0, 1000.0, 1500.0)
    stats = eisl_statistics(snaps, radii, config.time.step_s)
    durations = stats[500.0].episode_durations_s
    assert len(durations) > 0
    short = sum(1 for d in durations if d < 200.0) / len(durations)
    assert short >= 0.80, f"only {short:.0%} of episodes under 200s"
    counts = [stats[r].episode_count for r in radii]
    assert counts == sorted(counts), counts
    assert counts[0] < counts[-1]


def test_11_per_hop_work_independent_of_shell_size(exp1_small, exp1_large):
    """Forwarding work is bounded by the neighbor count and identically
    distributed on the small and large shells."""
    small, _ = exp1_small
    large, _ = exp1_large

    def distribution(comparisons):
        assert comparisons and max(comparisons) <= 4
        n = len(comparisons)
        return {k: v / n for k, v in Counter(comparisons).items()}

    assert distribution(small.decision_stats.comparisons) == distribution(
        large.decision_stats.comparisons
    )


def test_12_frame_conversion_roundtrip_and_drift():
    """A million random conversions invert to under a micrometer; the
    equatorial ground track moves the derived distance in one second."""
    rng = np.random.default_rng(20250412)
    worst = 0.0
    for _ in range(200):
        t = EPOCH + timedelta(seconds=float(rng.uniform(0.0, 86400.0)))
        pts = rng.uniform(-8000.0, 8000.0, size=(5000, 3))
        back = eci_to_ecef(ecef_to_eci(pts, t, EPOCH), t, EPOCH)
        worst = max(worst, float(np.max(np.linalg.norm(back - pts, axis=1))))
    assert worst < 1e-9, f"round-trip error {worst:.3e} km"

    equator = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
    drift = float(
        np.linalg.norm(
            ecef_to_eci(equator, EPOCH + timedelta(seconds=1), EPOCH)
            - ecef_to_eci(equator, EPOCH, EPOCH)
        )
    )
    assert abs(drift - 0.4646) <= 1e-4, f"drift {drift:.6f} km"
    # sanity: the bound itself tracks R * omega
    assert abs(drift - EARTH_RADIUS_KM * EARTH_ROTATION_RAD_PER_S) < 1e-6


def _assert_identical_trees(dir_a, dir_b):
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_13_repeat_runs_export_identical_bytes(exp1_small, exp1_large, tmp_path):
    """Re-running a scenario, serial or parallel, reproduces every artifact."""
    large, _ = exp1_large
    again = run_experiment(
        load_scenario(SCENARIO_DIR / "experiment1_40x40.json"), parallel=2
    )
    export_result(large, "csv", tmp_path / "a")
    export_result(again, "csv", tmp_path / "b")
    _assert_identical_trees(tmp_path / "a", tmp_path / "b")

    small, _ = exp1_small
    again_small = run_experiment(load_scenario(SCENARIO_DIR / "experiment1_20x20.json"))
    export_result(small, "csv", tmp_path / "c")
    export_result(again_small, "csv", tmp_path / "d")
    _assert_identical_trees(tmp_path / "c", tmp_path / "d")
