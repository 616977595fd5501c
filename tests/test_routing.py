"""Greedy forwarding and shortest-path baselines against independent oracles.

Synthetic snapshots decouple link structure from orbital geometry: a short
chain with a station over its middle exercises the per-hop state machine,
seeded random meshes replay the greedy rules through a from-scratch
reimplementation, and random weighted graphs pit the baseline solver
against heapq Dijkstra and plain BFS. The exactness tests hold the
baselines to a from-scratch Dijkstra with the lowest-id predecessor rule,
compared with == on routes, link lengths and totals.
"""

import heapq
import math
import random
import tracemalloc
from collections import deque
from dataclasses import dataclass, replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonet import routing
from leonet.constellation import ConstellationConfig, build_walker
from leonet.geometry import GeodeticPoint, ecef_to_eci, geodetic_to_ecef, utc
from leonet.harness import _connection_indices, snapshot_at
from leonet.routing import (
    ALGO_LH,
    ALGO_MPLF_CPI,
    ALGO_MPLF_NFP,
    ALGO_SP,
    ALGORITHMS,
    DROP_DEAD_END,
    DROP_LOOP,
    LocationTable,
    STATUSES,
    WEIGHTS,
    Path,
    UnknownEquipmentError,
    _baseline_routes,
    _distances,
    _keys,
    _leg_sums,
    _shifted_rows,
    _slot_weights,
    bellman_ford,
    block_path_sets,
    decision_counts,
    default_max_hops,
    enumerate_paths,
    ler_encapsulate,
    record_delivery,
    stamp_path_sets,
    trace_lockstep,
    trace_path,
)
from leonet.scenario import load_scenario
from leonet.topology import (
    FixedPosition,
    IslPattern,
    Station,
    build_persistent_isls,
    self_link_parameter,
    snapshot,
    synthetic_snapshot,
)

from conftest import SCENARIO_DIR

EPOCH = utc(2025, 1, 1)


def shell(sats, planes):
    return build_walker(ConstellationConfig(sats, planes, 0, 550.0, 53.0, EPOCH))


def ground(name, lat, lon):
    return Station(name, name, "ground", FixedPosition(GeodeticPoint(lat, lon, 0.0)))


def synthetic(positions, pairs, stations=(), lengths=None, min_elevation_deg=70.0):
    """Snapshot over explicit sats; any n is realized as an n-plane shell."""
    n = len(positions)
    const = shell(1, n) if n > 1 else shell(1, 2)
    return synthetic_snapshot(
        EPOCH,
        const,
        np.asarray(positions, dtype=float),
        np.zeros((n, 3)),
        np.asarray(pairs, dtype=np.int32).reshape(-1, 2),
        np.zeros(len(pairs), dtype=np.int8),
        lengths=lengths,
        stations=tuple(stations),
        min_elevation_deg=min_elevation_deg,
    )


P = np.array([7000.0, 0.0, 0.0])


def as_paths(r):
    """The routes of a trace_lockstep batch as Path objects, read off the
    column layout that Routes documents."""
    sats, starts, legs = r.sats.tolist(), r.starts.tolist(), r.legs.tolist()
    out = []
    for i, (a, b) in enumerate(zip(starts, starts[1:])):
        status, _, reason = STATUSES[r.end[i]].partition(":")
        down = float(r.down_km[i]) if status == "delivered" else None
        out.append(Path(tuple(sats[a:b]), tuple(legs[a + 1 : b]), status, reason or None,
                        down_km=down))
    return out


def snapshot_legs(snap, route):
    """The snapshot's slot length of each link of a route, in route order."""
    a = np.array(route[:-1], dtype=np.int64)
    col = (snap.template.nbr[a] == np.array(route[1:])[:, None]).argmax(axis=1)
    return tuple(snap.slot_lengths[a, col].tolist())


def routes(ps):
    """Each path's satellite sequence, read off a PathSet's columns."""
    sats, starts = ps.sats.tolist(), ps.starts.tolist()
    return [tuple(sats[a:b]) for a, b in zip(starts, starts[1:])]


def set_columns(ps):
    """A PathSet's columns as plain values, for ==."""
    return tuple(c.tolist() for c in (ps.sats, ps.starts, ps.end, ps.total_km, ps.latency_ms))


def edge_length(snap, station, sat):
    """The length of the edge link between a station index and a satellite."""
    return dict(zip(snap.edge_sats[station].tolist(), snap.edge_lengths[station].tolist()))[sat]


NOWHERE = ground("nowhere", 0.0, 180.0)  # sees none of the satellites near P


def decide(rule, neighbors, dest, prev=None):
    """The path of one forwarding decision at satellite 0 (at P), whose
    neighbors are satellites 1, 2, ... at the given positions, toward dest
    with no station in sight. The trace leaves 0 with a one-hop cap; with
    prev, it leaves that neighbor, whose lone link leads to 0, with a cap of
    two, so 0 decides with prev as its previous relay."""
    pairs = [(0, k) for k in range(1, len(neighbors) + 1)]
    snap = synthetic([P, *neighbors], pairs, stations=(NOWHERE,))
    src, cap = (0, 1) if prev is None else (prev, 2)
    return as_paths(trace_lockstep(snap, [rule], [src], [0], np.array([dest]), cap))[0]


class TestForwardRules:
    """Single decisions, each traced by trace_lockstep on a synthetic star."""

    def test_cpi_picks_best_aligned(self):
        dest = P + [0.0, 1000.0, 0.0]
        pos = [P + [0, 0, 100], P + [0, -100, 0], P + [0, 100, 0]]
        assert decide("cpi", pos, dest).sats == (0, 3)

    def test_cpi_tie_resolves_to_lowest_id(self):
        dest = P + [0.0, 1000.0, 0.0]
        # mirrored offsets have identical alignment with the +y bearing
        pos = [P + [0, 100, 100], P + [0, 100, -100]]
        assert decide("cpi", pos, dest).sats == decide("cpi", pos[::-1], dest).sats == (0, 1)

    def test_nfp_picks_nearest_to_destination(self):
        dest = P + [0.0, 1000.0, 0.0]
        pos = [P + [0, 300, 0], P + [0, 600, 0], P + [0, -50, 0]]
        assert decide("nfp", pos, dest).sats == (0, 2)

    def test_nfp_tie_resolves_to_lowest_id(self):
        dest = P + [0.0, 1000.0, 0.0]
        pos = [P + [0, 900, 0], P + [0, 1100, 0]]
        assert decide("nfp", pos, dest).sats == decide("nfp", pos[::-1], dest).sats == (0, 1)

    @pytest.mark.parametrize("rule", ["cpi", "nfp"])
    def test_empty_candidates_is_dead_end(self, rule):
        # satellite 0 has no link; 1 and 2 only link each other
        snap = synthetic([P, P + [0, 100, 0], P + [0, 200, 0]], [(1, 2)], stations=(NOWHERE,))
        (p,) = as_paths(trace_lockstep(snap, [rule], [0], [0], np.array([FAR])))
        assert (p.sats, p.status, p.drop_reason) == ((0,), "dropped", DROP_DEAD_END)

    @pytest.mark.parametrize("rule", ["cpi", "nfp"])
    def test_handing_back_is_loop_drop(self, rule):
        dest = P + [0.0, 1000.0, 0.0]
        pos = [P + [0, 100, 0], P + [0, -100, 0]]
        back = decide(rule, pos, dest, prev=1)
        assert (back.sats, back.drop_reason) == ((1, 0), DROP_LOOP)
        on = decide(rule, pos, dest, prev=2)
        assert (on.sats, on.drop_reason) == ((2, 0, 1), DROP_DEAD_END)  # the hop cap

    def test_cpi_rejects_coincident_nodes(self):
        with pytest.raises(ValueError, match="coincident"):
            decide("cpi", [P + [0, 100, 0]], P)
        with pytest.raises(ValueError, match="coincident"):
            decide("cpi", [P], P + [0, 1000, 0])


class TestLocationTable:
    def test_roundtrip(self):
        table = LocationTable()
        t = EPOCH + timedelta(seconds=5)
        table.update("gs-1", np.array([6371.0, 0.0, 0.0]), t)
        pos, when = table.lookup("gs-1")
        assert pos.tolist() == [6371.0, 0.0, 0.0]
        assert when == t
        assert "gs-1" in table
        assert len(table) == 1

    def test_unknown_ei(self):
        with pytest.raises(UnknownEquipmentError):
            LocationTable().lookup("ghost")

    def test_stale_update_rejected(self):
        table = LocationTable()
        t = EPOCH + timedelta(seconds=60)
        table.update("m-1", np.array([1.0, 2.0, 3.0]), t)
        with pytest.raises(ValueError):
            table.update("m-1", np.array([4.0, 5.0, 6.0]), t - timedelta(seconds=1))
        # equal timestamps overwrite in place
        table.update("m-1", np.array([4.0, 5.0, 6.0]), t)
        assert table.lookup("m-1")[0].tolist() == [4.0, 5.0, 6.0]


class TestHeaderLifecycle:
    def test_encapsulation_freezes_inertial_addresses(self):
        table = LocationTable()
        src_ecef = geodetic_to_ecef(GeodeticPoint(45.8, 126.53, 0.0))
        dst_ecef = geodetic_to_ecef(GeodeticPoint(51.51, -0.13, 0.0))
        table.update("src", src_ecef, EPOCH)
        table.update("dst", dst_ecef, EPOCH)

        t = EPOCH + timedelta(seconds=3600)
        hdr = ler_encapsulate(table, "src", "dst", t, EPOCH)
        assert hdr.ingress == t
        assert np.allclose(hdr.dst_saddr, ecef_to_eci(dst_ecef, t, EPOCH))
        assert np.allclose(hdr.src_saddr, ecef_to_eci(src_ecef, t, EPOCH))

    def test_unknown_endpoint_raises(self):
        table = LocationTable()
        table.update("src", np.array([6371.0, 0.0, 0.0]), EPOCH)
        with pytest.raises(UnknownEquipmentError):
            ler_encapsulate(table, "src", "ghost", EPOCH, EPOCH)

    def test_delivery_writes_source_back(self):
        table = LocationTable()
        src_ecef = geodetic_to_ecef(GeodeticPoint(10.0, 20.0, 0.0))
        table.update("src", src_ecef, EPOCH)
        table.update("dst", np.array([0.0, 6371.0, 0.0]), EPOCH)
        t = EPOCH + timedelta(seconds=900)
        hdr = ler_encapsulate(table, "src", "dst", t, EPOCH)

        receiver = LocationTable()
        record_delivery(receiver, hdr, EPOCH)
        pos, when = receiver.lookup("src")
        assert when == t
        assert np.allclose(pos, src_ecef, atol=1e-9)

    def test_header_address_is_the_snapshot_station_position(self):
        # greedy traces aim at Snapshot.station_positions in place of the
        # header address, so the two must agree bit for bit at every stamp
        sc = load_scenario(SCENARIO_DIR / "experiment3_moving.json")
        snapshot_of = snapshot_at(sc)
        epoch = sc.constellation.epoch
        eis = [st.ei for st in sc.stations]
        table = LocationTable()
        for t in sc.time.stamps():
            snap = snapshot_of(t)
            for i, ei in enumerate(eis):
                table.update(ei, snap.station_ecef[i], t)
            for si, di in _connection_indices(sc):
                hdr = ler_encapsulate(table, eis[si], eis[di], t, epoch)
                assert np.array_equal(hdr.dst_saddr, snap.station_positions[di])
                assert np.array_equal(hdr.src_saddr, snap.station_positions[si])

    def test_batch_rotation_equals_row_rotation(self):
        rng = np.random.default_rng(5)
        ecef = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(0.0, 4.0, size=(2000, 1))
        for seconds in (0.0, 1.0, 3600.0, 86_399.5, 1e7):
            t = EPOCH + timedelta(seconds=seconds)
            batch = ecef_to_eci(ecef, t, EPOCH)
            assert np.array_equal(batch, np.array([ecef_to_eci(p, t, EPOCH) for p in ecef]))


HUB, AWAY = 0, 1  # the station indices of a chain snapshot


def chain_snapshot(pairs=((0, 1), (1, 2), (2, 3))):
    """Four sats along +y; 'hub' (station HUB) sees the middle two at 70 deg,
    'nowhere' (station AWAY) sits on the far side of Earth and sees nothing."""
    positions = [P + [0, -300, 0], P + [0, -100, 0], P + [0, 100, 0], P + [0, 300, 0]]
    return synthetic(positions, pairs, stations=(ground("hub", 0.0, 0.0), NOWHERE))


FAR = P + [0.0, 10000.0, 0.0]


class TestPath:
    def test_isl_km_sums_left_to_right(self):
        # as _path_columns does; Python's sum of floats is compensated from 3.12 on
        p = Path(tuple(range(11)), (0.1,) * 10, "delivered")
        assert p.isl_km == 0.9999999999999999


class TestTracePath:
    def test_association_coverage(self):
        snap = chain_snapshot()
        assert snap.edge_sats[HUB].tolist() == [1, 2]
        assert snap.edge_sats[AWAY].size == 0

    def test_delivered_after_one_hop(self):
        snap = chain_snapshot()
        p = trace_path(snap, "nfp", 0, HUB)
        assert p.delivered
        assert p.sats == (0, 1)
        assert p.isl_lengths_km == (200.0,)
        assert p.down_km == pytest.approx(math.hypot(629.0, 100.0))
        assert p.total_km == p.isl_km + p.down_km  # the down link only, no up link

    def test_ingress_satellite_delivers_zero_hops(self):
        snap = chain_snapshot()
        p = trace_path(snap, "nfp", 1, HUB)
        assert p.delivered
        assert p.sats == (1,)
        assert p.hops == 0
        assert p.isl_km == 0.0

    def test_delivery_checked_before_forwarding(self):
        snap = chain_snapshot()
        # greedy would chase the far-away override, association wins first
        p = trace_path(snap, "nfp", 2, HUB, dest_pos=FAR)
        assert p.delivered
        assert p.sats == (2,)

    def test_ping_pong_is_loop_drop(self):
        snap = chain_snapshot()
        p = trace_path(snap, "nfp", 0, AWAY, dest_pos=P + [0, -250, 0])
        assert not p.delivered
        assert p.drop_reason == DROP_LOOP
        assert p.sats == (0, 1)

    def test_lone_candidate_behind_still_loops(self):
        snap = chain_snapshot()
        p = trace_path(snap, "cpi", 0, AWAY, dest_pos=FAR)
        # rides the chain to its end, then the only candidate is the relay
        # it came from
        assert p.sats == (0, 1, 2, 3)
        assert p.drop_reason == DROP_LOOP

    def test_hop_cap_drops_as_dead_end(self):
        snap = chain_snapshot()
        p = trace_path(snap, "nfp", 0, AWAY, dest_pos=FAR, max_hops=2)
        assert p.sats == (0, 1, 2)
        assert p.drop_reason == DROP_DEAD_END

    def test_isolated_ingress_is_dead_end(self):
        snap = chain_snapshot(pairs=((1, 2), (2, 3)))
        p = trace_path(snap, "nfp", 0, AWAY, dest_pos=FAR)
        assert p.sats == (0,)
        assert p.drop_reason == DROP_DEAD_END

    def test_invalid_arguments(self):
        snap = chain_snapshot()
        with pytest.raises(ValueError):
            trace_path(snap, "compass", 0, HUB)
        with pytest.raises(ValueError):
            trace_path(snap, "nfp", 0, HUB, max_hops=0)
        for sat in (-1, 4):  # a negative id would otherwise wrap to the last satellite
            with pytest.raises(IndexError, match=f"satellite index {sat} outside 0..3"):
                trace_path(snap, "nfp", sat, HUB)

    def test_default_hop_cap(self):
        assert default_max_hops(chain_snapshot()) == 4 * (1 + 4)
        assert default_max_hops(snapshot_shell()) == 4 * (10 + 10)


def snapshot_shell(stations=(), min_elev=15.0, seconds=0):
    const = shell(10, 10)
    return snapshot(
        const,
        stations,
        IslPattern("+Grid", (0,)),
        EPOCH + timedelta(seconds=seconds),
        min_elev,
    )


def oracle_trace(snap, strategy, src, dest_pos, visible, max_hops):
    """From-scratch replay of the greedy walk: delivery check, then argmax
    alignment or argmin distance with lowest-id ties, loop and cap drops."""
    sats = [src]
    prev = None
    current = src
    while True:
        if current in visible:
            return sats, "delivered", None
        if len(sats) - 1 >= max_hops:
            return sats, "dropped", DROP_DEAD_END
        nbrs = [int(x) for x in snap.neighbors(current)]
        if not nbrs:
            return sats, "dropped", DROP_DEAD_END
        scored = []
        for nb in nbrs:
            rel = snap.sat_positions[nb] - snap.sat_positions[current]
            if strategy == "cpi":
                bearing = dest_pos - snap.sat_positions[current]
                score = -float(
                    np.dot(rel, bearing)
                    / (np.linalg.norm(rel) * np.linalg.norm(bearing))
                )
            else:
                score = float(np.linalg.norm(snap.sat_positions[nb] - dest_pos))
            scored.append((score, nb))
        scored.sort()
        chosen = scored[0][1]
        if chosen == prev:
            return sats, "dropped", DROP_LOOP
        sats.append(chosen)
        prev, current = current, chosen


class TestGreedyAgainstMeshOracle:
    def mesh(self, rng, k):
        """Jittered k x k planar mesh with a station watching the middle."""
        spacing = 150.0
        positions = []
        for j in range(k):
            for i in range(k):
                positions.append(
                    P
                    + [
                        0.0,
                        i * spacing + rng.uniform(-30, 30) - k * spacing / 2,
                        j * spacing + rng.uniform(-30, 30) - k * spacing / 2,
                    ]
                )
        pairs = []
        for j in range(k):
            for i in range(k):
                node = j * k + i
                if i + 1 < k:
                    pairs.append((node, node + 1))
                if j + 1 < k:
                    pairs.append((node, node + k))
        hub = ground("hub", 0.0, 0.0)
        return synthetic(positions, pairs, stations=(hub,), min_elevation_deg=72.0)

    @pytest.mark.parametrize("strategy", ["cpi", "nfp"])
    def test_traces_match_oracle(self, strategy):
        rng = random.Random(2401 if strategy == "cpi" else 2402)
        for trial in range(25):
            k = rng.randint(3, 5)
            snap = self.mesh(rng, k)
            visible = set(snap.edge_sats[0].tolist())
            dest_pos = P + [
                0.0,
                rng.uniform(-400, 400),
                rng.uniform(-400, 400),
            ]
            src = rng.randrange(k * k)
            cap = rng.choice([3, 8, 40])
            got = trace_path(snap, strategy, src, 0, max_hops=cap, dest_pos=dest_pos)
            sats, status, reason = oracle_trace(
                snap, strategy, src, dest_pos, visible, cap
            )
            assert got.sats == tuple(sats), f"trial {trial}"
            assert got.status == status
            assert got.drop_reason == reason


def dijkstra(adj, src):
    """Textbook heapq Dijkstra over {node: [(nbr, w), ...]}."""
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bfs_hops(adj, src):
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v, _ in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def random_graph(rng, n):
    """Connected simple graph: a random spanning tree plus extra edges,
    with weights decoupled from the node coordinates."""
    edges = {}
    for i in range(1, n):
        edges[(rng.randrange(i), i)] = rng.uniform(10.0, 1000.0)
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges[(min(a, b), max(a, b))] = rng.uniform(10.0, 1000.0)
    pairs = sorted(edges)
    lengths = [edges[p] for p in pairs]
    phi = [rng.uniform(0, 2 * math.pi) for _ in range(n)]
    costh = [rng.uniform(-1, 1) for _ in range(n)]
    positions = [
        [
            7000.0 * math.sqrt(1 - c * c) * math.cos(f),
            7000.0 * math.sqrt(1 - c * c) * math.sin(f),
            7000.0 * c,
        ]
        for f, c in zip(phi, costh)
    ]
    snap = synthetic(positions, pairs, lengths=lengths)
    adj = {u: [] for u in range(n)}
    for (a, b), w in edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    return snap, adj


class TestBellmanFord:
    def test_latency_weight_matches_dijkstra(self):
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(5, 30)
            snap, adj = random_graph(rng, n)
            src, dst = rng.sample(range(n), 2)
            dist = dijkstra(adj, src)
            path = bellman_ford(snap, "latency", src, dst)
            assert path is not None
            assert path.isl_km == pytest.approx(dist[dst], rel=1e-12)
            assert path.sats[0] == src and path.sats[-1] == dst
            # reported leg lengths must chain consistently
            assert sum(path.isl_lengths_km) == pytest.approx(path.isl_km)

    def test_unit_weight_matches_bfs(self):
        rng = random.Random(78)
        for _ in range(20):
            n = rng.randint(5, 30)
            snap, adj = random_graph(rng, n)
            src, dst = rng.sample(range(n), 2)
            path = bellman_ford(snap, "unit", src, dst)
            assert path is not None
            assert path.hops == bfs_hops(adj, src)[dst]

    def test_unreachable_returns_none(self):
        # two disjoint segments
        positions = [P + [0, 100 * k, 0] for k in range(4)]
        snap = synthetic(positions, [(0, 1), (2, 3)])
        assert bellman_ford(snap, "latency", 0, 3) is None
        assert bellman_ford(snap, "unit", 0, 3) is None

    def test_walk_stops_on_a_cyclic_predecessor_row(self):
        # from 3, the zero-length link makes 0 and 1 each other's lowest-id
        # predecessor: the walk back from 1 never reaches 3
        positions = [P + [0, 100 * k, 0] for k in range(4)]
        snap = synthetic(positions, [(0, 1), (0, 3)], lengths=[0.0, 5.0])
        with pytest.raises(RuntimeError, match="exceeded the node count"):
            bellman_ford(snap, "latency", 3, 1)
        # the longest acyclic walk, n - 1 legs, is not cut
        chain = synthetic(positions, [(0, 1), (1, 2), (2, 3)], lengths=[1.0, 2.0, 3.0])
        p = bellman_ford(chain, "latency", 0, 3)
        assert (p.sats, p.isl_lengths_km) == ((0, 1, 2, 3), (1.0, 2.0, 3.0))

    def test_tie_break_walks_lowest_id_predecessor(self):
        # 2x4 ladder, every edge weight 1: many equal-hop routes
        positions = [P + [0, 100 * i, 100 * j] for j in range(2) for i in range(4)]
        pairs = [(i, i + 1) for i in range(3)] + [(i + 4, i + 5) for i in range(3)]
        pairs += [(i, i + 4) for i in range(4)]
        snap = synthetic(positions, pairs, lengths=[1.0] * len(pairs))
        a = bellman_ford(snap, "latency", 0, 7)
        b = bellman_ford(snap, "latency", 0, 7)
        assert a.sats == b.sats
        # at every node of the walk the predecessor is the lowest id among
        # those on some shortest route
        adj = {u: [] for u in range(8)}
        for x, y in pairs:
            adj[x].append((y, 1.0))
            adj[y].append((x, 1.0))
        dist = dijkstra(adj, 0)
        for pred, node in zip(a.sats, a.sats[1:]):
            best = min(v for v, w in adj[node] if dist[v] + w == dist[node])
            assert pred == best

    def test_station_endpoints_attach_edge_links(self):
        sts = [ground("a", 45.0, 10.0), ground("b", -30.0, 100.0)]
        snap = snapshot_shell(sts, seconds=300)
        ps = enumerate_paths(snap, ALGO_SP, 0, 1)
        assert ps.paths.size
        for r, total in zip(routes(ps), ps.total_km.tolist()):
            path = bellman_ford(snap, "latency", r[0], r[-1])
            assert path.down_km is None  # satellite to satellite
            assert path.total_km == path.isl_km
            up, down = edge_length(snap, 0, r[0]), edge_length(snap, 1, r[-1])
            assert total == pytest.approx(up + path.isl_km + down)

    def test_station_route_is_jointly_optimal(self):
        """The station-to-station latency optimum must include edge links,
        not just pick a good satellite pair."""
        sts = [ground("a", 45.0, 10.0), ground("b", -30.0, 100.0)]
        snap = snapshot_shell(sts, seconds=300)
        adj = {u: [] for u in range(snap.sat_count)}
        for x, y in snap.isl_pairs.tolist():
            w = float(np.linalg.norm(snap.sat_positions[x] - snap.sat_positions[y]))
            adj[x].append((y, w))
            adj[y].append((x, w))
        best = math.inf
        for s1, up in zip(snap.edge_sats[0], snap.edge_lengths[0]):
            dist = dijkstra(adj, int(s1))
            for s2, down in zip(snap.edge_sats[1], snap.edge_lengths[1]):
                best = min(best, float(up) + dist[int(s2)] + float(down))
        # the best path of the set, one per satellite pair, is the joint optimum
        assert enumerate_paths(snap, ALGO_SP, 0, 1).total_km.min() == pytest.approx(best, rel=1e-12)

    def test_uncovered_station_returns_none(self):
        # 53 deg shell never rises above 40 deg at the pole
        sts = [ground("a", 45.0, 10.0), ground("pole", -89.9, 0.0)]
        snap = snapshot_shell(sts)
        assert not snap.covered(1)
        for algo in (ALGO_SP, ALGO_LH):
            assert enumerate_paths(snap, algo, 0, 1).end.size == 0

    def test_unknown_weight_rejected(self):
        snap = chain_snapshot()
        with pytest.raises(ValueError):
            bellman_ford(snap, "euclid", 0, 3)

    @pytest.mark.parametrize("src,dst", [(0, 4), (4, 0), (-1, 3), (0, -4)])
    def test_satellite_outside_the_shell_raises(self, src, dst):
        with pytest.raises(IndexError, match=r"satellite index -?\d outside 0\.\.3"):
            bellman_ford(chain_snapshot(), "latency", src, dst)


class TestEnumeratePaths:
    def stations(self):
        return [ground("a", 45.0, 10.0), ground("b", -30.0, 100.0)]

    def test_greedy_set_sized_by_source_coverage(self):
        snap = snapshot_shell(self.stations(), seconds=300)
        n_src = snap.edge_sats[0].size
        for algo in (ALGO_MPLF_CPI, ALGO_MPLF_NFP):
            ps = enumerate_paths(snap, algo, 0, 1)
            assert ps.end.size == n_src  # delivered and dropped traces together
            delivered = ps.end == STATUSES.index("delivered")
            assert ps.paths.tolist() == np.flatnonzero(delivered).tolist()
            starts = sorted(r[0] for r in routes(ps))
            assert starts == sorted(snap.edge_sats[0].tolist())

    def test_greedy_paths_carry_edge_links(self):
        snap = snapshot_shell(self.stations(), seconds=300)
        ps = enumerate_paths(snap, ALGO_MPLF_NFP, 0, 1)
        assert ps.delivered.any()
        got = routes(ps)
        for i in ps.paths:
            p = trace_path(snap, "nfp", got[i][0], 1)
            assert p.sats == got[i]
            assert p.down_km == pytest.approx(edge_length(snap, 1, p.end_sat))
            up = edge_length(snap, 0, p.src_sat)
            assert ps.total_km[i] == pytest.approx(up + p.isl_km + p.down_km)

    def test_baseline_set_covers_all_pairs(self):
        snap = snapshot_shell(self.stations(), seconds=300)
        n = snap.edge_sats[0].size * snap.edge_sats[1].size
        for algo in (ALGO_SP, ALGO_LH):
            ps = enumerate_paths(snap, algo, 0, 1)
            assert len(ps.paths) == n  # +Grid shell is connected
            assert ps.delivered.all()
            ends = {(r[0], r[-1]) for r in routes(ps)}
            assert len(ends) == n

    def test_baseline_pair_paths_are_optimal(self):
        snap = snapshot_shell(self.stations(), seconds=300)
        adj = {u: [] for u in range(snap.sat_count)}
        for x, y in snap.isl_pairs.tolist():
            w = float(np.linalg.norm(snap.sat_positions[x] - snap.sat_positions[y]))
            adj[x].append((y, w))
            adj[y].append((x, w))
        ps = enumerate_paths(snap, ALGO_SP, 0, 1)
        by_src = {}
        for r in routes(ps):
            by_src.setdefault(r[0], {})[r[-1]] = r
        for s1, group in by_src.items():
            dist = dijkstra(adj, s1)
            for s2, r in group.items():
                assert sum(snapshot_legs(snap, r)) == pytest.approx(dist[s2], rel=1e-12)
        lh = enumerate_paths(snap, ALGO_LH, 0, 1)
        for r, hops in zip(routes(lh), lh.hops.tolist()):
            assert hops == bfs_hops(adj, r[0])[r[-1]]

    def test_uncovered_endpoint_yields_empty_set(self):
        sts = [ground("a", 45.0, 10.0), ground("pole", -89.9, 0.0)]
        snap = snapshot_shell(sts)
        assert not snap.covered(1)
        for algo in ALGORITHMS:
            ps = enumerate_paths(snap, algo, 0, 1)
            assert ps.end.size == 0
            assert not ps.delivered.any()

    def test_unknown_algorithm_rejected(self):
        snap = snapshot_shell(self.stations())
        with pytest.raises(ValueError):
            enumerate_paths(snap, "flood", 0, 1)

    def test_single_bias_grid_needs_exactly_four_comparisons(self):
        snap = snapshot_shell(self.stations(), seconds=300)
        ps = enumerate_paths(snap, ALGO_MPLF_CPI, 0, 1)
        counts = decision_counts(snap.template.degree, ps)
        assert counts.size  # at least one decision was made
        assert set(counts) == {4}


# -- exactness of the baselines against a from-scratch reference ----------------


def reference_route(links, n, weight, src, end):
    """heapq Dijkstra from src over {(a, b): length} links, then the lowest-id
    predecessor walk back from end.

    Sums accumulate hop by hop from 0, as any relaxation order does. At each
    node the walk takes the smallest neighbor u with dist[u] + w == dist[v],
    until it reaches src. Returns (dist, sats, legs), with sats and legs None
    when end is unreached.
    """
    adj = {u: [] for u in range(n)}
    for (a, b), ln in links.items():
        w = ln if weight == "latency" else 1.0
        adj[a].append((b, w, ln))
        adj[b].append((a, w, ln))
    dist = [math.inf] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w, _ in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    if math.isinf(dist[end]):
        return dist, None, None
    sats, legs = [end], []
    v = end
    while v != src:
        u, ln = min((u, ln) for u, w, ln in adj[v] if dist[u] + w == dist[v])
        sats.append(u)
        legs.append(ln)
        v = u
    return dist, tuple(reversed(sats)), tuple(reversed(legs))


def snapshot_links(snap):
    return {
        (int(a), int(b)): float(ln)
        for (a, b), ln in zip(snap.isl_pairs.tolist(), snap.isl_lengths)
    }


def tie_graph(rng, n):
    """Random simple graph in two or three components plus two isolated
    satellites; lengths come mostly from a short list, so that equal-cost
    routes are common."""
    isolated = set(rng.sample(range(n), 2))
    nodes = [v for v in range(n) if v not in isolated]
    part = {v: rng.randrange(rng.choice((2, 3))) for v in nodes}
    links = {}
    for _ in range(2 * n):
        a, b = sorted(rng.sample(nodes, 2))
        if part[a] == part[b]:
            links[(a, b)] = (
                rng.choice((100.0, 200.0, 300.0, 0.1 + 0.2))
                if rng.random() < 0.8
                else rng.uniform(50.0, 400.0)
            )
    pairs = sorted(links)
    positions = [P + [0.0, 100.0 * k, 0.0] for k in range(n)]
    snap = synthetic(positions, pairs, lengths=np.array([links[p] for p in pairs]))
    return snap, links


class TestBaselinesExact:
    @pytest.mark.parametrize("weight", ["latency", "unit"])
    def test_satellite_routes_match_reference(self, weight):
        rng = random.Random(303)
        for _ in range(6):
            n = rng.randint(8, 18)
            snap, links = tie_graph(rng, n)
            for src in range(n):
                for dst in range(n):
                    if src == dst:
                        continue
                    dist, sats, legs = reference_route(links, n, weight, src, dst)
                    got = bellman_ford(snap, weight, src, dst)
                    if sats is None:
                        assert got is None
                        continue
                    assert got.sats == sats
                    assert got.isl_lengths_km == legs
                    if weight == "latency":
                        assert got.isl_km == dist[dst]
                    else:
                        assert got.hops == dist[dst]

    def test_enumerated_baselines_match_reference_on_shipped_shell(self):
        sc = load_scenario(SCENARIO_DIR / "experiment1_20x20.json")
        const = build_walker(sc.constellation)
        tpl = build_persistent_isls(const, sc.pattern)
        stamps = sc.time.stamps()
        checked = 0
        for t in (stamps[0], stamps[len(stamps) // 2], stamps[-1]):
            snap = snapshot(const, sc.stations, sc.pattern, t, sc.elevation_min_deg, template=tpl)
            links = snapshot_links(snap)
            for si, di in _connection_indices(sc):
                for algo, weight in ((ALGO_SP, "latency"), (ALGO_LH, "unit")):
                    want = []
                    for s1, up in zip(snap.edge_sats[si].tolist(), snap.edge_lengths[si]):
                        for s2, down in zip(snap.edge_sats[di].tolist(), snap.edge_lengths[di]):
                            dist, sats, legs = reference_route(
                                links, snap.sat_count, weight, s1, s2
                            )
                            if sats is not None:
                                want.append((sats, legs, float(up), float(down), dist[s2]))
                    ps = enumerate_paths(snap, algo, si, di)
                    got = routes(ps)
                    assert [(r, snapshot_legs(snap, r)) for r in got] == [w[:2] for w in want]
                    # legs summed in order, then the up and the down link
                    assert ps.total_km.tolist() == [sum(w[1]) + w[2] + w[3] for w in want]
                    for hops, w in zip(ps.hops.tolist(), want):
                        assert (sum(w[1]) if weight == "latency" else hops) == w[4]
                    checked += len(got)
        assert checked > 20

    @pytest.mark.parametrize("weight", ["latency", "unit"])
    def test_baseline_pass_keeps_one_distance_table(self, weight):
        # a 70x70 shell: a stamp's source rows are many, so every other
        # rows x S table a pass held would show in the peak
        sc = load_scenario(SCENARIO_DIR / "experiment1_40x40.json")
        sc = replace(sc, constellation=replace(sc.constellation, sats_per_plane=70, planes=70))
        snap = snapshot_at(sc)(sc.time.stamps()[0])
        sats, conns = snap.edge_sats, _connection_indices(sc)
        src = np.concatenate([np.repeat(sats[si], sats[di].size) for si, di in conns])
        end = np.concatenate([np.tile(sats[di], sats[si].size) for si, di in conns])
        tracemalloc.start()
        try:
            hit, _ = _baseline_routes(snap, weight, src, end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hit.size == src.size
        table = np.unique(src).size * snap.sat_count * 8
        # the distances and the relaxation's frontier take about 2 tables;
        # each further rows x S array a pass keeps adds 1
        assert peak < 3.5 * table

    def test_greedy_lengths_read_the_snapshot_on_shipped_shell(self):
        sc = load_scenario(SCENARIO_DIR / "experiment1_20x20.json")
        const = build_walker(sc.constellation)
        tpl = build_persistent_isls(const, sc.pattern)
        legs = downs = 0
        for t in sc.time.stamps()[::20]:
            snap = snapshot(const, sc.stations, sc.pattern, t, sc.elevation_min_deg, template=tpl)
            for si, di in _connection_indices(sc):
                for algo in (ALGO_MPLF_CPI, ALGO_MPLF_NFP):
                    ps = enumerate_paths(snap, algo, si, di)
                    for r, total, ok in zip(routes(ps), ps.total_km.tolist(), ps.delivered):
                        kms = [
                            snap.slot_lengths[a, int(np.flatnonzero(tpl.nbr[a] == b)[0])]
                            for a, b in zip(r, r[1:])
                        ]
                        legs += len(kms)
                        down = edge_length(snap, di, r[-1]) if ok else 0.0
                        downs += bool(ok)
                        assert total == sum(kms) + edge_length(snap, si, r[0]) + down
        assert legs > 100 and downs > 10


# -- the lockstep kernel against the per-hop loop it replaced --------------------


@dataclass(frozen=True)
class Next:
    neighbor: int


@dataclass(frozen=True)
class Drop:
    reason: str


def _reference_forward(strategy, current_pos, prev, dest_pos, ids, neighbor_pos, counts):
    """One decision as the per-hop rule computed it: 1-D norms, `rel @
    bearing`, and a lexsort pick with the lowest id breaking ties. The
    candidate count of the decision is appended to counts."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return Drop(DROP_DEAD_END)
    counts.append(int(ids.size))
    if strategy == "cpi":
        rel = neighbor_pos - current_pos
        bearing = dest_pos - current_pos
        bn = float(np.linalg.norm(bearing))
        rn = np.linalg.norm(rel, axis=1)
        if bn == 0.0 or np.any(rn == 0.0):
            raise ValueError("coincident nodes leave the bearing undefined")
        key = -((rel @ bearing) / (rn * bn))
    else:
        key = np.linalg.norm(neighbor_pos - dest_pos, axis=1)
    chosen = int(ids[np.lexsort((ids, key))[0]])
    if prev is not None and chosen == prev:
        return Drop(DROP_LOOP)
    return Next(chosen)


def reference_trace(snap, strategy, src, station, max_hops, dest_pos, counts):
    """The per-hop trace loop, one decision call per hop; each decision's
    candidate count is appended to counts."""
    down_of = dict(zip(snap.edge_sats[station].tolist(), snap.edge_lengths[station].tolist()))
    pos = snap.sat_positions
    sats = [src]

    def path(status, reason=None, down_km=None):
        a = np.array(sats[:-1], dtype=np.int64)
        col = (snap.template.nbr[a] == np.array(sats[1:])[:, None]).argmax(axis=1)
        legs = tuple(snap.slot_lengths[a, col].tolist())
        return Path(tuple(sats), legs, status, drop_reason=reason, down_km=down_km)

    prev, current = None, src
    while True:
        if current in down_of:
            return path("delivered", down_km=down_of[current])
        if len(sats) > max_hops:
            return path("dropped", DROP_DEAD_END)
        nbrs = snap.neighbors(current)
        d = _reference_forward(strategy, pos[current], prev, dest_pos, nbrs, pos[nbrs], counts)
        if isinstance(d, Drop):
            return path("dropped", d.reason)
        sats.append(d.neighbor)
        prev, current = current, d.neighbor


@st.composite
def lockstep_cases(draw):
    """A small random mesh on a 50 km grid over the hub, and a batch of
    traces. Grid coordinates make exact key ties common; sparse links leave
    zero-degree satellites; small hop caps and the unreachable station make
    cap hits and loop drops; a destination on a satellite's cell makes a
    coincident bearing."""
    n = draw(st.integers(2, 10))
    cell = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    cells = draw(st.lists(cell, min_size=n, max_size=n, unique=True))
    links = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = sorted(draw(st.lists(st.sampled_from(links), unique=True, max_size=2 * n)))
    elevation = draw(st.sampled_from([70.0, 80.0, 88.0]))
    snap = synthetic(
        [P + [0.0, 50.0 * y, 50.0 * z] for y, z in cells],
        pairs,
        stations=(ground("hub", 0.0, 0.0), ground("nowhere", 0.0, 180.0)),
        min_elevation_deg=elevation,
    )
    trace = st.tuples(
        st.sampled_from(["cpi", "nfp"]),
        st.integers(0, n - 1),
        st.sampled_from([0, 1]),
        st.sampled_from([0.0, 0.0, 40.0]),
        cell,
    )
    batch = draw(st.lists(trace, min_size=1, max_size=12))
    return snap, batch, draw(st.integers(1, 8))


class TestLockstepKernel:
    @given(case=lockstep_cases())
    @settings(max_examples=300, deadline=None)
    def test_kernel_equals_per_hop_loop(self, case):
        snap, batch, cap = case
        rules, srcs, stations, dx, cells = zip(*batch)
        dests = np.array([P + [x, 50.0 * y, 50.0 * z] for x, (y, z) in zip(dx, cells)])
        counts = []
        try:
            want = [
                reference_trace(snap, r, s, g, cap, d, counts)
                for r, s, g, d in zip(rules, srcs, stations, dests)
            ]
        except ValueError:
            with pytest.raises(ValueError, match="coincident"):
                trace_lockstep(snap, rules, srcs, stations, dests, cap)
            return
        got = trace_lockstep(snap, rules, srcs, stations, dests, cap)
        assert as_paths(got) == want
        # the paths alone give every decision the loop made, in its order
        assert decision_counts(snap.template.degree, got).tolist() == counts
        # the batch of one is the same rule
        singles = [
            trace_path(snap, r, s, g, max_hops=cap, dest_pos=d)
            for r, s, g, d in zip(rules, srcs, stations, dests)
        ]
        assert singles == want

    def test_kernel_sees_cap_hits_loops_dead_ends_and_deliveries(self):
        snap = chain_snapshot(pairs=((1, 2), (2, 3)))
        got = trace_lockstep(
            snap,
            ["nfp", "nfp", "nfp", "cpi"],
            [0, 3, 3, 3],
            [1, 1, 0, 1],
            np.array([FAR, FAR, FAR, P + [0, -250, 0]]),
            max_hops=2,
        )
        assert [(p.sats, p.status, p.drop_reason) for p in as_paths(got)] == [
            ((0,), "dropped", DROP_DEAD_END),  # no links at all
            ((3, 2), "dropped", DROP_LOOP),
            ((3, 2), "delivered", None),
            ((3, 2, 1), "dropped", DROP_DEAD_END),  # the hop cap
        ]
        assert as_paths(got)[2].down_km == edge_length(snap, HUB, 2)
        # trace by trace: no decision at 0, a loop decided at 2, none at a
        # delivery or the cap
        assert decision_counts(snap.template.degree, got).tolist() == [1, 2, 1, 1, 2]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            trace_lockstep(chain_snapshot(), ["nfp", "compass"], [0, 0], [0, 0], np.zeros((2, 3)))

    def test_interleaved_rules_equal_each_rule_alone(self):
        # the kernel orders rows by rule; its Routes stay in batch order
        stations = [ground("a", 45.0, 10.0), ground("b", -30.0, 100.0), ground("c", 30.0, 60.0)]
        snap = snapshot_shell(stations, seconds=300)
        batch = [
            (rule, s, d, dest)
            for si in range(3)
            for d in range(3)
            if d != si
            for s in snap.edge_sats[si].tolist()
            for dest in (snap.station_positions[d], FAR)
            for rule in ("nfp", "cpi")
        ]
        rules, srcs, dests, points = zip(*batch)
        got = trace_lockstep(snap, rules, srcs, dests, np.array(points), max_hops=12)
        assert {p.status for p in as_paths(got)} == {"delivered", "dropped"}
        for rule in ("cpi", "nfp"):
            mine = [i for i, r in enumerate(rules) if r == rule]
            alone = trace_lockstep(snap, [rule] * len(mine), [srcs[i] for i in mine],
                                   [dests[i] for i in mine], np.array([points[i] for i in mine]),
                                   max_hops=12)
            rows = routes_of(got)
            assert [rows[i] for i in mine] == routes_of(alone)


def routes_of(r):
    """Each route of a Routes batch: its satellites, legs, end code and down
    link, compared exactly."""
    s = r.starts.tolist()
    return [
        (r.sats[a:b].tolist(), r.legs[a:b].tolist(), int(r.end[i]), float(r.down_km[i]))
        for i, (a, b) in enumerate(zip(s, s[1:]))
    ]


class TestKernelArrayForms:
    """The kernel's stacked arithmetic equals the one-decision 1-D forms bit
    for bit. On AVX-512 builds of numpy, `np.sum(x * x, axis=-1)` and einsum
    differ from them in the last ulp on thousands of these vectors, so either
    substitution fails here."""

    def vectors(self, rng, shape):
        scale = 10.0 ** rng.uniform(-1.0, 4.0, size=shape[:-1] + (1,))
        return rng.normal(size=shape) * scale

    def test_bearing_norm_is_the_1d_norm(self):
        b = self.vectors(np.random.default_rng(11), (50_000, 3))
        want = np.array([np.linalg.norm(x) for x in b])
        assert np.array_equal(np.sqrt(np.vecdot(b, b)), want)

    @pytest.mark.parametrize("nfp", [False, True])
    def test_keys_are_the_one_decision_keys(self, nfp):
        rng = np.random.default_rng(12 + nfp)
        rows, width = 10_000, 5  # 50,000 candidate vectors
        here = P + self.vectors(rng, (rows, 3))
        dest = P + self.vectors(rng, (rows, 3))
        cand = here[:, None] + self.vectors(rng, (rows, width, 3))
        # a lone candidate is picked whatever its key, and its one-row
        # `rel @ bearing` is a dot product, not the matrix-vector form
        real = np.arange(width) < rng.integers(2, width + 1, size=(rows, 1))
        key = _keys(0 if nfp else rows, here, dest, cand, real)
        assert np.all(np.isinf(key[~real]))
        for i in range(rows):
            c = cand[i][real[i]]
            if nfp:
                want = np.linalg.norm(c - dest[i], axis=1)
            else:
                rel, bearing = c - here[i], dest[i] - here[i]
                want = -((rel @ bearing) / (np.linalg.norm(rel, axis=1) * np.linalg.norm(bearing)))
            assert np.array_equal(key[i][real[i]], want), i


class TestStampPathSets:
    def stations(self):
        return [ground("a", 45.0, 10.0), ground("b", -30.0, 100.0), ground("c", 30.0, 60.0)]

    def test_equals_one_connection_at_a_time(self):
        snap = snapshot_shell(self.stations(), seconds=300)
        conns = [(0, 1), (1, 2), (2, 0), (0, 2)]
        got = stamp_path_sets(snap, ALGORITHMS, conns)
        want = [enumerate_paths(snap, algo, src, dst) for src, dst in conns for algo in ALGORITHMS]
        assert [set_columns(ps) for ps in got] == [set_columns(ps) for ps in want]
        assert sum(len(ps.paths) for ps in got) > 20
        # one batch aims each trace at its own point: the station or FAR
        batch = [
            (rule, sat, dest)
            for rule in ("cpi", "nfp")
            for sat in snap.edge_sats[1].tolist()
            for dest in (snap.station_positions[2], FAR)
        ]
        rules, sats, dests = zip(*batch)
        got = as_paths(trace_lockstep(snap, rules, sats, [2] * len(batch), np.array(dests)))
        assert got == [trace_path(snap, r, s, 2, dest_pos=d) for r, s, d in batch]
        assert got[::2] == [trace_path(snap, r, s, 2) for r, s, _ in batch[::2]]
        assert got[::2] != got[1::2]

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_station_index_outside_the_snapshot_raises(self, bad):
        # a negative index would otherwise wrap to the last station
        snap = snapshot_shell(self.stations(), seconds=300)
        message = f"station index {bad} outside 0..2"
        with pytest.raises(IndexError, match=message):
            stamp_path_sets(snap, ALGORITHMS, [(0, 1), (bad, 1)])
        with pytest.raises(IndexError, match=message):
            stamp_path_sets(snap, [ALGO_MPLF_CPI], [(0, bad)])
        for algo in ALGORITHMS:
            with pytest.raises(IndexError, match=message):
                enumerate_paths(snap, algo, bad, 0)
        with pytest.raises(IndexError, match=message):
            trace_path(snap, "cpi", int(snap.edge_sats[0][0]), bad)

    @pytest.mark.parametrize("weight", ["latency", "unit"])
    def test_batched_baseline_rows_equal_per_connection_calls(self, weight):
        snap = snapshot_shell(self.stations(), seconds=300)
        w, code = _slot_weights(snap), WEIGHTS.index(weight)
        sources = np.concatenate(snap.edge_sats)
        dist = _distances(snap, w, np.full(sources.size, code), sources)
        start = 0
        for sats in snap.edge_sats:
            stop = start + sats.size
            assert np.array_equal(dist[start:stop], _distances(snap, w, np.full(sats.size, code), sats))
            start = stop
        assert start > 3
        # a pass that mixes the weights row by row gives each row the one a
        # single-weight pass gives, written in place into the head of a table
        kinds = (np.arange(sources.size) + code) % 2
        table = np.full((sources.size + 2, snap.sat_count), -1.0)
        out = table[: sources.size]
        assert _distances(snap, w, kinds, sources, out=out) is out
        assert np.all(table[sources.size :] == -1.0)
        single = [_distances(snap, w, np.full(sources.size, k), sources) for k in (0, 1)]
        for i, k in enumerate(kinds.tolist()):
            assert np.array_equal(out[i], single[k][i])
        assert single[0][0].tolist() != single[1][0].tolist()


def shipped_stamps(name, count=4):
    """A shipped scenario and count evenly spread stamps of it, plus the
    stamp after each, so that consecutive stamps share source satellites."""
    sc = load_scenario(SCENARIO_DIR / name)
    stamps = sc.time.stamps()
    picks = np.linspace(0, len(stamps) - 2, count).astype(int).tolist()
    return sc, [stamps[j] for i in picks for j in (i, i + 1)]


def path_set_columns(sc, stamps, template_of):
    """The stamp_path_sets columns of each stamp, each snapshot built on the
    template template_of(stamp) gives."""
    const = build_walker(sc.constellation)
    conns = _connection_indices(sc)
    out = []
    for t in stamps:
        snap = snapshot(const, sc.stations, sc.pattern, t, sc.elevation_min_deg,
                        template=template_of(t))
        out.append([set_columns(ps) for ps in stamp_path_sets(snap, sc.algorithms, conns)])
    return out


def fresh_template(sc):
    const = build_walker(sc.constellation)
    return lambda t: build_persistent_isls(const, sc.pattern)


def shared_template(sc):
    tpl = build_persistent_isls(build_walker(sc.constellation), sc.pattern)
    return tpl, lambda t: tpl


@pytest.fixture
def hop_passes(monkeypatch):
    """The number of hop rows each distance pass computes, in call order."""
    counts = []

    def counted(snap, w, kinds, sources, out=None):
        counts.append(int(np.count_nonzero(kinds == WEIGHTS.index("unit"))))
        return _distances(snap, w, kinds, sources, out)

    monkeypatch.setattr(routing, "_distances", counted)
    return counts


class TestBlockPathSets:
    """A block of stamps routed as one greedy batch gives each stamp the
    columns, bit for bit, that routing the stamp alone gives."""

    @pytest.mark.parametrize("name", ["experiment1_40x40.json", "experiment3_moving.json"])
    def test_block_equals_each_stamp_alone(self, name):
        sc, stamps = shipped_stamps(name)
        at, conns = snapshot_at(sc), _connection_indices(sc)
        snaps = [at(t) for t in stamps]
        got = block_path_sets(snaps, sc.algorithms, conns)
        want = [stamp_path_sets(snap, sc.algorithms, conns) for snap in snaps]
        assert [[set_columns(ps) for ps in sets] for sets in got] == [
            [set_columns(ps) for ps in sets] for sets in want
        ]
        assert sum(len(ps.paths) for sets in got for ps in sets) > 100

    def test_interleaved_stamps_equal_each_stamp_alone(self):
        # trace i runs in snaps[stamp[i]]: the same source satellites, rules
        # and destinations at other positions give other routes
        sc, stamps = shipped_stamps("experiment3_moving.json", count=2)
        at = snapshot_at(sc)
        snaps = [at(t) for t in stamps]
        hub = len(sc.stations) - 1
        batch = [
            (k, rule, s, d)
            for d in (hub, 0)
            for s in sorted(set(snaps[0].edge_sats[1].tolist()) | set(snaps[3].edge_sats[2].tolist()))
            for rule in ("cpi", "nfp")
            for k in (3, 0, 2, 1)
        ]
        ks, rules, srcs, dests = zip(*batch)
        points = np.array([snaps[k].station_positions[d] for k, _, _, d in batch])
        got = routes_of(trace_lockstep(snaps, rules, srcs, dests, points, stamp=ks))
        for k, snap in enumerate(snaps):
            mine = [i for i, q in enumerate(ks) if q == k]
            alone = trace_lockstep(snap, [rules[i] for i in mine], [srcs[i] for i in mine],
                                   [dests[i] for i in mine], points[mine])
            assert [got[i] for i in mine] == routes_of(alone)
        assert got[0::4] != got[1::4]

    def test_kernel_rejects_a_foreign_template_and_a_stamp_out_of_range(self):
        sc, stamps = shipped_stamps("experiment1_20x20.json", count=1)
        at = snapshot_at(sc)
        snaps = [at(t) for t in stamps]
        src = int(snaps[0].edge_sats[0][0])
        point = snaps[0].station_positions[1:2]
        with pytest.raises(IndexError, match="stamp index outside 0..1"):
            trace_lockstep(snaps, ["nfp"], [src], [1], point, stamp=[2])
        other = snapshot_at(sc)(stamps[0])  # a template of its own
        with pytest.raises(ValueError, match="share one template"):
            trace_lockstep([snaps[0], other], ["nfp"], [src], [1], point)
        with pytest.raises(IndexError, match="satellite index outside"):
            trace_lockstep(snaps, ["nfp"], [-1], [1], point)


class TestHopRowCache:
    """No template carries hop rows across stamps: a template shared by every
    stamp routes as fresh templates do, and a pass on a grid template relaxes
    at most one hop row, from satellite 0, reading the others off it."""

    SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shared_template_equals_fresh_templates(self, name, hop_passes):
        sc, stamps = shipped_stamps(name)
        want = path_set_columns(sc, stamps, fresh_template(sc))
        _, at = shared_template(sc)
        assert path_set_columns(sc, stamps, at) == want
        assert ALGO_LH in sc.algorithms and max(hop_passes) == 1

    def test_lh_alone_relaxes_one_hop_row_per_pass(self, hop_passes):
        sc, stamps = shipped_stamps("experiment3_moving.json", count=3)
        sc = replace(sc, algorithms=(ALGO_LH,))
        want = path_set_columns(sc, stamps, fresh_template(sc))
        hop_passes.clear()
        _, at = shared_template(sc)
        got = path_set_columns(sc, stamps, at)
        assert got == want
        assert sum(len(cols[2]) for sets in got for cols in sets) > 50  # end codes
        assert hop_passes == [1] * len(stamps)

    def test_interleaved_templates_equal_fresh_templates(self):
        sc, stamps = shipped_stamps("experiment1_20x20.json", count=3)
        const = build_walker(sc.constellation)
        patterns = [IslPattern("+Grid", (0,)), IslPattern("*Grid", (-1, 0))]
        shared = [build_persistent_isls(const, p) for p in patterns]
        got, want = [], []
        for i, t in enumerate(stamps):
            k = i % 2
            sk = replace(sc, pattern=patterns[k])
            got += path_set_columns(sk, [t], lambda t: shared[k])
            want += path_set_columns(sk, [t], fresh_template(sk))
        assert got == want
        # the two templates route the first stamp differently
        other = replace(sc, pattern=patterns[1])
        assert path_set_columns(other, stamps[:1], lambda t: shared[1]) != got[:1]

    def test_unreached_pairs_stay_unreached_under_both_weights(self, hop_passes):
        # two segments: 0-1-2 and 3-4, and 5 alone
        positions = [P + [0, 100 * k, 0] for k in range(6)]
        snap = synthetic(positions, [(0, 1), (1, 2), (3, 4)], lengths=[3.0, 4.0, 5.0])
        src, end = np.repeat(np.arange(6), 6), np.tile(np.arange(6), 6)
        part = np.array([0, 0, 0, 1, 1, 2])
        want = np.flatnonzero(part[src] == part[end])
        runs = [_baseline_routes(snap, ("latency", "unit"), src, end) for _ in range(2)]
        # a template with no grid shape relaxes a hop row per distinct source
        assert snap.template.shape is None and hop_passes == [6, 6]
        for hit, r in runs:
            assert hit.tolist() == [*want.tolist(), *(want + src.size).tolist()]
            assert r.sats.tolist() == runs[0][1].sats.tolist()

    def test_weights_in_one_batch_equal_one_batch_each(self):
        snap = snapshot_shell([ground("a", 45.0, 10.0), ground("b", -30.0, 100.0)], seconds=300)
        src = np.repeat(snap.edge_sats[0], snap.edge_sats[1].size)
        end = np.tile(snap.edge_sats[1], snap.edge_sats[0].size)
        hit, r = _baseline_routes(snap, ("latency", "unit"), src, end)
        parts = [_baseline_routes(snap, w, src, end) for w in ("latency", "unit")]
        assert hit.tolist() == parts[0][0].tolist() + (parts[1][0] + src.size).tolist()
        for column in ("sats", "legs"):
            want = np.concatenate([getattr(p[1], column) for p in parts])
            assert np.array_equal(getattr(r, column), want)
        assert r.sats.size > 2 * src.size


class TestHopRowSymmetry:
    """Every shift of a Walker grid maps it onto itself: the hop row from any
    satellite is the row from satellite 0 shifted to it, bit for bit."""

    PATTERNS = [IslPattern("+Grid", (0,)), IslPattern("+Grid", (-1,)), IslPattern("*Grid", (-1, 0))]

    @pytest.mark.parametrize(
        "sats, planes", [(40, 40), (20, 20), (72, 22), (3, 2), (2, 3), (2, 2), (5, 2), (5, 1)]
    )
    def test_every_relaxed_hop_row_is_the_shifted_row_zero(self, sats, planes):
        const = shell(sats, planes)
        checked = 0
        for pattern in self.PATTERNS:
            if self_link_parameter(sats, planes, pattern) is not None:
                continue
            tpl = build_persistent_isls(const, pattern)
            assert tpl.shape == (planes, sats)
            # the same links in a template with no shape, relaxed row by row
            snap = synthetic_snapshot(EPOCH, const, const.positions_at(EPOCH),
                                      const.velocities_at(EPOCH), tpl.pairs, tpl.kinds)
            n = tpl.sat_count
            unit = np.full(n, WEIGHTS.index("unit"))
            relaxed = _distances(snap, _slot_weights(snap), unit, np.arange(n))
            shifted = np.empty_like(relaxed)
            _shifted_rows(relaxed[0], tpl.shape, np.arange(n), out=shifted)
            assert shifted.tobytes() == relaxed.tobytes()
            checked += 1
        assert checked >= (1 if planes == 1 else 3)


class TestColumnForms:
    """The columnar forms equal the per-path forms they replaced, bit for bit."""

    def test_leg_sums_are_python_sums(self):
        rng = np.random.default_rng(21)
        rows = [
            (rng.uniform(1.0, 5000.0, size=n) * 10.0 ** rng.uniform(-3, 3, size=n)).tolist()
            for n in rng.integers(1, 61, size=2000)
        ]
        got = _leg_sums(np.concatenate(rows), np.array([len(r) for r in rows]))
        assert got.tolist() == [float(sum(r)) for r in rows]

    def test_lockstep_walk_equals_per_pair_walk(self):
        # integer lengths: equal-cost routes are exact and common
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(2, 30)
            links = {}
            for _ in range(rng.randint(1, 2 * n)):
                links[tuple(sorted(rng.sample(range(n), 2)))] = float(rng.randint(1, 4))
            pairs = sorted(links)
            positions = [P + [0.0, 100.0 * k, 0.0] for k in range(n)]
            snap = synthetic(positions, pairs, lengths=[links[p] for p in pairs])
            m = rng.randint(1, 40)
            src = [rng.randrange(n) for _ in range(m)]
            end = [rng.randrange(n) for _ in range(m)]
            for weight in ("latency", "unit"):
                hit, r = _baseline_routes(snap, weight, np.array(src), np.array(end))
                want = [reference_route(links, n, weight, s, e) for s, e in zip(src, end)]
                assert hit.tolist() == [i for i, w in enumerate(want) if w[1] is not None]
                sats, starts, legs = r.sats.tolist(), r.starts.tolist(), r.legs.tolist()
                assert all(legs[a] == 0.0 for a in starts[:-1])
                got = [
                    (tuple(sats[a:b]), tuple(legs[a + 1 : b]))
                    for a, b in zip(starts, starts[1:])
                ]
                assert got == [w[1:] for w in want if w[1] is not None]
