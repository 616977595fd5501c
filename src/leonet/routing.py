"""Packet forwarding: geographic greedy strategies and shortest-path baselines.

The greedy strategies operate hop by hop on frozen destination coordinates:
the ingress node converts the destination's Earth-fixed position to the
inertial frame once, stamps it into the header, and every relay reuses that
address unchanged. Two per-hop rules are provided: pick the neighbor whose
direction best aligns with the destination bearing (closest pointing,
"cpi"), or the neighbor closest to the destination in space (nearest
position, "nfp"). Neither rule requires progress; a relay that would hand
the packet straight back drops it instead, and a relay with no neighbors
drops it as a dead end.

Baselines are exact shortest paths over the satellite graph under a latency
or unit (hop) weight. Distances from all source satellites of a connection
come from one batched frontier relaxation over the template's adjacency; a
vectorized pass then picks each node's lowest-id predecessor, and paths
follow those pointers back from each destination satellite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Sequence

import numpy as np

from .geometry import ecef_to_eci, eci_to_ecef, link_latency_ms
from .topology import Snapshot

DROP_DEAD_END = "dead-end"
DROP_LOOP = "loop"

STRATEGY_CPI = "cpi"
STRATEGY_NFP = "nfp"

ALGO_MPLF_CPI = "mplf-cpi"
ALGO_MPLF_NFP = "mplf-nfp"
ALGO_SP = "sp"
ALGO_LH = "lh"
ALGORITHMS = (ALGO_MPLF_CPI, ALGO_MPLF_NFP, ALGO_SP, ALGO_LH)

WEIGHT_LATENCY = "latency"
WEIGHT_UNIT = "unit"


class UnknownEquipmentError(KeyError):
    """Lookup of an equipment identifier that no entry exists for."""


@dataclass(frozen=True, eq=False)
class MplfHeader:
    """Routing header carried by a packet from ingress to delivery.

    Addresses are inertial-frame coordinates fixed at the ingress timestamp;
    relays never re-derive them.
    """

    dst_ei: str
    dst_saddr: np.ndarray
    src_ei: str
    src_saddr: np.ndarray
    ingress: datetime


@dataclass(frozen=True)
class _TableEntry:
    ecef: tuple[float, float, float]
    updated: datetime


class LocationTable:
    """EI -> last known Earth-fixed position with its update timestamp."""

    def __init__(self) -> None:
        self._entries: dict[str, _TableEntry] = {}

    def update(self, ei: str, ecef: np.ndarray, t: datetime) -> None:
        prev = self._entries.get(ei)
        if prev is not None and t < prev.updated:
            raise ValueError(
                f"update for {ei} at {t} precedes the stored timestamp {prev.updated}"
            )
        p = np.asarray(ecef, dtype=float)
        self._entries[ei] = _TableEntry((float(p[0]), float(p[1]), float(p[2])), t)

    def lookup(self, ei: str) -> tuple[np.ndarray, datetime]:
        entry = self._entries.get(ei)
        if entry is None:
            raise UnknownEquipmentError(ei)
        return np.array(entry.ecef), entry.updated

    def __contains__(self, ei: str) -> bool:
        return ei in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def ler_encapsulate(
    table: LocationTable, src_ei: str, dst_ei: str, t: datetime, epoch: datetime
) -> MplfHeader:
    """Build the routing header at the ingress edge router.

    Both endpoints are resolved through the location table and converted to
    the inertial frame at the ingress instant. Unknown EIs raise
    UnknownEquipmentError.
    """
    dst_ecef, _ = table.lookup(dst_ei)
    src_ecef, _ = table.lookup(src_ei)
    return MplfHeader(
        dst_ei=dst_ei,
        dst_saddr=ecef_to_eci(dst_ecef, t, epoch),
        src_ei=src_ei,
        src_saddr=ecef_to_eci(src_ecef, t, epoch),
        ingress=t,
    )


def record_delivery(table: LocationTable, header: MplfHeader, epoch: datetime) -> None:
    """On delivery, store the source's position as of the ingress stamp."""
    ecef = eci_to_ecef(header.src_saddr, header.ingress, epoch)
    table.update(header.src_ei, ecef, header.ingress)


# -- per-hop decisions -------------------------------------------------------


@dataclass(frozen=True)
class Next:
    neighbor: int


@dataclass(frozen=True)
class Drop:
    reason: str


class DecisionStats:
    """Collects the number of candidate evaluations per forwarding decision."""

    def __init__(self) -> None:
        self.comparisons: list[int] = []

    def record(self, n: int) -> None:
        self.comparisons.append(n)


def _pick(ids: np.ndarray, key: np.ndarray) -> int:
    # primary sort on the key, ties broken by the lowest satellite id
    return int(ids[np.lexsort((ids, key))[0]])


def forward_cpi(
    current_pos: np.ndarray,
    prev: int | None,
    dest_pos: np.ndarray,
    neighbor_ids: Sequence[int] | np.ndarray,
    neighbor_pos: np.ndarray,
    stats: DecisionStats | None = None,
) -> Next | Drop:
    """Pick the neighbor whose direction is most aligned with the destination.

    Alignment is the cosine between the neighbor displacement and the
    destination bearing from the current node. Equal cosines resolve to the
    lowest id. Handing the packet back to the previous relay is a loop drop;
    an empty candidate set is a dead end.
    """
    ids = np.asarray(neighbor_ids, dtype=np.int64)
    if ids.size == 0:
        return Drop(DROP_DEAD_END)
    if stats is not None:
        stats.record(int(ids.size))
    rel = np.asarray(neighbor_pos, dtype=float) - current_pos
    bearing = np.asarray(dest_pos, dtype=float) - current_pos
    bn = float(np.linalg.norm(bearing))
    rn = np.linalg.norm(rel, axis=1)
    if bn == 0.0 or np.any(rn == 0.0):
        raise ValueError("coincident nodes leave the bearing undefined")
    cos = (rel @ bearing) / (rn * bn)
    chosen = _pick(ids, -cos)
    if prev is not None and chosen == prev:
        return Drop(DROP_LOOP)
    return Next(chosen)


def forward_nfp(
    current_pos: np.ndarray,
    prev: int | None,
    dest_pos: np.ndarray,
    neighbor_ids: Sequence[int] | np.ndarray,
    neighbor_pos: np.ndarray,
    stats: DecisionStats | None = None,
) -> Next | Drop:
    """Pick the neighbor spatially closest to the destination.

    Pure greedy minimum over the candidate set; the current node's own
    distance plays no role. Ties resolve to the lowest id; returning to the
    previous relay is a loop drop, an empty candidate set a dead end.
    """
    ids = np.asarray(neighbor_ids, dtype=np.int64)
    if ids.size == 0:
        return Drop(DROP_DEAD_END)
    if stats is not None:
        stats.record(int(ids.size))
    d = np.linalg.norm(np.asarray(neighbor_pos, dtype=float) - dest_pos, axis=1)
    chosen = _pick(ids, d)
    if prev is not None and chosen == prev:
        return Drop(DROP_LOOP)
    return Next(chosen)


_FORWARDERS = {STRATEGY_CPI: forward_cpi, STRATEGY_NFP: forward_nfp}


# -- paths -------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """One traced or computed route between edge attachments.

    The satellite sequence always has at least one element; a packet that is
    delivered by its ingress satellite makes a zero-hop path. Edge-link
    lengths (up at the source, down at the destination) are attached when the
    endpoints are stations and count toward the totals.
    """

    sats: tuple[int, ...]
    isl_lengths_km: tuple[float, ...]
    status: str  # "delivered" | "dropped"
    drop_reason: str | None = None
    up_km: float | None = None
    down_km: float | None = None

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"

    @property
    def hops(self) -> int:
        return len(self.sats) - 1

    @property
    def src_sat(self) -> int:
        return self.sats[0]

    @property
    def end_sat(self) -> int:
        return self.sats[-1]

    @property
    def isl_km(self) -> float:
        return float(sum(self.isl_lengths_km))

    @property
    def total_km(self) -> float:
        return self.isl_km + (self.up_km or 0.0) + (self.down_km or 0.0)

    @property
    def latency_ms(self) -> float:
        return float(link_latency_ms(self.total_km))

    def with_up(self, up_km: float) -> "Path":
        return replace(self, up_km=up_km)


def default_max_hops(snap: Snapshot) -> int:
    cfg = snap.constellation.config
    return 4 * (cfg.sats_per_plane + cfg.planes)


def trace_path(
    snap: Snapshot,
    strategy: str,
    src_sat: int,
    dest_station: str | int,
    max_hops: int | None = None,
    dest_pos: np.ndarray | None = None,
    stats: DecisionStats | None = None,
) -> Path:
    """Run one greedy trace from an ingress satellite toward a station.

    At every relay the station association is checked first (delivery), then
    the per-hop rule picks the next relay. The hop count is capped at
    max_hops (default 4 * (sats_per_plane + planes)); exceeding it drops the
    packet as a dead end. dest_pos overrides the destination coordinates,
    e.g. with the frozen header address; it defaults to the station's
    current inertial position. Leg and delivery-link lengths are the
    snapshot's, the legs gathered once per trace from its adjacency layout.
    """
    if strategy not in _FORWARDERS:
        raise ValueError(f"unknown strategy {strategy!r}")
    forwarder = _FORWARDERS[strategy]
    if max_hops is None:
        max_hops = default_max_hops(snap)
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    dst_idx = snap.station_index(dest_station)
    if dest_pos is None:
        dest_pos = snap.station_positions[dst_idx]
    dest_pos = np.asarray(dest_pos, dtype=float)

    pos = snap.sat_positions
    down_of = dict(zip(snap.edge_sats[dst_idx].tolist(), snap.edge_lengths[dst_idx].tolist()))
    sats = [src_sat]

    def path(status: str, drop_reason: str | None = None, down_km: float | None = None) -> Path:
        a = np.array(sats[:-1], dtype=np.int64)
        col = (snap.template.nbr[a] == np.array(sats[1:])[:, None]).argmax(axis=1)
        legs = tuple(snap.slot_lengths[a, col].tolist())
        return Path(tuple(sats), legs, status, drop_reason=drop_reason, down_km=down_km)

    prev: int | None = None
    current = src_sat
    while True:
        if current in down_of:
            return path("delivered", down_km=down_of[current])
        if len(sats) > max_hops:
            return path("dropped", DROP_DEAD_END)
        nbrs = snap.neighbors(current)
        decision = forwarder(pos[current], prev, dest_pos, nbrs, pos[nbrs], stats)
        if isinstance(decision, Drop):
            return path("dropped", decision.reason)
        sats.append(decision.neighbor)
        prev, current = current, decision.neighbor


# -- shortest-path baselines --------------------------------------------------


def _slot_weights(snap: Snapshot, weight: str) -> np.ndarray:
    """Weights laid out like the template's adjacency table; padding is inf."""
    if weight not in (WEIGHT_LATENCY, WEIGHT_UNIT):
        raise ValueError(f"unknown weight {weight!r}")
    if weight == WEIGHT_LATENCY:
        return snap.slot_lengths
    return np.where(snap.template.link < snap.template.edge_count, 1.0, np.inf)


def _distances(
    snap: Snapshot, weight: str, seed_rows: Sequence[dict[int, float]]
) -> np.ndarray:
    """Distances over the satellite graph, one row per seed set (satellite ->
    offset), by frontier relaxation to the fixed point.

    Each round relaxes only the out-edges of the nodes whose distance fell in
    the previous round. Weights are positive and rounding is monotone, so the
    fixed point is unique and any complete relaxation order reaches it.
    """
    w = _slot_weights(snap, weight)
    nbr = snap.template.nbr
    n = snap.sat_count
    dist = np.full((len(seed_rows), n), np.inf)
    for r, seeds in enumerate(seed_rows):
        for sat, offset in seeds.items():
            dist[r, sat] = offset
    flat = dist.reshape(-1)
    # marks the next frontier once per node; np.unique would import numpy.ma
    mark = np.zeros(flat.size, dtype=bool)
    frontier = np.flatnonzero(np.isfinite(flat))
    while frontier.size:
        node = frontier % n
        target = nbr[node] + (frontier - node)[:, None]
        cand = w[node] + flat[frontier][:, None]
        fell = cand < flat[target]
        target = target[fell]
        np.minimum.at(flat, target, cand[fell])
        mark[target] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False
    return dist


def _predecessors(
    snap: Snapshot, weight: str, dist: np.ndarray, seed_rows: Sequence[dict[int, float]]
) -> np.ndarray:
    """Predecessor of each node as a flat index into the adjacency table, one
    row per seed set.

    The predecessor of v is its lowest-id neighbor u with dist[u] + w ==
    dist[v]. A seed whose distance equals its offset, and an unreached node,
    has none (-1). Deterministic by construction.
    """
    nbr = snap.template.nbr
    n, width = nbr.shape
    ok = dist[:, nbr] + _slot_weights(snap, weight) == dist[:, :, None]
    pred = np.where(np.isfinite(dist), np.arange(n) * width + ok.argmax(axis=2), -1)
    for r, seeds in enumerate(seed_rows):
        for sat, offset in seeds.items():
            if dist[r, sat] == offset:
                pred[r, sat] = -1
    return pred


def _walk(
    pred: list[int], nbr: list[int], lengths: list[float], end: int
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Satellite sequence and link lengths of the tree path ending at end."""
    sats = [end]
    legs: list[float] = []
    k = pred[end]
    while k >= 0:
        if len(legs) == len(pred):
            raise RuntimeError("path reconstruction exceeded the node count")
        legs.append(lengths[k])
        end = nbr[k]
        sats.append(end)
        k = pred[end]
    sats.reverse()
    legs.reverse()
    return tuple(sats), tuple(legs)


def bellman_ford(
    snap: Snapshot, weight: str, src: str | int, dst: str | int
) -> Path | None:
    """Exact shortest path between two snapshot nodes, or None if unreachable.

    Nodes are satellite indices or stations (EI, name, or node id). Stations
    act only as terminals: a route never relays through a third station.
    Under the latency weight the cost is propagation delay; under the unit
    weight it is the satellite hop count. Ties resolve to the lowest node id.
    """
    src_station = isinstance(src, str) or (isinstance(src, int) and src >= snap.sat_count)
    dst_station = isinstance(dst, str) or (isinstance(dst, int) and dst >= snap.sat_count)

    up_of: dict[int, float] = {}
    if src_station:
        i = snap.station_index(src)
        for s, ln in zip(snap.edge_sats[i], snap.edge_lengths[i]):
            up_of[int(s)] = float(ln)
        if weight == WEIGHT_LATENCY:
            seeds = {s: ln for s, ln in up_of.items()}
        else:
            seeds = {s: 0.0 for s in up_of}
    else:
        seeds = {int(src): 0.0}
    if not seeds:
        return None

    rows = _distances(snap, weight, [seeds])
    dist = rows[0]

    if dst_station:
        j = snap.station_index(dst)
        ends = snap.edge_sats[j]
        if ends.size == 0:
            return None
        downs = snap.edge_lengths[j]
        totals = dist[ends] + (downs if weight == WEIGHT_LATENCY else 0.0)
        if not np.any(np.isfinite(totals)):
            return None
        k = int(np.lexsort((ends, totals))[0])
        end, down = int(ends[k]), float(downs[k])
    else:
        end, down = int(dst), None
        if not math.isfinite(dist[end]):
            return None

    pred = _predecessors(snap, weight, rows, [seeds])[0]
    sats, lengths = _walk(
        pred.tolist(), snap.template.nbr.ravel().tolist(), snap.slot_lengths.ravel().tolist(), end
    )
    up = up_of.get(sats[0]) if src_station else None
    return Path(sats, lengths, "delivered", up_km=up, down_km=down)


# -- station-to-station path sets ---------------------------------------------


@dataclass(frozen=True)
class PathSet:
    """Equal-role paths between two stations at one stamp.

    `paths` holds delivered routes only; failed greedy traces are kept
    separately in `drops` for accounting.
    """

    src_ei: str
    dst_ei: str
    t: datetime
    algorithm: str
    paths: tuple[Path, ...]
    drops: tuple[Path, ...] = ()

    @property
    def any_delivered(self) -> bool:
        return len(self.paths) > 0


def enumerate_paths(
    snap: Snapshot,
    algorithm: str,
    src_station: str | int,
    dst_station: str | int,
    dest_pos: np.ndarray | None = None,
    max_hops: int | None = None,
    stats: DecisionStats | None = None,
) -> PathSet:
    """All equal-role paths between two stations under one algorithm.

    Greedy algorithms trace once per source-associated satellite (ascending
    id order). Baselines compute one path per (source-associated,
    destination-associated) satellite pair, so the set size is bounded by the
    product of the two association counts. An uncovered endpoint yields an
    empty set.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    si = snap.station_index(src_station)
    di = snap.station_index(dst_station)
    src_ei = snap.stations[si].ei
    dst_ei = snap.stations[di].ei
    src_sats = snap.edge_sats[si]
    dst_sats = snap.edge_sats[di]
    if src_sats.size == 0 or dst_sats.size == 0:
        return PathSet(src_ei, dst_ei, snap.t, algorithm, ())

    delivered: list[Path] = []
    drops: list[Path] = []
    if algorithm in (ALGO_MPLF_CPI, ALGO_MPLF_NFP):
        strategy = STRATEGY_CPI if algorithm == ALGO_MPLF_CPI else STRATEGY_NFP
        for k, s in enumerate(src_sats):
            p = trace_path(
                snap, strategy, int(s), di, max_hops=max_hops, dest_pos=dest_pos, stats=stats
            ).with_up(float(snap.edge_lengths[si][k]))
            (delivered if p.delivered else drops).append(p)
    else:
        weight = WEIGHT_LATENCY if algorithm == ALGO_SP else WEIGHT_UNIT
        seed_rows = [{int(s1): 0.0} for s1 in src_sats]
        dist = _distances(snap, weight, seed_rows)
        pred = _predecessors(snap, weight, dist, seed_rows).tolist()
        nbr = snap.template.nbr.ravel().tolist()
        lengths = snap.slot_lengths.ravel().tolist()
        ends = dst_sats.tolist()
        reached = np.isfinite(dist[:, dst_sats]).tolist()
        for k, row in enumerate(pred):
            for m, end in enumerate(ends):
                if not reached[k][m]:
                    continue
                sats, legs = _walk(row, nbr, lengths, end)
                delivered.append(
                    Path(
                        sats,
                        legs,
                        "delivered",
                        up_km=float(snap.edge_lengths[si][k]),
                        down_km=float(snap.edge_lengths[di][m]),
                    )
                )
    return PathSet(src_ei, dst_ei, snap.t, algorithm, tuple(delivered), tuple(drops))
