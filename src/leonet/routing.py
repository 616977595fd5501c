"""Packet forwarding: geographic greedy strategies and shortest-path baselines.

The greedy strategies operate hop by hop on frozen destination coordinates:
the ingress node converts the destination's Earth-fixed position to the
inertial frame once, stamps it into the header, and every relay reuses that
address unchanged. A stamp's traces are instantaneous, so stamp_path_sets
aims them at Snapshot.station_positions: bit for bit the address that
ler_encapsulate derives from a location table refreshed at that stamp.
Two per-hop rules are provided: pick the neighbor whose direction best
aligns with the destination bearing (closest pointing, "cpi"), or the
neighbor closest to the destination in space (nearest position, "nfp").
Neither rule requires progress; a relay that would hand the packet straight
back drops it instead, and a relay with no neighbors drops it as a dead end.

All greedy traces of a stamp, over every connection, source satellite and
rule, run in one lockstep kernel (trace_lockstep), the only implementation of
the per-hop rule: each step advances every live trace by one hop, ranking
the padded neighbor rows of the template's adjacency table together.
trace_path is its batch of one. Routing keeps no run state: the candidate
count of every decision follows from the traced paths (decision_counts).

Baselines are exact shortest paths over the satellite graph under a latency
or unit (hop) weight, one per (source, end) satellite pair; bellman_ford is
the one-pair case. Distances from the distinct sources of a stamp come from
one batched frontier relaxation over the template's adjacency, the only
table a baseline keeps: every route walks back from its end in lockstep, each
step taking the lowest-id neighbor whose distance plus link weight is the
node's own.

Stations are indices into the snapshot's stations, satellites flat ids; no
function here takes a name. trace_path, bellman_ford, stamp_path_sets and
enumerate_paths raise IndexError on an index out of range.

Paths stay in columns from the kernels to the path log: a PathSet holds its
paths' satellites end to end with per-path offsets, end codes and totals.
trace_path and bellman_ford return a single Path, row 0 of a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocationTable):
            return NotImplemented
        return self._entries == other._entries


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


@dataclass
class DecisionStats:
    """The number of candidate evaluations per forwarding decision."""

    comparisons: list[int] = field(default_factory=list)


def _keys(
    nfp: np.ndarray, here: np.ndarray, dest: np.ndarray, cand: np.ndarray, real: np.ndarray
) -> np.ndarray:
    """Ranking key of every candidate slot of a decision batch; lowest wins.

    Row i decides at here[i] for the destination dest[i] among the candidate
    positions cand[i], whose ids ascend along the row; real[i] marks the
    slots that hold a neighbor. nfp[i] selects the nearest-position rule,
    else closest pointing. A padding slot's key is infinite, so argmin along
    a row, which takes the first of equal keys, picks the lowest id.

    The array forms keep every key bit-identical to the arithmetic of a
    single decision (1-D np.linalg.norm, `rel @ bearing`): sqrt of vecdot
    for the bearing norm, norm along the last axis for the candidate norms,
    stacked matmul for the cosine numerator. einsum and sum(x * x) differ in
    the last ulp. So does the numerator of a row with one candidate (a
    one-row `rel @ bearing` is a dot product), which cannot change its pick.
    """
    key = np.empty(real.shape)
    cpi = ~nfp
    if cpi.any():
        rel = cand[cpi] - here[cpi][:, None]
        bearing = dest[cpi] - here[cpi]
        bn = np.sqrt(np.vecdot(bearing, bearing))
        rn = np.linalg.norm(rel, axis=-1)
        real_cpi = real[cpi]
        if np.any(bn == 0.0) or np.any(rn[real_cpi] == 0.0):
            raise ValueError("coincident nodes leave the bearing undefined")
        rn[~real_cpi] = 1.0  # a padding slot repeats the relay itself
        key[cpi] = -(np.matmul(rel, bearing[:, :, None])[..., 0] / (rn * bn[:, None]))
    if nfp.any():
        key[nfp] = np.linalg.norm(cand[nfp] - dest[nfp][:, None], axis=-1)
    key[~real] = np.inf
    return key


# -- paths -------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """One traced or computed route between edge attachments.

    The satellite sequence always has at least one element; a packet that is
    delivered by its ingress satellite makes a zero-hop path. A delivered
    greedy trace carries the length of its down link to the destination
    station, which counts toward the totals; no up link is attached.
    """

    sats: tuple[int, ...]
    isl_lengths_km: tuple[float, ...]
    status: str  # "delivered" | "dropped"
    drop_reason: str | None = None
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
        return self.isl_km + (self.down_km or 0.0)

    @property
    def latency_ms(self) -> float:
        return float(link_latency_ms(self.total_km))


def default_max_hops(snap: Snapshot) -> int:
    cfg = snap.constellation.config
    return 4 * (cfg.sats_per_plane + cfg.planes)


def _check_indices(what: str, indices: Iterable[int], count: int) -> None:
    """Raise IndexError unless every index is in 0..count - 1."""
    for i in indices:
        if not 0 <= i < count:
            raise IndexError(f"{what} index {i} outside 0..{count - 1}")


# how a path ends, indexed by its end code, as the path log writes it
STATUSES = ("delivered", f"dropped:{DROP_DEAD_END}", f"dropped:{DROP_LOOP}")
_DELIVERED, _DEAD_END, _LOOP = range(len(STATUSES))


class Routes(NamedTuple):
    """A batch of routes in columns. Route i visits sats[starts[i]:starts[i + 1]];
    legs[j] is the length of the link into sats[j], 0 at a route's first
    satellite. end[i] is its end code, down_km[i] its delivery link (or 0)."""

    sats: np.ndarray
    starts: np.ndarray
    legs: np.ndarray
    end: np.ndarray
    down_km: np.ndarray


def _routes(steps: Sequence[tuple], end: np.ndarray, down_km: np.ndarray) -> Routes:
    """Routes from per-step (route, satellite, leg into it) visit arrays, each
    route's visits in step order."""
    route, sats, legs = (np.concatenate(a) for a in zip(*steps))
    order = np.argsort(route, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(route, minlength=end.size))))
    return Routes(sats[order], starts, legs[order], end, down_km)


def _leg_sums(legs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each run of counts[i] legs, one zero-padded column at a
    time: as x + 0.0 == x, the left-to-right sum Python's sum gives."""
    pad = np.zeros((counts.size, counts.max(initial=0)))
    pad[np.arange(pad.shape[1]) < counts[:, None]] = legs
    total = np.zeros(counts.size)
    for col in pad.T:
        total += col
    return total


def _path_columns(r: Routes, up_km: np.ndarray, counts: Sequence[int]) -> list[tuple]:
    """The PathSet columns (sats, starts, end, total_km, latency_ms) of
    consecutive runs of counts[k] routes of a batch. Each route's legs are
    summed once, then its up and down links added, as Path.total_km does."""
    s = r.starts
    total = _leg_sums(r.legs, s[1:] - s[:-1]) + up_km + r.down_km
    latency = link_latency_ms(total)
    bounds = np.cumsum([0, *counts]).tolist()
    return [
        (r.sats[s[a] : s[b]], s[a : b + 1] - s[a], r.end[a:b], total[a:b], latency[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


def trace_lockstep(
    snap: Snapshot,
    strategies: Sequence[str],
    src_sats: Sequence[int] | np.ndarray,
    dest_stations: Sequence[int] | np.ndarray,
    dest_pos: np.ndarray,
    max_hops: int | None = None,
) -> Routes:
    """Run a batch of greedy traces side by side, one hop per step.

    Trace i leaves satellite src_sats[i] under strategies[i], aims at
    dest_pos[i] and is delivered at a satellite that sees the station with
    index dest_stations[i]: one with a finite snap.edge_km entry, the length
    of the down link. Every step applies the per-hop rule to all live traces
    at once: delivery; a dead end at the hop cap max_hops (default
    4 * (sats_per_plane + planes)) or at a satellite with no neighbor; the
    neighbor of least _keys key, the lowest id among equals; a loop drop if
    that is the previous relay. Coincident nodes raise ValueError. A trace's
    legs are the snapshot's slot lengths. Memory grows with the hops taken,
    not with the hop cap. Returns the traces' Routes in batch order.
    """
    for s in strategies:
        if s not in (STRATEGY_CPI, STRATEGY_NFP):
            raise ValueError(f"unknown strategy {s!r}")
    if max_hops is None:
        max_hops = default_max_hops(snap)
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    tpl, pos = snap.template, snap.sat_positions
    src = np.asarray(src_sats, dtype=np.int64)
    n = src.size
    st = np.asarray(dest_stations, dtype=np.int64)
    end = np.zeros(n, dtype=np.int8)
    down_km = np.zeros(n)
    steps = [(np.arange(n), src, np.zeros(n))]
    # state of the live traces, compacted as traces end
    live, cur, prev = np.arange(n), src, np.full(n, -1)
    nfp = np.array([s == STRATEGY_NFP for s in strategies], dtype=bool)
    dest = np.asarray(dest_pos, dtype=float).reshape(n, 3)
    hops = 0
    while live.size:
        down = snap.edge_km[st, cur]
        at = down < np.inf
        down_km[live[at]] = down[at]
        go = ~at & (tpl.degree[cur] > 0) & (hops < max_hops)
        end[live[~at & ~go]] = _DEAD_END
        live, cur, prev, st, nfp, dest = (a[go] for a in (live, cur, prev, st, nfp, dest))
        if not live.size:
            break
        col = _keys(nfp, pos[cur], dest, pos[tpl.nbr[cur]], tpl.real[cur]).argmin(axis=1)
        nxt = tpl.nbr[cur, col]
        on = nxt != prev
        end[live[~on]] = _LOOP
        steps.append((live[on], nxt[on], snap.slot_lengths[cur[on], col[on]]))
        live, prev, cur, st, nfp, dest = (a[on] for a in (live, cur, nxt, st, nfp, dest))
        hops += 1
    return _routes(steps, end, down_km)


def trace_path(
    snap: Snapshot,
    strategy: str,
    src_sat: int,
    dest_station: int,
    max_hops: int | None = None,
    dest_pos: np.ndarray | None = None,
) -> Path:
    """Run one greedy trace from an ingress satellite toward the station with
    index dest_station.

    dest_pos overrides the destination coordinates, e.g. with the frozen
    header address; it defaults to the station's current inertial position.
    This is the batch-of-one case of trace_lockstep, whose rule it follows.
    """
    _check_indices("satellite", [src_sat], snap.sat_count)
    _check_indices("station", [dest_station], len(snap.stations))
    if dest_pos is None:
        dest_pos = snap.station_positions[dest_station]
    r = trace_lockstep(
        snap, [strategy], [src_sat], [dest_station], np.asarray(dest_pos, dtype=float), max_hops
    )
    status, _, reason = STATUSES[r.end[0]].partition(":")
    down = float(r.down_km[0]) if r.end[0] == _DELIVERED else None
    legs = tuple(r.legs[1:].tolist())
    return Path(tuple(r.sats.tolist()), legs, status, reason or None, down_km=down)


def decision_counts(degree: np.ndarray, paths: PathSet | Routes) -> list[int]:
    """The candidate count of every forwarding decision of a batch of traces
    (anything with sats, starts and end columns), trace by trace, each in hop
    order.

    A decision ranks every neighbor of its relay: its count is the relay's
    degree. A trace decides at each satellite it leaves, and at its last one
    too when dropped for a loop; delivery, a dead end and the hop cap are not
    decisions.
    """
    relay = np.ones(paths.sats.size, dtype=bool)
    relay[paths.starts[1:] - 1] = paths.end == _LOOP
    return degree[paths.sats[relay]].tolist()


# -- shortest-path baselines --------------------------------------------------


def _slot_weights(snap: Snapshot, weight: str) -> np.ndarray:
    """Weights laid out like the template's adjacency table; padding is inf."""
    if weight not in (WEIGHT_LATENCY, WEIGHT_UNIT):
        raise ValueError(f"unknown weight {weight!r}")
    if weight == WEIGHT_LATENCY:
        return snap.slot_lengths
    return np.where(snap.template.real, 1.0, np.inf)


def _distances(snap: Snapshot, w: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Distances over the satellite graph under the slot weights w (from
    _slot_weights), one row from each satellite of sources, by frontier
    relaxation to the fixed point.

    Each round relaxes only the out-edges of the nodes whose distance fell in
    the previous round. Weights are non-negative and rounding is monotone, so
    the fixed point is unique and any complete relaxation order reaches it.
    """
    nbr = snap.template.nbr
    n = snap.sat_count
    dist = np.full((sources.size, n), np.inf)
    flat = dist.reshape(-1)
    frontier = np.arange(sources.size) * n + sources
    flat[frontier] = 0.0
    # marks the next frontier once per node; np.unique would import numpy.ma
    mark = np.zeros(flat.size, dtype=bool)
    while frontier.size:
        node = frontier % n
        target = nbr[node]
        target += (frontier - node)[:, None]
        cand = w[node]
        cand += flat[frontier][:, None]
        fell = cand < flat[target]
        target = target[fell]
        np.minimum.at(flat, target, cand[fell])
        mark[target] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False
    return dist


def _walk_back(
    snap: Snapshot, w: np.ndarray, dist: np.ndarray, row: np.ndarray, src: np.ndarray,
    end: np.ndarray,
) -> Routes:
    """The shortest route of each (src[i], end[i]) pair over the distances
    dist[row[i]] from src[i], walked back from end[i] for all pairs in
    lockstep. At node v a step takes the first column j with dist[nbr[v, j]]
    + w[v, j] == dist[v], as neighbor rows ascend the lowest-id predecessor.
    Zero-length links can make two nodes each other's predecessor: a walk as
    long as the node count raises."""
    nbr, lengths = snap.template.nbr, snap.slot_lengths
    m = end.size
    steps = []
    live, cur = np.arange(m), end
    for _ in range(snap.sat_count):
        root = cur == src  # a route's first satellite: no link into it
        steps.append((live[root], cur[root], np.zeros(np.count_nonzero(root))))
        live, row, src, cur = (a[~root] for a in (live, row, src, cur))
        if not live.size:
            break
        fits = dist[row[:, None], nbr[cur]] + w[cur] == dist[row, cur][:, None]
        col = fits.argmax(axis=1)
        steps.append((live, cur, lengths[cur, col]))
        cur = nbr[cur, col]
    else:
        raise RuntimeError("path reconstruction exceeded the node count")
    # later steps first: each route reads from its root to its end
    return _routes(steps[::-1], np.zeros(m, dtype=np.int8), np.zeros(m))


def _baseline_routes(
    snap: Snapshot, weight: str, src: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, Routes]:
    """The indices of the reached (src[i], end[i]) satellite pairs, and their
    exact shortest routes.

    One distance pass covers the distinct sources, a row each. A pair is
    reached where its end's distance is finite, and its route walks back from
    there over the distances alone.
    """
    w = _slot_weights(snap, weight)
    mark = np.zeros(snap.sat_count, dtype=bool)
    mark[src] = True
    row = np.cumsum(mark)[src] - 1  # each pair's source row
    dist = _distances(snap, w, np.flatnonzero(mark))
    reached = np.flatnonzero(np.isfinite(dist[row, end]))
    return reached, _walk_back(snap, w, dist, row[reached], src[reached], end[reached])


def bellman_ford(snap: Snapshot, weight: str, src_sat: int, dst_sat: int) -> Path | None:
    """Exact shortest path between two satellites, or None if unreachable.

    Under the latency weight the cost is propagation delay; under the unit
    weight it is the hop count. Ties resolve to the lowest-id predecessor.
    This is the one-pair case of the batched baselines.
    """
    _check_indices("satellite", [src_sat, dst_sat], snap.sat_count)
    reached, r = _baseline_routes(snap, weight, np.array([src_sat]), np.array([dst_sat]))
    if not reached.size:
        return None
    return Path(tuple(r.sats.tolist()), tuple(r.legs[1:].tolist()), "delivered")


# -- station-to-station path sets ---------------------------------------------


@dataclass(frozen=True, eq=False)
class PathSet:
    """Equal-role paths between two stations at one stamp, in columns.

    Path i visits sats[starts[i]:starts[i + 1]] and ends with the code end[i],
    an index into STATUSES. Delivered paths and dropped greedy traces stand
    together in trace order. total_km and latency_ms count the edge links: the
    up-link always, the down-link of a delivered path. A set carries no
    names: its place in stamp_path_sets' order says whose paths it holds.
    """

    sats: np.ndarray
    starts: np.ndarray
    end: np.ndarray
    total_km: np.ndarray
    latency_ms: np.ndarray

    @cached_property
    def delivered(self) -> np.ndarray:
        return self.end == _DELIVERED

    @property
    def paths(self) -> np.ndarray:
        """The indices of the delivered paths."""
        return np.flatnonzero(self.delivered)

    @cached_property
    def hops(self) -> np.ndarray:
        return self.starts[1:] - self.starts[:-1] - 1

    @cached_property
    def vertices(self) -> np.ndarray:
        """The distinct satellites of the delivered paths, ascending."""
        mark = np.zeros(self.sats.max(initial=-1) + 1, dtype=bool)
        mark[self.sats[np.repeat(self.delivered, self.hops + 1)]] = True
        return np.flatnonzero(mark)


_STRATEGY_OF = {ALGO_MPLF_CPI: STRATEGY_CPI, ALGO_MPLF_NFP: STRATEGY_NFP}
_WEIGHT_OF = {ALGO_SP: WEIGHT_LATENCY, ALGO_LH: WEIGHT_UNIT}
# the columns of an empty set
_NO_PATHS = (np.zeros(0, np.int64), np.zeros(1, np.int64), np.zeros(0, np.int8), np.zeros(0),
             np.zeros(0))


def stamp_path_sets(
    snap: Snapshot,
    algorithms: Sequence[str],
    connections: Sequence[tuple[int, int]],
) -> list[PathSet]:
    """The path sets of every (source, destination) station index pair under
    every algorithm at one stamp, connection-major, algorithm-minor.

    Greedy algorithms trace once per source-associated satellite toward the
    destination's inertial position in the snapshot; all traces of the stamp
    run as one trace_lockstep batch in (connection, algorithm, ascending
    source satellite) order. Baselines compute one path per (source-associated,
    destination-associated) satellite pair; each runs one batch for all
    connections. A connection with an uncovered endpoint yields empty sets.
    Each batch sums its paths' legs once, then adds the edge links.
    """
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    _check_indices("station", [i for conn in connections for i in conn], len(snap.stations))
    sats, lengths = snap.edge_sats, snap.edge_lengths
    # the connections whose endpoints both see a satellite
    live = [(si, di) for si, di in connections if sats[si].size and sats[di].size]
    columns = {}
    greedy = [(si, di, algo) for si, di in live for algo in algorithms if algo in _STRATEGY_OF]
    if greedy:
        rules, srcs, dests, up = zip(*(
            (_STRATEGY_OF[algo], s, di, up)
            for si, di, algo in greedy
            for s, up in zip(sats[si].tolist(), lengths[si].tolist())
        ))
        r = trace_lockstep(snap, rules, srcs, dests, snap.station_positions[list(dests)])
        counts = [sats[si].size for si, _, _ in greedy]
        columns.update(zip(greedy, _path_columns(r, np.array(up), counts)))
    # the (source, end) satellite pairs of the live connections, shared by both baselines
    if live and any(a in _WEIGHT_OF for a in algorithms):
        src = np.concatenate([np.repeat(sats[si], sats[di].size) for si, di in live])
        end = np.concatenate([np.tile(sats[di], sats[si].size) for si, di in live])
        up = np.concatenate([np.repeat(lengths[si], sats[di].size) for si, di in live])
        down = np.concatenate([np.tile(lengths[di], sats[si].size) for si, di in live])
        bounds = np.cumsum([0] + [sats[si].size * sats[di].size for si, di in live])
    for algo in (a for a in algorithms if a in _WEIGHT_OF and live):
        hit, r = _baseline_routes(snap, _WEIGHT_OF[algo], src, end)
        counts = np.diff(np.searchsorted(hit, bounds)).tolist()
        cut = _path_columns(r._replace(down_km=down[hit]), up[hit], counts)
        columns.update(((si, di, algo), c) for (si, di), c in zip(live, cut))
    return [
        PathSet(*columns.get((si, di, algo), _NO_PATHS))
        for si, di in connections
        for algo in algorithms
    ]


def enumerate_paths(snap: Snapshot, algorithm: str, src_station: int, dst_station: int) -> PathSet:
    """All equal-role paths between the stations with indices src_station and
    dst_station under one algorithm.

    Greedy algorithms trace once per source-associated satellite (ascending
    id order). Baselines compute one path per (source-associated,
    destination-associated) satellite pair, so the set size is bounded by the
    product of the two association counts. An uncovered endpoint yields an
    empty set. This is the one-connection case of stamp_path_sets.
    """
    return stamp_path_sets(snap, [algorithm], [(src_station, dst_station)])[0]
