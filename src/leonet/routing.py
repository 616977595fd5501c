"""Packet forwarding: geographic greedy strategies and shortest-path baselines.

The greedy strategies operate hop by hop on frozen destination coordinates:
the ingress node converts the destination's Earth-fixed position to the
inertial frame once, stamps it into the header, and every relay reuses that
address unchanged. A stamp's traces are instantaneous, so block_path_sets
aims them at Snapshot.station_positions: bit for bit the address that
ler_encapsulate derives from a location table refreshed at that stamp.
Two per-hop rules are provided: pick the neighbor whose direction best
aligns with the destination bearing (closest pointing, "cpi"), or the
neighbor closest to the destination in space (nearest position, "nfp").
Neither rule requires progress; a relay that would hand the packet straight
back drops it instead, and a relay with no neighbors drops it as a dead end.

All greedy traces of a block of stamps, over every stamp, connection,
source satellite and rule, run in one lockstep kernel (trace_lockstep), the
only implementation of the per-hop rule: each step advances every live trace
by one hop, ranking the padded neighbor rows of the template's adjacency
table together, each trace at its own stamp's positions. The stamps share
the template, so a batch costs about the hops its traces take, not a numpy
call per stamp and step. block_path_sets routes a block; stamp_path_sets is
its block of one, and trace_path the kernel's batch of one. The candidate
count of every decision follows from the traced paths (decision_counts).

Baselines are exact shortest paths over the satellite graph under a latency
or unit (hop) weight, one per (source, end) satellite pair; bellman_ford is
the one-pair case. Each stamp of a block routes both baselines' pairs in one
batch of its own. Its distances, one row per distinct (weight, source), fill
one table in one frontier relaxation over the template's adjacency, each row
under its own weight. On a Walker grid (IslTemplate.shape), which every shift
maps onto itself, the pass relaxes satellite 0's hop row alone and shifts it
to each hop source (_shifted_rows). Routing keeps no state across stamps. Every
route then walks back from its end in lockstep, each step taking the
lowest-id neighbor whose distance plus link weight is the node's own.

Stations are indices into the snapshot's stations, satellites flat ids; no
function here takes a name. trace_lockstep, trace_path, bellman_ford,
block_path_sets, stamp_path_sets and enumerate_paths raise IndexError on an
index out of range.

Paths stay in columns from the kernels to the path log: a PathSet holds its
paths' satellites end to end with per-path offsets, end codes and totals, and
join_path_sets joins a block's sets into one for its stats and log rows.
trace_path and bellman_ford return a single Path, row 0 of a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property, reduce
from operator import add
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .geometry import ecef_to_eci, eci_to_ecef, link_latency_ms
from .topology import Snapshot, edge_rows

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
WEIGHTS = (WEIGHT_LATENCY, WEIGHT_UNIT)  # a weight's code is its index


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
    cpi: int, here: np.ndarray, dest: np.ndarray, cand: np.ndarray, real: np.ndarray
) -> np.ndarray:
    """Ranking key of every candidate slot of a decision batch; lowest wins.

    Row i decides at here[i] for the destination dest[i] among the candidate
    positions cand[i], whose ids ascend along the row; real[i] marks the
    slots that hold a neighbor. The first cpi rows follow the closest
    pointing rule, the rest the nearest-position rule, so each rule computes
    on a slice. A padding slot's key is infinite, so argmin along a row,
    which takes the first of equal keys, picks the lowest id.

    The array forms keep every key bit-identical to the arithmetic of a
    single decision (1-D np.linalg.norm, `rel @ bearing`): sqrt of vecdot
    for the bearing norm, norm along the last axis for the candidate norms,
    stacked matmul for the cosine numerator. einsum and sum(x * x) differ in
    the last ulp. So does the numerator of a row with one candidate (a
    one-row `rel @ bearing` is a dot product), which cannot change its pick.
    """
    key = np.empty(real.shape)
    if cpi:
        rel = cand[:cpi] - here[:cpi, None]
        bearing = dest[:cpi] - here[:cpi]
        bn = np.sqrt(np.vecdot(bearing, bearing))
        rn = np.linalg.norm(rel, axis=-1)
        real_cpi = real[:cpi]
        if np.any(bn == 0.0) or np.any(rn[real_cpi] == 0.0):
            raise ValueError("coincident nodes leave the bearing undefined")
        rn[~real_cpi] = 1.0  # a padding slot repeats the relay itself
        key[:cpi] = -(np.matmul(rel, bearing[:, :, None])[..., 0] / (rn * bn[:, None]))
    if cpi < key.shape[0]:
        key[cpi:] = np.linalg.norm(cand[cpi:] - dest[cpi:, None], axis=-1)
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
        # left to right, as _path_columns sums: Python's sum of floats is
        # compensated from 3.12 on
        return float(reduce(add, self.isl_lengths_km, 0.0))

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
    time: as x + 0.0 == x, the left-to-right sum Path.isl_km gives."""
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
    snaps: Snapshot | Sequence[Snapshot],
    strategies: Sequence[str],
    src_sats: Sequence[int] | np.ndarray,
    dest_stations: Sequence[int] | np.ndarray,
    dest_pos: np.ndarray,
    max_hops: int | None = None,
    stamp: Sequence[int] | np.ndarray | None = None,
) -> Routes:
    """Run a batch of greedy traces side by side, one hop per step.

    The traces may belong to several snapshots of one template, a block of
    stamps: trace i runs in snaps[stamp[i]] (stamp defaults to all zeros,
    and a lone Snapshot is a block of one). It leaves satellite src_sats[i]
    under strategies[i], aims at dest_pos[i] and is delivered at a satellite
    that sees the station with index dest_stations[i]: one with a finite
    edge_km entry in its snapshot, the length of the down link. Every step
    applies the per-hop rule to all live traces at once: delivery; a dead end
    at the hop cap max_hops (default 4 * (sats_per_plane + planes)) or at a
    satellite with no neighbor; the neighbor of least _keys key, the lowest id
    among equals; a loop drop if that is the previous relay. Coincident nodes
    raise ValueError. A trace's positions and legs are its snapshot's. Memory
    grows with the hops taken, not with the hop cap: of the per-stamp tables
    the batch stacks only the positions and the destinations' edge_km rows
    (built from the edge links, edge_rows), and legs are read after the last
    step, each snapshot measuring only the links its traces took
    (Snapshot.link_lengths). The live rows are ordered
    by rule once, closest pointing first and stably, and the closest-pointing
    count is carried through each compaction, so _keys ranks each rule on a
    slice. Returns the traces' Routes in batch order.
    """
    for s in strategies:
        if s not in (STRATEGY_CPI, STRATEGY_NFP):
            raise ValueError(f"unknown strategy {s!r}")
    snaps = [snaps] if isinstance(snaps, Snapshot) else list(snaps)
    tpl = snaps[0].template
    if any(s.template is not tpl for s in snaps):
        raise ValueError("the snapshots of a batch must share one template")
    if max_hops is None:
        max_hops = default_max_hops(snaps[0])
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    src = np.asarray(src_sats, dtype=np.int64)
    st = np.asarray(dest_stations, dtype=np.int64)
    n, sats = src.size, tpl.sat_count
    kk = np.zeros(n, np.int64) if stamp is None else np.asarray(stamp, dtype=np.int64)
    g = max(len(s.stations) for s in snaps)
    for what, index, count in (("satellite", src, sats), ("station", st, g),
                               ("stamp", kk, len(snaps))):
        if n and not 0 <= index.min() <= index.max() < count:
            raise IndexError(f"{what} index outside 0..{count - 1}")
    # the positions of all stamps, satellite v of stamp k at k * P + v
    pos = np.concatenate([s.sat_positions for s in snaps])
    stride = snaps[0].sat_positions.shape[0]
    # one edge_km row per distinct (stamp, destination station), at er
    key = kk * g + st
    mark = np.zeros(len(snaps) * g, dtype=bool)
    mark[key] = True
    keys = np.flatnonzero(mark)
    row_of = np.empty(mark.size, dtype=np.int64)
    row_of[keys] = np.arange(keys.size) * sats
    ends = [(snaps[k], i) for k, i in zip(*np.divmod(keys, g))]
    edge = edge_rows([s.edge_sats[i] for s, i in ends], [s.edge_lengths[i] for s, i in ends], sats)
    edge = edge.reshape(-1)
    # a trace that ends neither delivered nor looping is a dead end
    end = np.full(n, _DEAD_END, dtype=np.int8)
    down_km = np.zeros(n)
    has_nbr, nbr_flat, degree = tpl.degree > 0, tpl.nbr.reshape(-1), tpl.nbr.shape[1]
    moves = []  # per step: the traces that moved, to which satellite, by which slot
    # the live traces as rows (trace, satellite, previous relay, k * P, edge
    # row), CPI rows first, compacted as traces end
    nfp = np.array([s == STRATEGY_NFP for s in strategies], dtype=bool)
    live = np.argsort(nfp, kind="stable")
    cpi = n - np.count_nonzero(nfp)
    state = np.stack([live, src[live], np.full(n, -1), kk[live] * stride, row_of[key][live]])
    dest = np.asarray(dest_pos, dtype=float).reshape(n, 3)[live]
    hops = 0
    while state.shape[1]:
        live, cur, _, base, er = state
        down = edge[er + cur]
        at = down < np.inf
        hit = live[at]
        down_km[hit] = down[at]
        end[hit] = _DELIVERED
        go = ~at & has_nbr[cur] if hops < max_hops else np.zeros(cur.size, dtype=bool)
        cpi = np.count_nonzero(go[:cpi])
        state, dest = state[:, go], dest[go]
        live, cur, prev, base, er = state
        if not live.size:
            break
        cand = pos[base[:, None] + tpl.nbr[cur]]
        slot = cur * degree + _keys(cpi, pos[base + cur], dest, cand, tpl.real[cur]).argmin(axis=1)
        nxt = nbr_flat[slot]
        on = nxt != prev
        end[live[~on]] = _LOOP
        cpi = np.count_nonzero(on[:cpi])
        moves.append((live[on], nxt[on], slot[on]))
        state, dest = state[:, on], dest[on]
        state[2] = state[1]
        state[1] = moves[-1][1]
        hops += 1
    del pos, edge  # the stacked tables are not needed past the last step
    trace, to, slot = (
        np.concatenate([np.zeros(0, np.int64), *(m[j] for m in moves)]) for j in range(3)
    )
    # a move's leg is its slot's link in its trace's snapshot, link E (one past
    # the last) the padding slot's inf
    link, stamp_of = tpl.link.reshape(-1)[slot], kk[trace]
    legs = np.empty(trace.size)
    for k, s in enumerate(snaps):
        mine = stamp_of == k
        legs[mine] = s.link_lengths(link[mine])
    return _routes([(np.arange(n), src, np.zeros(n)), (trace, to, legs)], end, down_km)


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


def decision_counts(degree: np.ndarray, paths: PathSet | Routes) -> np.ndarray:
    """The candidate count of every forwarding decision of a batch of traces
    (anything with sats, starts and end columns), trace by trace, each in hop
    order, as an array of the smallest unsigned type that holds the highest
    degree (uint8 on every grid).

    A decision ranks every neighbor of its relay: its count is the relay's
    degree. A trace decides at each satellite it leaves, and at its last one
    too when dropped for a loop; delivery, a dead end and the hop cap are not
    decisions.
    """
    relay = np.ones(paths.sats.size, dtype=bool)
    relay[paths.starts[1:] - 1] = paths.end == _LOOP
    return degree[paths.sats[relay]].astype(np.min_scalar_type(degree.max(initial=0)))


# -- shortest-path baselines --------------------------------------------------


def _slot_weights(snap: Snapshot) -> np.ndarray:
    """The slot weights of every weight, stacked in WEIGHTS order, each laid
    out like the template's adjacency table: row k * S + v holds satellite
    v's slots under WEIGHTS[k]. Padding is inf."""
    return np.concatenate([snap.slot_lengths, np.where(snap.template.real, 1.0, np.inf)])


def _distances(
    snap: Snapshot, w: np.ndarray, kinds: np.ndarray, sources: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Distances over the satellite graph, row i from satellite sources[i]
    under the slot weights of WEIGHTS[kinds[i]] (w from _slot_weights), by
    frontier relaxation to the fixed point, into out (a C-contiguous rows x S
    table) or a new table.

    Each round relaxes only the out-edges of the nodes whose distance fell in
    the previous round. Weights are non-negative and rounding is monotone, so
    the fixed point is unique and any complete relaxation order reaches it. A
    row's rounds never read another row: it is the row a pass of its own gives.
    """
    nbr = snap.template.nbr
    n = snap.sat_count
    dist = np.empty((sources.size, n)) if out is None else out
    dist.fill(np.inf)
    flat = dist.reshape(-1)
    frontier = np.arange(sources.size) * n + sources
    flat[frontier] = 0.0
    base = kinds * n  # each row's first row of w
    # marks the next frontier once per node; np.unique would import numpy.ma
    mark = np.zeros(flat.size, dtype=bool)
    while frontier.size:
        row = frontier // n
        off = row * n
        node = frontier - off
        target = nbr[node]
        target += off[:, None]
        cand = w[base[row] + node]
        cand += flat[frontier][:, None]
        fell = cand < flat[target]
        target = target[fell]
        np.minimum.at(flat, target, cand[fell])
        mark[target] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False
    return dist


def _walk_back(
    snap: Snapshot, w: np.ndarray, dist: np.ndarray, kinds: np.ndarray, row: np.ndarray,
    src: np.ndarray, end: np.ndarray,
) -> Routes:
    """The shortest route of each (src[i], end[i]) pair over the distances
    dist[row[i]] from src[i] under WEIGHTS[kinds[row[i]]], walked back from
    end[i] for all pairs in lockstep. At node v a step takes the first column
    j with dist[nbr[v, j]] + w[v, j] == dist[v], as neighbor rows ascend the
    lowest-id predecessor. Zero-length links can make two nodes each other's
    predecessor: a walk as long as the node count raises."""
    nbr, lengths = snap.template.nbr, snap.slot_lengths
    m = end.size
    steps = []
    live, cur, base = np.arange(m), end, kinds[row] * snap.sat_count
    for _ in range(snap.sat_count):
        root = cur == src  # a route's first satellite: no link into it
        steps.append((live[root], cur[root], np.zeros(np.count_nonzero(root))))
        live, row, base, src, cur = (a[~root] for a in (live, row, base, src, cur))
        if not live.size:
            break
        fits = dist[row[:, None], nbr[cur]] + w[base + cur] == dist[row, cur][:, None]
        col = fits.argmax(axis=1)
        steps.append((live, cur, lengths[cur, col]))
        cur = nbr[cur, col]
    else:
        raise RuntimeError("path reconstruction exceeded the node count")
    # later steps first: each route reads from its root to its end
    return _routes(steps[::-1], np.zeros(m, dtype=np.int8), np.zeros(m))


def _shifted_rows(row: np.ndarray, shape: tuple[int, int], by: np.ndarray, out: np.ndarray) -> None:
    """out[i] = row, a distance row over a (planes, slots) grid, shifted by satellite
    by[i] = (dp, ds): out[i] at (p, s) is the row at (p - dp, s - ds), mod the grid.
    Each is a window of the row tiled twice each way."""
    planes, slots = shape
    tiled = np.tile(row.reshape(shape), (2, 2))
    dp, ds = np.divmod(by, slots)
    for r, p, s in zip(out.reshape(-1, planes, slots), dp.tolist(), ds.tolist()):
        r[...] = tiled[planes - p : 2 * planes - p, slots - s : 2 * slots - s]


def _baseline_routes(
    snap: Snapshot, weights: str | Sequence[str], src: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, Routes]:
    """The indices of the reached (src[i], end[i]) satellite pairs under each
    of weights (or the one weight named) in turn, and their exact shortest
    routes: index k * src.size + i is pair i under weights[k].

    One distance pass covers the distinct sources under each weight, a row
    each. On a grid template (IslTemplate.shape) it relaxes one hop row, from
    satellite 0, in place of them all, and every hop row is that row shifted
    to its source (_shifted_rows). A pair is reached where its end's distance
    is finite, and all routes walk back in one batch over the distances alone.
    """
    if isinstance(weights, str):
        weights = (weights,)
    for weight in weights:
        if weight not in WEIGHTS:
            raise ValueError(f"unknown weight {weight!r}")
    n, shape = snap.sat_count, snap.template.shape
    kind = np.repeat([WEIGHTS.index(x) for x in weights], src.size)
    src, end = np.tile(src, len(weights)), np.tile(end, len(weights))
    # a row's key is its weight's code * S + its source: hop rows are keys >= S
    key = kind * n + src
    mark = np.zeros(len(WEIGHTS) * n, dtype=bool)
    mark[key] = True
    keys = np.flatnonzero(mark)
    # on a grid the pass relaxes satellite 0's hop row, and the hop rows are read off it
    shifted = keys[keys >= n] if shape is not None else keys[:0]
    relax = np.append(keys[keys < n], n) if shifted.size else keys
    order = np.concatenate([relax, shifted])
    kinds, sources = np.divmod(order, n)
    w = _slot_weights(snap)
    dist = np.empty((order.size, n))
    _distances(snap, w, kinds[:relax.size], sources[:relax.size], out=dist[:relax.size])
    if shifted.size:
        _shifted_rows(dist[relax.size - 1], shape, shifted - n, out=dist[relax.size:])
    row_of = np.empty(mark.size, dtype=np.int64)
    row_of[order] = np.arange(order.size)
    row = row_of[key]  # each pair's row
    reached = np.flatnonzero(np.isfinite(dist[row, end]))
    routes = _walk_back(snap, w, dist, kinds, row[reached], src[reached], end[reached])
    return reached, routes


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
    The sets of a block, joined (join_path_sets), are one PathSet too.
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


_STRATEGY_OF = {ALGO_MPLF_CPI: STRATEGY_CPI, ALGO_MPLF_NFP: STRATEGY_NFP}
_WEIGHT_OF = {ALGO_SP: WEIGHT_LATENCY, ALGO_LH: WEIGHT_UNIT}
# the columns of an empty set
_NO_PATHS = (np.zeros(0, np.int64), np.zeros(1, np.int64), np.zeros(0, np.int8), np.zeros(0),
             np.zeros(0))


def join_path_sets(sets: Sequence[PathSet]) -> PathSet:
    """The paths of sets one set after another, in one PathSet: the columns
    of a block of sets, each set's paths in their order."""
    sats, _, end, total_km, latency_ms = _NO_PATHS
    lengths = np.concatenate([sats, *(ps.starts[1:] - ps.starts[:-1] for ps in sets)])
    return PathSet(
        np.concatenate([sats, *(ps.sats for ps in sets)]),
        np.concatenate(([0], np.cumsum(lengths))),
        *(np.concatenate([empty, *(getattr(ps, name) for ps in sets)])
          for name, empty in (("end", end), ("total_km", total_km), ("latency_ms", latency_ms))),
    )


def block_path_sets(
    snaps: Sequence[Snapshot],
    algorithms: Sequence[str],
    connections: Sequence[tuple[int, int]],
) -> list[list[PathSet]]:
    """The path sets of every (source, destination) station index pair under
    every algorithm at each stamp of a block of snapshots of one template:
    per snapshot, connection-major, algorithm-minor.

    Greedy algorithms trace once per source-associated satellite toward the
    destination's inertial position in its snapshot; all traces of the block
    run as one trace_lockstep batch in (stamp, connection, algorithm,
    ascending source satellite) order. Baselines compute one path per
    (source-associated, destination-associated) satellite pair; each stamp
    runs one batch for all its connections. A connection with an uncovered
    endpoint yields empty sets. Each batch sums its paths' legs once, then
    adds the edge links.
    """
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    for snap in snaps:
        _check_indices("station", [i for conn in connections for i in conn], len(snap.stations))
    # per stamp, the connections whose endpoints both see a satellite
    live = [
        [(si, di) for si, di in connections if snap.edge_sats[si].size and snap.edge_sats[di].size]
        for snap in snaps
    ]
    columns = {}
    greedy = [
        (k, si, di, algo)
        for k, conns in enumerate(live)
        for si, di in conns
        for algo in algorithms
        if algo in _STRATEGY_OF
    ]
    if greedy:
        k, si, di, algo = zip(*greedy)
        src = [snaps[q].edge_sats[i] for q, i in zip(k, si)]
        counts = [a.size for a in src]
        stamp, dest = np.repeat(k, counts), np.repeat(di, counts)
        rules = [_STRATEGY_OF[a] for a, c in zip(algo, counts) for _ in range(c)]
        points = np.stack([s.station_positions for s in snaps])[stamp, dest]
        r = trace_lockstep(snaps, rules, np.concatenate(src), dest, points, stamp=stamp)
        up = np.concatenate([snaps[q].edge_lengths[i] for q, i in zip(k, si)])
        columns.update(zip(greedy, _path_columns(r, up, counts)))
    baselines = [a for a in algorithms if a in _WEIGHT_OF]
    for q, (snap, conns) in enumerate(zip(snaps, live)):
        if conns and baselines:
            # the (source, end) satellite pairs of the live connections, routed
            # under every baseline's weight in one batch
            sats, lengths = snap.edge_sats, snap.edge_lengths
            src = np.concatenate([np.repeat(sats[si], sats[di].size) for si, di in conns])
            end = np.concatenate([np.tile(sats[di], sats[si].size) for si, di in conns])
            up = np.concatenate([np.repeat(lengths[si], sats[di].size) for si, di in conns])
            down = np.concatenate([np.tile(lengths[di], sats[si].size) for si, di in conns])
            n = len(baselines)
            bounds = np.cumsum([0] + [sats[si].size * sats[di].size for si, di in conns] * n)
            hit, r = _baseline_routes(snap, [_WEIGHT_OF[a] for a in baselines], src, end)
            counts = np.diff(np.searchsorted(hit, bounds)).tolist()
            r = r._replace(down_km=np.tile(down, n)[hit])
            cut = _path_columns(r, np.tile(up, n)[hit], counts)
            columns.update(zip(((q, si, di, a) for a in baselines for si, di in conns), cut))
    return [
        [
            PathSet(*columns.get((q, si, di, algo), _NO_PATHS))
            for si, di in connections
            for algo in algorithms
        ]
        for q in range(len(snaps))
    ]


def stamp_path_sets(
    snap: Snapshot,
    algorithms: Sequence[str],
    connections: Sequence[tuple[int, int]],
) -> list[PathSet]:
    """The path sets of every (source, destination) station index pair under
    every algorithm at one stamp, connection-major, algorithm-minor: the
    one-stamp case of block_path_sets."""
    return block_path_sets([snap], algorithms, connections)[0]


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
