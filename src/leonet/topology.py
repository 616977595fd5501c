"""Network topology: persistent inter-satellite links, station edge links,
transient crossing-mesh link detection, and per-stamp snapshots.

Persistent links come in two families: in-plane rings (each satellite linked
to its neighbors in the same orbital plane) and cross-plane links to the east
neighbor plane at one or two slot biases. A single-bias pattern gives degree 4,
the double-bias pattern degree 6. Transient crossing-mesh links (between an
ascending and a descending satellite within an activation radius) are detected
for statistics only and never enter the routing graph.

A satellite is its flat id 0..S-1 (plane-major), a station its index
0..G-1 in the snapshot's station tuple, which is scenario order; names and
EIs are resolved before a snapshot is queried. Node ids (satellites 0..S-1,
stations S..S+G-1, station_node) appear only in exported link and node lists.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from datetime import datetime
from functools import cache, cached_property, partial
from itertools import pairwise
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .constellation import Constellation
from .geometry import (
    GeodeticPoint,
    ecef_to_eci,
    elevation_angle,
    geodetic_to_ecef,
    link_equator_angle,
)

GRID_PLUS = "+Grid"
GRID_STAR = "*Grid"

KIND_IISL = "iISL"
KIND_SISL = "sISL"
KIND_GSL = "GSL"
KIND_MSL = "MSL"

ISL_KIND_NAMES = (KIND_IISL, KIND_SISL)

# the most cells to a side of detect_eisls' grid: its start table holds at
# most (_EISL_CELLS + 3) ** 3 entries (2.4 MB) whatever the radius
_EISL_CELLS = 64


@dataclass(frozen=True)
class IslPattern:
    """Persistent-link pattern: grid kind plus cross-plane slot biases.

    The single-bias grid takes exactly one bias from {-1, 0}; the double-bias
    grid takes both.
    """

    grid: str
    bias: tuple[int, ...]

    def __post_init__(self) -> None:
        bias = tuple(sorted(set(self.bias)))
        object.__setattr__(self, "bias", bias)
        if not set(bias) <= {-1, 0}:
            raise ValueError(f"bias values {bias} outside {{-1, 0}}")
        if self.grid == GRID_PLUS:
            if len(bias) != 1:
                raise ValueError(f"{GRID_PLUS} takes exactly one bias, got {bias}")
        elif self.grid == GRID_STAR:
            if bias != (-1, 0):
                raise ValueError(f"{GRID_STAR} requires biases (-1, 0), got {bias}")
        else:
            raise ValueError(f"unknown grid kind {self.grid!r}")


class PositionProvider(Protocol):
    def position_at(self, t: datetime) -> GeodeticPoint: ...


@dataclass(frozen=True)
class FixedPosition:
    point: GeodeticPoint

    def position_at(self, t: datetime) -> GeodeticPoint:
        return self.point


@dataclass(frozen=True)
class Station:
    """An edge node: fixed ground station or mobile platform.

    The EI is the network-wide equipment identifier, unique per scenario.
    """

    name: str
    ei: str
    kind: str  # "ground" | "mobile"
    provider: PositionProvider

    def __post_init__(self) -> None:
        if self.kind not in ("ground", "mobile"):
            raise ValueError(f"unknown station kind {self.kind!r}")

    def position_at(self, t: datetime) -> GeodeticPoint:
        return self.provider.position_at(t)


@dataclass(frozen=True, eq=False)
class IslTemplate:
    """Time-invariant persistent-link edge list (canonical a < b, sorted) over
    sat_count satellites, with its adjacency built once.

    The adjacency is a padded table: row v of nbr lists the degree[v]
    neighbors of satellite v in ascending id order, and link[v, j] indexes
    pairs with the link to nbr[v, j]. Rows shorter than the highest degree
    are padded at the end with v itself and the link index E (the edge
    count), which a snapshot maps to an infinite length; real marks the
    slots that hold a link. linked answers, from that table, whether
    satellite pairs are persistently linked.

    shape is the (planes, sats_per_plane) of a Walker grid, which
    build_persistent_isls sets and other templates leave None. Every shift
    (p, s) -> (p + dp, s + ds), mod shape, maps a grid onto itself.
    """

    pairs: np.ndarray  # (E, 2) int32
    kinds: np.ndarray  # (E,) int8, 0 = in-plane, 1 = cross-plane
    sat_count: int
    shape: tuple[int, int] | None = None
    nbr: np.ndarray = field(init=False, repr=False)  # (S, D) int64
    link: np.ndarray = field(init=False, repr=False)  # (S, D) int64
    degree: np.ndarray = field(init=False, repr=False)  # (S,) int64
    real: np.ndarray = field(init=False, repr=False)  # (S, D) bool

    def __post_init__(self) -> None:
        pairs, n = self.pairs, self.sat_count
        if pairs.size and not (pairs.min() >= 0 and pairs.max() < n):
            raise ValueError(f"link endpoints outside satellites 0..{n - 1}")
        e = pairs.shape[0]
        src = np.concatenate([pairs[:, 0], pairs[:, 1]]).astype(np.int64)
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]]).astype(np.int64)
        order = np.lexsort((src, dst))
        src, dst = src[order], dst[order]
        deg = np.bincount(dst, minlength=n)
        col = np.arange(2 * e) - (np.cumsum(deg) - deg)[dst]
        width = max(int(deg.max(initial=0)), 1)
        nbr = np.repeat(np.arange(n, dtype=np.int64)[:, None], width, axis=1)
        nbr[dst, col] = src
        link = np.full((n, width), e, dtype=np.int64)
        link[dst, col] = np.tile(np.arange(e), 2)[order]
        object.__setattr__(self, "nbr", nbr)
        object.__setattr__(self, "link", link)
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "real", np.arange(width) < deg[:, None])

    def linked(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each (a[i], b[i]) is a persistent link, either way round."""
        return ((self.nbr[a] == b[:, None]) & self.real[a]).any(axis=1)

    @property
    def edge_count(self) -> int:
        return int(self.pairs.shape[0])


def self_link_parameter(sats_per_plane: int, planes: int, pattern: IslPattern) -> str | None:
    """The parameter, "N" or "bias", for which the pattern links a satellite
    to itself on a shell of planes x sats_per_plane, else None: a ring of one
    satellite closes on itself, and a bias-0 link from the only plane too."""
    if sats_per_plane == 1:
        return "N"
    return "bias" if planes == 1 and 0 in pattern.bias else None


def build_persistent_isls(constellation: Constellation, pattern: IslPattern) -> IslTemplate:
    """The persistent link template of a shell and pattern, with the shell's grid
    shape. ValueError where the pattern needs a self-link (self_link_parameter)."""
    cfg = constellation.config
    n, p = cfg.sats_per_plane, cfg.planes
    fault = self_link_parameter(n, p, pattern)
    if fault is not None:
        raise ValueError(f"degenerate shell produces a self-link ({fault})")
    sat = np.arange(n * p)
    plane, slot = np.divmod(sat, n)
    # the in-plane rings, then the cross-plane links of each bias
    ends = [plane * n + (slot + 1) % n]
    ends += [(plane + 1) % p * n + (slot + bias) % n for bias in pattern.bias]
    a, b = np.tile(sat, len(ends)), np.concatenate(ends)
    arr = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1).astype(np.int32)
    kinds = np.repeat(np.arange(len(ends)) > 0, n * p).astype(np.int8)
    # canonical order + simple-graph dedup (keeps the first kind seen)
    uniq, first = np.unique(arr, axis=0, return_index=True)
    return IslTemplate(pairs=uniq, kinds=kinds[first], sat_count=cfg.total_sats, shape=(p, n))


def _coarse_floor(sn: np.ndarray, gn: np.ndarray, sin_min: float) -> np.ndarray:
    """A floor on s . g for each (stamp, station) of a block, from the
    satellites' radii sn (K, S) and the stations' gn (K, G): at or below the
    exact prefilter's bound |g|^2 + (sin_min L - 1e-9 |s| - 1e-9 |g|) |g|
    (_edge_links) of every satellite of the stamp, rounding included. L is
    taken at the stamp's extreme |s|, and the margin is some 4,000 times the
    rounding of either side."""
    hi = sn.max(axis=1, initial=0.0)[:, None]
    lo = sn.min(axis=1, initial=np.inf)[:, None]
    reach = np.maximum(np.maximum(lo - gn, gn - hi), 0.0) if sin_min > 0.0 else hi + gn
    return gn * gn + (sin_min * reach - 1e-9 * hi - 1e-9 * gn) * gn - 1e-12 * (hi + gn) * gn


def _edge_links(
    pos: np.ndarray, ground: np.ndarray, min_elevation_deg: float
) -> list[tuple[list[np.ndarray], list[np.ndarray]]]:
    """Snapshot.edge_sats and edge_lengths at each stamp k of a block: the
    satellites at pos[k] (K, S, 3) that the stations at ground[k] (K, G, 3)
    see at or above the minimum elevation, and the links' lengths.

    A satellite s that station g sees at elevation e >= eps has
    (s - g) . g = sin(e) |s - g| |g|, and |s - g| lies between ||s| - |g||
    and |s| + |g|, so s . g - |g|^2 >= sin(eps) L |g|, L the first when
    sin(eps) > 0 and the second otherwise. That test, less a slack for
    rounding, is each pair's exact prefilter. One product ground[k] @ pos[k].T
    per stamp gives every s . g, a floor per (stamp, station) keeps coarse
    candidates (_coarse_floor), and the exact prefilter runs on those alone.
    elevation_angle decides on its survivors in one call for the block, each
    (stamp, station) an observer whose rel @ g product runs over exactly its
    own survivors: the rows, and so the bits, of a call for that station
    alone over its prefiltered satellites. They need not be the bits of a
    call over the whole shell, as a gemv's bits can depend on its row count;
    the decisions are tested against such a loop. A coincident satellite and
    a station at the Earth's centre always pass the prefilter, so the first
    (stamp, station) with either raises elevation_angle's ValueError.
    """
    stamps, count, width = pos.shape[0], pos.shape[1], ground.shape[1]  # K, S, G
    sin_min = float(np.sin(np.radians(min_elevation_deg)))
    sn, gn = np.linalg.norm(pos, axis=-1), np.linalg.norm(ground, axis=-1)
    # (stamp, station) k * G + i and satellite k * S + s of every coarse candidate
    rows, sats, rises = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for k, (g, p, f) in enumerate(zip(ground, pos, _coarse_floor(sn, gn, sin_min))):
        rise = g @ p.T
        gi, si = np.nonzero(rise >= f[:, None])
        rows.append(gi + k * width)
        sats.append(si + k * count)
        rises.append(rise[gi, si])
    row, sat, rise = (np.concatenate(c) for c in (rows, sats, rises))
    # the exact prefilter, each pair's arithmetic that of a station of its own
    snc, gnc = sn.reshape(-1)[sat], gn.reshape(-1)[row]
    reach = np.abs(snc - gnc) if sin_min > 0.0 else snc + gnc
    keep = rise - gnc * gnc >= (sin_min * reach - 1e-9 * snc - 1e-9 * gnc) * gnc
    row, sat = row[keep], sat[keep]
    pos, ground = pos.reshape(-1, 3), ground.reshape(-1, 3)
    el = elevation_angle(ground, pos[sat], np.bincount(row, minlength=stamps * width))
    row, sat = row[el >= min_elevation_deg], sat[el >= min_elevation_deg]
    lengths = np.linalg.norm(pos[sat] - ground[row], axis=1)
    cut = np.searchsorted(row, np.arange(stamps * width + 1)).tolist()
    sat = (sat % max(count, 1)).astype(np.int32)
    sat_of = [sat[a:b] for a, b in pairwise(cut)]
    km_of = [lengths[a:b] for a, b in pairwise(cut)]
    return [(sat_of[k * width : (k + 1) * width], km_of[k * width : (k + 1) * width])
            for k in range(stamps)]


def edge_rows(sats: Sequence[np.ndarray], lengths: Sequence[np.ndarray], count: int) -> np.ndarray:
    """Edge links as a table with count columns, one per satellite: row r
    holds lengths[r] at the satellites sats[r] and inf elsewhere."""
    rows = np.full((len(sats), count), np.inf)
    at = np.repeat(np.arange(len(sats)), [s.size for s in sats])
    rows[at, np.concatenate([np.zeros(0, np.int32), *sats])] = np.concatenate(
        [np.zeros(0), *lengths]
    )
    return rows


@dataclass(eq=False, repr=False, kw_only=True)
class Snapshot:
    """Immutable-by-convention picture of the network at one stamp, made only
    by snapshot and synthetic_snapshot, through the one block builder
    (_snapshots), whose values it stores.

    Holds inertial satellite states, persistent link lengths, station
    positions, and the station-satellite edge links at the minimum elevation
    (_edge_links): edge_sats[i] (int32) and edge_lengths[i] list the
    satellites station i sees, ascending, and their lengths. Tables derived
    from them are built on first read, as routing a block of stamps holds
    several snapshots at once: edge_km[i, s], the length of the link from
    station i to satellite s, inf where i does not see s (edge_rows). So are
    the velocities (sat_velocities), which only crossing-link
    detection reads: the first snapshot of a block to read them propagates
    the block's. Transient crossing-mesh links are intentionally absent.
    Persistent link lengths (isl_lengths, one per template link) are
    measured from the positions on first read, unless supplied, and
    link_lengths measures only the links it is asked for until then.
    """

    t: datetime
    constellation: Constellation
    stations: tuple[Station, ...]
    template: IslTemplate
    min_elevation_deg: float
    sat_positions: np.ndarray
    station_geodetic: tuple[GeodeticPoint, ...]
    station_ecef: np.ndarray
    station_positions: np.ndarray
    edge_sats: list[np.ndarray]
    edge_lengths: list[np.ndarray]
    _velocities: Callable[[], np.ndarray]  # the block's, all its rows
    _row: int  # the stamp's row of them
    lengths: InitVar[np.ndarray | None]  # isl_lengths, or None to measure them

    def __post_init__(self, lengths: np.ndarray | None) -> None:
        self.isl_pairs, self.isl_kinds = self.template.pairs, self.template.kinds
        if lengths is not None:
            self.isl_lengths = lengths

    @cached_property
    def sat_velocities(self) -> np.ndarray:
        """Inertial satellite velocities at t, row _row of its block's."""
        return self._velocities()[self._row]

    @cached_property
    def isl_lengths(self) -> np.ndarray:
        return self.link_lengths(np.arange(self.template.edge_count))

    def link_lengths(self, links: np.ndarray) -> np.ndarray:
        """The lengths of the template links links, inf at link E (the edge
        count, the adjacency table's padding): read from isl_lengths once it
        is built or supplied, else measured for these links alone, each by
        the per-row norm that builds isl_lengths."""
        known = self.__dict__.get("isl_lengths")
        if known is not None:
            return np.append(known, np.inf)[links]
        real = links < self.template.edge_count
        a, b = self.template.pairs[links[real]].T
        out = np.full(links.shape, np.inf)
        out[real] = np.linalg.norm(self.sat_positions[a] - self.sat_positions[b], axis=1)
        return out

    @cached_property
    def edge_km(self) -> np.ndarray:
        return edge_rows(self.edge_sats, self.edge_lengths, self.sat_positions.shape[0])

    # -- node id scheme -------------------------------------------------
    @property
    def sat_count(self) -> int:
        return self.constellation.sat_count

    def station_node(self, index: int) -> int:
        return self.sat_count + index

    # -- queries ---------------------------------------------------------
    def covered(self, index: int) -> bool:
        return self.edge_sats[index].size > 0

    def neighbors(self, sat: int) -> np.ndarray:
        """Ids of the satellites linked to sat, ascending."""
        return self.template.nbr[sat][self.template.real[sat]]


def _snapshots(
    constellation: Constellation,
    stations: tuple[Station, ...],
    template: IslTemplate,
    min_elevation_deg: float,
    stamps: list[datetime],
    positions: np.ndarray,
    velocities: Callable[[], np.ndarray],
    isl_lengths: np.ndarray | None = None,
) -> list[Snapshot]:
    """The snapshots of a block of stamps from the satellites' positions at
    each (K, S, 3) and their velocities, all K rows from one call on first
    read: station points converted to ECEF and rotated once per stamp, and
    the edge links of the block found in one pass (_edge_links). ValueError
    where two stations share an EI."""
    eis = [s.ei for s in stations]
    if len(set(eis)) != len(eis):
        raise ValueError("station EIs must be unique")
    geodetic = [tuple(s.position_at(t) for s in stations) for t in stamps]
    ecef = np.array([[geodetic_to_ecef(g) for g in points] for points in geodetic])
    ecef = ecef.reshape(len(stamps), len(stations), 3)
    epoch = constellation.config.epoch
    ground = np.array([ecef_to_eci(e, t, epoch) for t, e in zip(stamps, ecef)])
    links = _edge_links(positions, ground, min_elevation_deg)
    return [
        Snapshot(
            t=t, constellation=constellation, stations=stations, template=template,
            min_elevation_deg=float(min_elevation_deg), sat_positions=pos,
            station_geodetic=points, station_ecef=e, station_positions=g,
            edge_sats=sats, edge_lengths=km, _velocities=velocities, _row=k,
            lengths=isl_lengths,
        )
        for k, (t, pos, points, e, g, (sats, km)) in enumerate(
            zip(stamps, positions, geodetic, ecef, ground, links)
        )
    ]


def snapshot(
    constellation: Constellation,
    stations: Iterable[Station],
    pattern: IslPattern,
    t: datetime | Sequence[datetime],
    min_elevation_deg: float,
    template: IslTemplate | None = None,
) -> Snapshot | list[Snapshot]:
    """Assemble the network snapshot at stamp t, or the list of snapshots at
    each stamp of a block t; a lone stamp is a block of one.

    A block is propagated in one call (Constellation.positions_at, and
    velocities_at on first read of any snapshot's sat_velocities) and its
    edge links found in one pass (_snapshots), each snapshot bit for bit the
    one its stamp alone would give. The persistent template may be passed in
    to amortize its construction across stamps; it is rebuilt from the
    pattern otherwise.
    """
    if template is None:
        template = build_persistent_isls(constellation, pattern)
    stamps = [t] if isinstance(t, datetime) else list(t)
    snaps = _snapshots(
        constellation, tuple(stations), template, min_elevation_deg, stamps,
        constellation.positions_at(stamps), cache(partial(constellation.velocities_at, stamps)),
    )
    return snaps[0] if isinstance(t, datetime) else snaps


def synthetic_snapshot(
    t: datetime,
    constellation: Constellation,
    positions: np.ndarray,
    velocities: np.ndarray,
    pairs: np.ndarray,
    kinds: np.ndarray,
    lengths: np.ndarray | None = None,
    stations: tuple[Station, ...] = (),
    min_elevation_deg: float = 0.0,
) -> Snapshot:
    """Snapshot with caller-supplied states and (optionally) link lengths.

    Intended for analysis and tests where link weights are decoupled from
    geometry: positions drive forwarding and the station edge links, and
    every inter-satellite leg of a path, greedy or baseline, reads the
    supplied lengths: one per link, finite and non-negative, else ValueError
    naming the link (a negative weight would make the exact baselines relax
    forever). Its template has no grid shape, whatever the links.
    """
    template = IslTemplate(
        np.asarray(pairs, dtype=np.int32), np.asarray(kinds, dtype=np.int8), constellation.sat_count
    )
    km = None if lengths is None else np.asarray(lengths, dtype=float)
    if km is not None:
        if km.shape != (template.edge_count,):
            raise ValueError(f"isl_lengths of shape {km.shape} for {template.edge_count} links")
        bad = np.flatnonzero(~(np.isfinite(km) & (km >= 0.0)))
        if bad.size:
            i, (a, b) = bad[0], template.pairs[bad[0]].tolist()
            raise ValueError(f"link {i} ({a}, {b}) has length {km[i]}, not finite and >= 0")
    rows = np.asarray(velocities, dtype=float)[None]
    (snap,) = _snapshots(
        constellation, tuple(stations), template, min_elevation_deg, [t],
        np.asarray(positions, dtype=float)[None], lambda: rows, km,
    )
    return snap


def detect_eisls(snap: Snapshot, l_h_km: float) -> np.ndarray:
    """Transient crossing-mesh pairs at this stamp, canonical (a < b) rows in
    lexicographic order.

    A pair qualifies when its inertial distance is below the activation
    radius, the two satellites move with opposite vertical sense, and it is
    not persistently linked (IslTemplate.linked). Only ascending-descending
    pairs can qualify, and only within one cell of each other on a grid of
    cubic cells whose edge is at least the radius (padded for the rounding of
    the cell coordinates). The ascending satellites are ordered by cell and a
    start table (one bincount over the grid) gives each cell's run, so each
    descending satellite takes the 27 cells around its own as nine runs, one
    per column of three cells adjacent in that order. The predicates run on
    those candidates alone, the link test on the near ones, in O(S +
    candidates + grid) memory. The grid has at most _EISL_CELLS cells to a
    side (larger cells at tiny radii), so its table stays small and its keys
    far inside int64 whatever the radius.
    """
    if l_h_km <= 0:
        raise ValueError("activation radius must be positive")
    pos = snap.sat_positions
    vz = snap.sat_velocities[:, 2]
    up = np.flatnonzero(vz > 0.0)
    down = np.flatnonzero(vz < 0.0)
    low = pos.min(axis=0)
    reach = l_h_km + 1e-9 * (l_h_km + float(np.abs(pos).max()))
    edge = max(reach, float((pos.max(axis=0) - low).max()) / _EISL_CELLS)
    cell = ((pos - low) / edge).astype(np.int64) + 1  # an empty cell on each side
    dims = cell.max(axis=0) + 2
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    first = np.zeros(int(dims.prod()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key[up], minlength=first.size - 1), out=first[1:])
    up = up[np.argsort(key[up])]
    # the middle cell of each of the nine columns around a descending satellite
    columns = (np.arange(-1, 2)[:, None] * dims[1] + np.arange(-1, 2)).ravel() * dims[2]
    at = (key[down, None] + columns).ravel()
    lo = first[at - 1]
    width = first[at + 2] - lo
    n = int(width.sum())
    b = np.repeat(np.repeat(down, 9), width)
    a = up[np.arange(n) - np.repeat(np.cumsum(width) - width - lo, width)]

    keep = (np.sum((pos[a] - pos[b]) ** 2, axis=-1) < l_h_km * l_h_km) & (vz[a] * vz[b] < 0.0)
    a, b = a[keep], b[keep]
    free = ~snap.template.linked(a, b)
    s = pos.shape[0]
    keys = np.sort(np.minimum(a, b)[free] * s + np.maximum(a, b)[free])
    return np.stack([keys // s, keys % s], axis=1).astype(np.int32)


@dataclass(frozen=True)
class EislStats:
    """Per-stamp counts and episode durations for one activation radius."""

    per_stamp_counts: tuple[int, ...]
    episode_durations_s: tuple[float, ...]

    @property
    def episode_count(self) -> int:
        return len(self.episode_durations_s)


class EislTracker:
    """Crossing-mesh link counts and episodes, fed one snapshot at a time.

    An episode is a maximal run of consecutive stamps over which a given pair
    qualifies; its duration is run length times the step. Episodes still open
    at the final stamp are counted at their observed duration. Pairs are
    detected once per stamp at the largest radius and filtered for the others.
    """

    def __init__(self, l_h_values_km: Iterable[float], step_s: float) -> None:
        self.radii = sorted(set(float(v) for v in l_h_values_km))
        if not self.radii:
            raise ValueError("at least one activation radius is required")
        self.step_s = step_s
        self._counts: dict[float, list[int]] = {r: [] for r in self.radii}
        self._open: dict[float, dict[int, int]] = {r: {} for r in self.radii}
        self._durations: dict[float, list[float]] = {r: [] for r in self.radii}

    def add(self, snap: Snapshot) -> None:
        pairs = detect_eisls(snap, self.radii[-1])
        diff = snap.sat_positions[pairs[:, 0]] - snap.sat_positions[pairs[:, 1]]
        dist = np.linalg.norm(diff, axis=1)
        keys = pairs[:, 0].astype(np.int64) * snap.sat_count + pairs[:, 1]
        for r in self.radii:
            active = set(keys[dist < r].tolist())
            self._counts[r].append(len(active))
            runs = self._open[r]
            for k in list(runs):
                if k not in active:
                    self._durations[r].append(runs.pop(k) * self.step_s)
            for k in active:
                runs[k] = runs.get(k, 0) + 1

    def result(self) -> dict[float, EislStats]:
        out = {}
        for r in self.radii:
            durations = self._durations[r] + [v * self.step_s for v in self._open[r].values()]
            out[r] = EislStats(tuple(self._counts[r]), tuple(sorted(durations)))
        return out


def eisl_statistics(
    snapshots: Iterable[Snapshot], l_h_values_km: Iterable[float], step_s: float
) -> dict[float, EislStats]:
    """Track crossing-mesh link episodes over a snapshot sequence (EislTracker)."""
    tracker = EislTracker(l_h_values_km, step_s)
    for snap in snapshots:
        tracker.add(snap)
    return tracker.result()


class DirectionHistogram:
    """Distribution of persistent-link direction angles vs the equator, fed
    one snapshot at a time.

    Folds angles to [0, 90] degrees, bins at 1 degree, normalizes each stamp
    to unit mass, and averages the per-stamp histograms.
    """

    def __init__(self, kinds: tuple[str, ...] = ISL_KIND_NAMES) -> None:
        self._codes = [code for code, name in enumerate(ISL_KIND_NAMES) if name in kinds]
        if not self._codes:
            raise ValueError(f"no persistent link kinds selected from {kinds}")
        self._total = np.zeros(90)
        self._n = 0

    def add(self, snap: Snapshot) -> None:
        pairs = snap.isl_pairs[np.isin(snap.isl_kinds, self._codes)]
        if pairs.shape[0] == 0:
            raise ValueError("snapshot has no links of the selected kinds")
        vec = snap.sat_positions[pairs[:, 1]] - snap.sat_positions[pairs[:, 0]]
        ang = np.degrees(np.abs(link_equator_angle(vec)))
        hist, _ = np.histogram(ang, bins=90, range=(0.0, 90.0))
        self._total += hist / hist.sum()
        self._n += 1

    def result(self) -> np.ndarray:
        """90 bin fractions summing to 1."""
        if self._n == 0:
            raise ValueError("at least one snapshot is required")
        return self._total / self._n


def direction_histogram(
    snapshots: Iterable[Snapshot], kinds: tuple[str, ...] = ISL_KIND_NAMES
) -> np.ndarray:
    """Averaged per-stamp link-direction histogram (DirectionHistogram)."""
    hist = DirectionHistogram(kinds)
    for snap in snapshots:
        hist.add(snap)
    return hist.result()
