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

from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Protocol

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
    """

    pairs: np.ndarray  # (E, 2) int32
    kinds: np.ndarray  # (E,) int8, 0 = in-plane, 1 = cross-plane
    sat_count: int
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


def build_persistent_isls(constellation: Constellation, pattern: IslPattern) -> IslTemplate:
    """Enumerate the persistent link template for a shell and pattern.

    Raises ValueError on degenerate shells that would need self-links
    (one satellite per plane, or cross-plane bias 0 with a single plane).
    """
    cfg = constellation.config
    n, p = cfg.sats_per_plane, cfg.planes
    pairs: list[tuple[int, int]] = []
    kinds: list[int] = []

    def add(a: int, b: int, kind: int) -> None:
        if a == b:
            raise ValueError("degenerate shell produces a self-link")
        pairs.append((min(a, b), max(a, b)))
        kinds.append(kind)

    for plane in range(p):
        base = plane * n
        for slot in range(n):
            add(base + slot, base + (slot + 1) % n, 0)
    for bias in pattern.bias:
        for plane in range(p):
            east = (plane + 1) % p
            for slot in range(n):
                add(plane * n + slot, east * n + (slot + bias) % n, 1)

    arr = np.array(pairs, dtype=np.int32)
    kind_arr = np.array(kinds, dtype=np.int8)
    # canonical order + simple-graph dedup (keeps the first kind seen)
    uniq, first = np.unique(arr, axis=0, return_index=True)
    return IslTemplate(pairs=uniq, kinds=kind_arr[first], sat_count=cfg.total_sats)


class Snapshot:
    """Immutable-by-convention picture of the network at one stamp.

    Holds inertial satellite states, persistent link lengths, station
    positions, and the station-satellite edge links at the minimum elevation:
    edge_km[i, s] is the length of the link from station i to satellite s, inf
    where i does not see s; edge_sats[i] and edge_lengths[i] list the
    satellites station i sees, ascending, and their lengths. Transient
    crossing-mesh links are intentionally absent.
    """

    def __init__(
        self,
        t: datetime,
        constellation: Constellation,
        stations: tuple[Station, ...],
        template: IslTemplate,
        min_elevation_deg: float,
        *,
        sat_positions: np.ndarray | None = None,
        sat_velocities: np.ndarray | None = None,
        isl_lengths: np.ndarray | None = None,
    ) -> None:
        self.t = t
        self.constellation = constellation
        self.stations = stations
        self.template = template
        self.min_elevation_deg = float(min_elevation_deg)

        eis = [s.ei for s in stations]
        if len(set(eis)) != len(eis):
            raise ValueError("station EIs must be unique")

        pos = constellation.positions_at(t) if sat_positions is None else sat_positions
        vel = constellation.velocities_at(t) if sat_velocities is None else sat_velocities
        self.sat_positions = pos
        self.sat_velocities = vel
        self.isl_pairs = template.pairs
        self.isl_kinds = template.kinds
        if isl_lengths is None:
            diff = pos[template.pairs[:, 0]] - pos[template.pairs[:, 1]]
            isl_lengths = np.linalg.norm(diff, axis=1)
        self.isl_lengths = isl_lengths

        epoch = constellation.config.epoch
        self.station_geodetic = tuple(s.position_at(t) for s in stations)
        ecef = (
            np.stack([geodetic_to_ecef(g) for g in self.station_geodetic])
            if stations
            else np.zeros((0, 3))
        )
        self.station_ecef = ecef
        self.station_positions = (
            ecef_to_eci(ecef, t, epoch) if stations else np.zeros((0, 3))
        )

        # connect-all-visible edge links
        self.edge_km = np.full((len(stations), pos.shape[0]), np.inf)
        self.edge_sats, self.edge_lengths = [], []
        for i, g in enumerate(self.station_positions):
            vis = np.flatnonzero(np.asarray(elevation_angle(g, pos)) >= self.min_elevation_deg)
            self.edge_km[i, vis] = lengths = np.linalg.norm(pos[vis] - g, axis=1)
            self.edge_sats.append(vis.astype(np.int32))
            self.edge_lengths.append(lengths)

        # link lengths laid out like the template's adjacency table
        self.slot_lengths = np.append(isl_lengths, np.inf)[template.link]

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


def snapshot(
    constellation: Constellation,
    stations: Iterable[Station],
    pattern: IslPattern,
    t: datetime,
    min_elevation_deg: float,
    template: IslTemplate | None = None,
) -> Snapshot:
    """Assemble the network snapshot at stamp t.

    The persistent template may be passed in to amortize its construction
    across stamps; it is rebuilt from the pattern otherwise.
    """
    if template is None:
        template = build_persistent_isls(constellation, pattern)
    return Snapshot(t, constellation, tuple(stations), template, min_elevation_deg)


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
    supplied lengths: one per link, finite and non-negative (else ValueError).
    """
    template = IslTemplate(
        pairs=np.asarray(pairs, dtype=np.int32),
        kinds=np.asarray(kinds, dtype=np.int8),
        sat_count=constellation.sat_count,
    )
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=float)
        if lengths.shape != (len(template.pairs),):
            raise ValueError(f"lengths of shape {lengths.shape} for {len(template.pairs)} links")
        bad = np.flatnonzero(~(np.isfinite(lengths) & (lengths >= 0.0)))
        if bad.size:
            i, (a, b) = bad[0], template.pairs[bad[0]].tolist()
            raise ValueError(f"link {i} ({a}, {b}) has length {lengths[i]}, not finite and >= 0")
    return Snapshot(
        t,
        constellation,
        stations,
        template,
        min_elevation_deg,
        sat_positions=np.asarray(positions, dtype=float),
        sat_velocities=np.asarray(velocities, dtype=float),
        isl_lengths=None if lengths is None else np.asarray(lengths, dtype=float),
    )


def detect_eisls(snap: Snapshot, l_h_km: float) -> np.ndarray:
    """Transient crossing-mesh pairs at this stamp, canonical (a < b) rows in
    lexicographic order.

    A pair qualifies when its inertial distance is below the activation
    radius, the two satellites move with opposite vertical sense, and it is
    not persistently linked (IslTemplate.linked). Only ascending-descending
    pairs can qualify, so the ascending satellites are sorted on the axis of
    largest spread and each descending one is swept against the window within
    the radius on that axis; the predicates run on those candidates alone, the
    link test on the near ones, in O(S + candidates) memory.
    """
    if l_h_km <= 0:
        raise ValueError("activation radius must be positive")
    pos = snap.sat_positions
    vz = snap.sat_velocities[:, 2]
    up = np.flatnonzero(vz > 0.0)
    down = np.flatnonzero(vz < 0.0)
    axis = int(np.argmax(np.ptp(pos, axis=0)))
    up = up[np.argsort(pos[up, axis], kind="stable")]
    x, q = pos[up, axis], pos[down, axis]
    # the pad covers the rounding of the window ends
    reach = l_h_km + 1e-9 * (l_h_km + float(np.abs(pos[:, axis]).max()))
    lo = np.searchsorted(x, q - reach, side="left")
    width = np.searchsorted(x, q + reach, side="right") - lo
    n = int(width.sum())
    b = np.repeat(down, width)
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
