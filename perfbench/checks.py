"""Output checks: artifact fingerprints and the checks that hold on any seed.

None of these checks calls leonet's routing code; the exact-baseline check
rebuilds each sampled snapshot through the public ``leonet.topology.snapshot``
and solves it with ``scipy.sparse.csgraph.dijkstra``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from datetime import datetime
from pathlib import Path

GREEDY_ALGOS = ("mplf-cpi", "mplf-nfp")
# paths.csv stores latency with six decimals; a recomputed value may differ by
# half a unit in the last place plus the rounding of the reference.
LATENCY_TOL_MS = 1.5e-6
# analyze recomputes metrics from those six-decimal latencies
ROW_TOL = 2.5e-6
SPEED_OF_LIGHT_KM_PER_S = 299792.458


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint_dir(out_dir: Path) -> dict[str, str]:
    """sha256 of every file an output directory holds, by file name."""
    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def fingerprint_mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """File names whose bytes differ, that are missing, or that are unexpected."""
    names = sorted(set(expected) | set(actual))
    return [n for n in names if expected.get(n) != actual.get(n)]


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _hops(row: dict[str, str]) -> list[int]:
    return [int(s) for s in row["hop_list"].split("-")]


def greedy_hops_off_template(paths_csv: Path, template_pairs) -> int:
    """Number of greedy hops in a path log that are not template edges."""
    edges = {(int(a), int(b)) for a, b in template_pairs}
    bad = 0
    for row in read_rows(paths_csv):
        if row["algorithm"] not in GREEDY_ALGOS:
            continue
        sats = _hops(row)
        bad += sum((min(a, b), max(a, b)) not in edges for a, b in zip(sats, sats[1:]))
    return bad


def baseline_errors(scenario, paths_csv: Path, seed: int, n_stamps: int = 3) -> list[str]:
    """Check sp latencies and lh hop counts on a few sampled stamps against an
    independent Dijkstra over the snapshot's public arrays."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from leonet.constellation import build_walker
    from leonet.topology import build_persistent_isls, snapshot

    rows = [r for r in read_rows(paths_csv) if r["algorithm"] in ("sp", "lh")]
    stamps = sorted({r["t"] for r in rows})
    if not stamps:
        return []
    picked = sorted(random.Random(f"baseline-check:{seed}").sample(stamps, min(n_stamps, len(stamps))))
    constellation = build_walker(scenario.constellation)
    template = build_persistent_isls(constellation, scenario.pattern)
    errors: list[str] = []
    for stamp in picked:
        t = datetime.fromisoformat(stamp)
        snap = snapshot(
            constellation, scenario.stations, scenario.pattern, t,
            scenario.elevation_min_deg, template=template,
        )
        n = snap.sat_count
        a, b = snap.isl_pairs[:, 0], snap.isl_pairs[:, 1]
        graph = csr_matrix(
            (np.concatenate([snap.isl_lengths, snap.isl_lengths]),
             (np.concatenate([a, b]), np.concatenate([b, a]))),
            shape=(n, n),
        )
        by_ei = {st.ei: i for i, st in enumerate(snap.stations)}
        for src_ei, dst_ei in {(r["src_station"], r["dst_station"]) for r in rows if r["t"] == stamp}:
            si, di = by_ei[src_ei], by_ei[dst_ei]
            up = dict(zip(snap.edge_sats[si].tolist(), snap.edge_lengths[si].tolist()))
            down = dict(zip(snap.edge_sats[di].tolist(), snap.edge_lengths[di].tolist()))
            sources = sorted(up)
            km = dijkstra(graph, indices=sources)
            hops = dijkstra(graph, indices=sources, unweighted=True)
            best_ms = min(
                (up[s1] + km[k, s2] + down[s2]) / SPEED_OF_LIGHT_KM_PER_S * 1000.0
                for k, s1 in enumerate(sources) for s2 in down
            )
            mine = [r for r in rows if r["t"] == stamp and (r["src_station"], r["dst_station"]) == (src_ei, dst_ei)]
            where = f"{stamp} {src_ei}->{dst_ei}"
            for r in mine:
                sats = _hops(r)
                k, end = sources.index(sats[0]), sats[-1]
                if r["algorithm"] == "sp":
                    want = (up[sats[0]] + km[k, end] + down[end]) / SPEED_OF_LIGHT_KM_PER_S * 1000.0
                    if abs(float(r["latency_ms"]) - want) > LATENCY_TOL_MS:
                        errors.append(f"sp {where}: {r['latency_ms']} ms, dijkstra {want:.6f} ms")
                elif int(r["hops"]) != hops[k, end]:
                    errors.append(f"lh {where}: {r['hops']} hops, unweighted minimum {hops[k, end]:.0f}")
            sp = [float(r["latency_ms"]) for r in mine if r["algorithm"] == "sp"]
            if math.isfinite(best_ms) and (not sp or abs(min(sp) - best_ms) > LATENCY_TOL_MS):
                errors.append(f"sp {where}: best {min(sp, default=math.inf)} ms, dijkstra {best_ms:.6f} ms")
    return errors


def _numeric_equal(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return abs(float(a) - float(b)) <= ROW_TOL
    except ValueError:
        return False


def compare_tables(simulated: Path, analyzed: Path) -> tuple[int, int]:
    """(rows that differ byte-wise, rows that differ beyond the log's precision)
    between a table simulate wrote and the same table analyze wrote."""
    sim = simulated.read_text().splitlines()
    ana = analyzed.read_text().splitlines()
    if len(sim) != len(ana):
        return max(len(sim), len(ana)), max(len(sim), len(ana))
    differing = beyond = 0
    for x, y in zip(sim, ana):
        if x == y:
            continue
        differing += 1
        fx, fy = next(csv.reader([x])), next(csv.reader([y]))
        if len(fx) != len(fy) or not all(_numeric_equal(p, q) for p, q in zip(fx, fy)):
            beyond += 1
    return differing, beyond
