"""Outside-in tracing of leonet: spans recorded around the public functions of
``leonet.*`` at their call sites, from the benchmark's own files.

Modules import each other's functions by name (``from .topology import
snapshot``), so a wrapper is installed on every ``leonet`` module attribute
that refers to the original function, and on the class for methods. Spans
stay in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable

BASELINE_ALGOS = ("sp", "lh")


def _algorithm(args: tuple, kwargs: dict) -> str:
    return kwargs.get("algorithm", args[1] if len(args) > 1 else "")


def _enumerate_layer(args: tuple, kwargs: dict) -> str:
    return "routing.baseline" if _algorithm(args, kwargs) in BASELINE_ALGOS else "routing.trace"


def _count_baseline_paths(counters: Counter, args: tuple, kwargs: dict, out) -> None:
    if _algorithm(args, kwargs) in BASELINE_ALGOS:
        counters["routing.baseline_paths"] += len(out.paths)


def _count_trace(counters: Counter, args: tuple, kwargs: dict, out) -> None:
    counters["routing.greedy_traces"] += 1
    counters["routing.greedy_hops"] += out.hops
    counters["routing.greedy_delivered"] += int(out.delivered)


def _count_eisl_pairs(counters: Counter, args: tuple, kwargs: dict, out) -> None:
    counters["topology.eisl_pairs"] += len(out)


# (module, attribute, layer or layer-of-arguments, result hook)
TARGETS: tuple[tuple[str, str, str | Callable, Callable | None], ...] = (
    ("leonet.cli", "main", "cli", None),
    ("leonet.scenario", "load_scenario", "scenario.load", None),
    ("leonet.harness", "run_experiment", "harness", None),
    ("leonet.harness", "analyze_rows", "harness", None),
    ("leonet.routing", "enumerate_paths", _enumerate_layer, _count_baseline_paths),
    ("leonet.routing", "trace_path", "routing.trace", _count_trace),
    ("leonet.routing", "ler_encapsulate", "routing.header", None),
    ("leonet.routing", "record_delivery", "routing.header", None),
    ("leonet.topology", "snapshot", "topology.snapshot", None),
    ("leonet.topology", "build_persistent_isls", "topology.template", None),
    ("leonet.topology", "detect_eisls", "topology.eisl", _count_eisl_pairs),
    ("leonet.topology", "eisl_statistics", "topology.eisl", None),
    ("leonet.topology", "direction_histogram", "topology.histogram", None),
    ("leonet.geometry", "eci_to_geodetic", "geometry.eci_to_geodetic", None),
    ("leonet.constellation", "build_walker", "constellation.build", None),
    ("leonet.constellation", "Constellation.positions_at", "constellation.propagate", None),
    ("leonet.constellation", "Constellation.velocities_at", "constellation.propagate", None),
    ("leonet.metrics", "make_stamp_stats", "metrics.stamp_stats", None),
    ("leonet.metrics", "summarize", "metrics.summarize", None),
    ("leonet.exporters", "export_result", "exporters.csv_write", None),
    ("leonet.exporters", "write_paths_csv", "exporters.csv_write", None),
    ("leonet.exporters", "write_metrics_csv", "exporters.csv_write", None),
    ("leonet.exporters", "write_summary_csv", "exporters.csv_write", None),
    ("leonet.exporters", "write_cdf_csv", "exporters.csv_write", None),
    ("leonet.exporters", "write_direction_histogram_csv", "exporters.csv_write", None),
    ("leonet.exporters", "write_eisl_csv", "exporters.csv_write", None),
    ("leonet.exporters", "write_edges_csv", "exporters.edges_csv", None),
    ("leonet.exporters", "paths_geojson", "exporters.paths_geojson", None),
    ("leonet.exporters", "snapshot_nodes_geojson", "exporters.snapshot_geojson", None),
    ("leonet.exporters", "snapshot_links_geojson", "exporters.snapshot_geojson", None),
    ("leonet.exporters", "read_paths_csv", "exporters.read_paths_csv", None),
)

LAYERS = tuple(
    dict.fromkeys(
        layer
        for _, _, named, _ in TARGETS
        for layer in (("routing.baseline", "routing.trace") if callable(named) else (named,))
    )
)


class Tracer:
    """In-memory span recorder. A span is [id, parent id, name, start, end]
    in perf_counter seconds; the parent of a root span is -1."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else -1, name, perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, layer: str | Callable, hook: Callable | None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            sid = len(spans)
            rec = [sid, stack[-1] if stack else -1, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, out)
            return out

        return traced

    def write_csv(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trace_id", "span_id", "parent_id", "name", "start_s", "end_s"])
            for sid, parent, name, start, end in self.spans:
                w.writerow([self.trace_id, sid, parent, name, f"{start:.9f}", f"{end:.9f}"])


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer, targets=TARGETS) -> Callable[[], None]:
    """Wrap every call site of each target; returns a function that undoes it."""
    restore: list[tuple[object, str, object]] = []
    for module, attr, layer, hook in targets:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapped = tracer.wrap(original, layer, hook)
        sites = [owner] if isinstance(owner, type) else [
            m for n, m in list(sys.modules.items()) if n == "leonet" or n.startswith("leonet.")
        ]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    restore.append((site, key, original))
                    setattr(site, key, wrapped)

    def uninstall() -> None:
        for site, key, original in reversed(restore):
            setattr(site, key, original)

    return uninstall


def self_times(spans: Iterable[list]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of its interval that
    the union of its child spans covers."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for sid, _, _, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def layer_summary(spans: list[list]) -> tuple[dict[str, float], Counter]:
    """Self seconds and span counts per layer name."""
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, _, name, _, _ in spans:
        seconds[name] += own[sid]
        calls[name] += 1
    return dict(seconds), calls
