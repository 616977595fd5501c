"""Command-line entry point.

Subcommands:
  generate  constellation + topology artifacts (edge lists, direction
            histogram, node/link GeoJSON, crossing-link statistics)
  simulate  run the scenario and export path logs and metrics
  analyze   recompute metrics from an existing path log
  export    convert a path log to GeoJSON

Common flags: --scenario, --out; all but analyze take --format
{csv,geojson}; simulate also takes --parallel N, and analyze and export
take --paths.
The LEONET_OUT environment variable overrides the output directory (and
nothing else).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path as FsPath

from .exporters import (
    FORMAT_CSV,
    FORMAT_GEOJSON,
    FORMATS,
    export_result,
    paths_geojson,
    read_paths_csv,
    snapshot_links_geojson,
    snapshot_nodes_geojson,
    write_direction_histogram_csv,
    write_edges_csv,
    write_eisl_csv,
    write_metrics_csv,
    write_summary_csv,
)
from .harness import ExperimentResult, analyze_rows, run_experiment, snapshot_at
from .scenario import load_scenario
from .topology import DirectionHistogram, EislTracker

ENV_OUT = "LEONET_OUT"


def _out_dir(args: argparse.Namespace) -> FsPath:
    out = os.environ.get(ENV_OUT) or args.out
    if not out:
        raise SystemExit("an output directory is required (--out or LEONET_OUT)")
    p = FsPath(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _cmd_generate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    hist = DirectionHistogram()
    eisl = (
        None
        if scenario.eisl_l_h_km is None
        else EislTracker([scenario.eisl_l_h_km], scenario.time.step_s)
    )

    def stamps():
        # one snapshot per stamp, fed to every artifact while edges.csv is written
        snaps = map(snapshot_at(scenario), scenario.time.stamps())
        for i, snap in enumerate(snaps):
            hist.add(snap)
            if eisl is not None:
                eisl.add(snap)
            if i == 0 and args.format == FORMAT_GEOJSON:
                snapshot_nodes_geojson(snap, out / "nodes.geojson")
                snapshot_links_geojson(snap, out / "links.geojson")
            yield snap

    write_edges_csv(stamps(), out / "edges.csv")
    write_direction_histogram_csv(hist.result(), out / "direction_histogram.csv")
    if eisl is not None:
        write_eisl_csv(eisl.result(), out)
    return 0


def _report_failures(result: ExperimentResult) -> None:
    for t, msg in result.failures:
        print(f"stamp {t} failed: {msg}", file=sys.stderr)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    result = run_experiment(scenario, parallel=args.parallel)
    export_result(result, args.format, out)
    _report_failures(result)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    result = analyze_rows(scenario, read_paths_csv(FsPath(args.paths), scenario))
    write_metrics_csv(result.series, out / "metrics.csv")
    write_summary_csv(result.summaries, out / "summary.csv")
    _report_failures(result)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if args.format != FORMAT_GEOJSON:
        raise SystemExit("export converts a path log to geojson; use --format geojson")
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    log = read_paths_csv(FsPath(args.paths), scenario)
    paths_geojson(scenario, log, out / "paths.geojson")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leonet",
        description="LEO constellation network simulator and geographic router",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt: bool = True, parallel: bool = False) -> None:
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help=f"output directory (or set {ENV_OUT})")
        if fmt:
            p.add_argument("--format", choices=FORMATS, default=FORMAT_CSV)
        if parallel:
            p.add_argument("--parallel", type=int, default=1, help="worker processes")

    p_gen = sub.add_parser("generate", help="constellation and topology artifacts")
    common(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_sim = sub.add_parser("simulate", help="run the scenario end to end")
    common(p_sim, parallel=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ana = sub.add_parser("analyze", help="recompute metrics from a path log")
    common(p_ana, fmt=False)
    p_ana.add_argument("--paths", required=True, help="paths.csv from a previous run")
    p_ana.set_defaults(func=_cmd_analyze)

    p_exp = sub.add_parser("export", help="convert a path log to GeoJSON")
    common(p_exp)
    p_exp.add_argument("--paths", required=True, help="paths.csv from a previous run")
    p_exp.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
