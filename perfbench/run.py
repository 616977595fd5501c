"""leonet benchmark: seeded workloads, CLI-level timings, artifact checks and an
outside-in per-layer trace.

    python3 perfbench/run.py --workload static-baselines --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; leonet is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it give every metric with its quartiles and sample count, the checks, and the
environment. Work files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
FINGERPRINTS = HERE / "fingerprints.json"

SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60

# timed commands per workload; each pass runs them in this order
COMMANDS = {
    "static-baselines": ("simulate", "simulate_par2"),
    "mobile-greedy": ("simulate", "simulate_par2"),
    "replay-artifacts": ("generate", "export_geojson", "analyze"),
}
# the traced run is serial: spans in --parallel workers are lost
TRACED = {w: tuple(c for c in cmds if c != "simulate_par2") for w, cmds in COMMANDS.items()}
COMMAND_METRICS = ("simulate", "simulate_par2", "generate", "export_geojson", "analyze")


def cli_argv(cmd: str, scenario: Path, out: Path, log: Path | None) -> list[str]:
    common = ["--scenario", str(scenario), "--out", str(out)]
    return {
        "simulate": ["simulate", *common, "--format", "csv", "--parallel", "1"],
        "simulate_par2": ["simulate", *common, "--format", "csv", "--parallel", "2"],
        "generate": ["generate", *common, "--format", "geojson"],
        "export_geojson": ["export", *common, "--format", "geojson", "--paths", str(log)],
        "analyze": ["analyze", *common, "--paths", str(log)],
    }[cmd]


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "leonet").glob("*.py")):
        src_hash.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


class Results:
    """Taps leonet.cli.run_experiment for the duration of one command, to read
    the result object the CLI does not return (failures, decision stats)."""

    def __init__(self) -> None:
        self.last = None

    @contextmanager
    def tap(self):
        import leonet.cli

        inner = leonet.cli.run_experiment
        self.last = None

        def run_experiment(*args, **kwargs):
            self.last = inner(*args, **kwargs)
            return self.last

        leonet.cli.run_experiment = run_experiment
        try:
            yield self
        finally:
            leonet.cli.run_experiment = inner


def run_cli(results: Results, argv: list[str]) -> tuple[int, float]:
    """Run one leonet command in this process; returns (exit code, seconds)."""
    import leonet.cli

    gc.collect()
    with results.tap():
        t0 = time.perf_counter()
        try:
            rc = leonet.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        dt = time.perf_counter() - t0
    return rc, dt


def load_reference(workload: str, seed: int) -> dict | None:
    if not FINGERPRINTS.is_file():
        return None
    ref = json.loads(FINGERPRINTS.read_text())
    if ref.get("seed") != seed:
        return None
    return ref.get("workloads", {}).get(workload)


def probe(path: Path, workload: str, seed: int) -> int:
    """Set-up as a fresh leonet process pays it: import, generate, load."""
    import leonet.cli  # noqa: F401
    from leonet.scenario import load_scenario
    from workloads import scenario_json

    path.write_text(scenario_json(workload, seed))
    load_scenario(path)
    return 0


def setup_seconds(workdir: Path, workload: str, seed: int) -> list[float]:
    """Wall times of SETUP_PROBES fresh processes."""
    times = []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--probe", str(workdir / f"probe-{i}.json")]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Ledger:
    """Stamps attempted and failed, and every correctness problem seen."""

    def __init__(self, n_stamps: int) -> None:
        self.n_stamps = n_stamps
        self.attempted = 0
        self.failed = 0
        self.stamp_failures = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)
            print(f"MISMATCH {text}", flush=True)

    def command(self, cmd: str, rc: int, mismatched: list[str], result) -> None:
        self.attempted += self.n_stamps
        failures = len(result.failures) if result is not None else 0
        self.stamp_failures += failures
        if rc != 0:
            self.problem(f"{cmd}: exit code {rc}")
        for text in mismatched:
            self.problem(f"{cmd}: {text}")
        self.failed += self.n_stamps if rc != 0 or mismatched else failures


def main(argv: list[str] | None = None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprints", action="store_true",
                    help="store the first pass's artifact hashes as the reference")
    ap.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "leonet" / "__init__.py").is_file():
        print(f"perfbench: no leonet package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("LEONET_OUT", None)
    if args.probe is not None:
        return probe(args.probe, args.workload, args.seed)

    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    env = environment(args.seed)

    # -- set-up: import, generate, load ------------------------------------
    import leonet
    import leonet.cli  # noqa: F401
    from leonet.scenario import load_scenario

    from checks import baseline_errors, compare_tables, fingerprint_dir, \
        fingerprint_mismatches, greedy_hops_off_template, sha256_file
    from workloads import scenario_json

    if Path(leonet.__file__).resolve().parent != (SRC / "leonet").resolve():
        print(f"perfbench: imported leonet from {leonet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scenario_path = workdir / "scenario.json"
    scenario_path.write_text(scenario_json(args.workload, args.seed))
    scenario = load_scenario(scenario_path)
    setup_in_process_s = time.perf_counter() - _PROCESS_T0

    reference = load_reference(args.workload, args.seed)
    recorded: dict = {"scenario.json": sha256_file(scenario_path)}
    n_stamps = scenario.time.count
    ledger = Ledger(n_stamps)
    results = Results()
    if reference is not None and reference.get("scenario.json") != recorded["scenario.json"]:
        ledger.problem("scenario.json differs from the reference")

    def check_outputs(key: str, out: Path, serial: dict | None = None) -> tuple[dict, list[str]]:
        """Fingerprint an output dir against the reference, the first output
        of the same kind and, for --parallel 2, the serial output."""
        fp = fingerprint_dir(out)
        bad = []
        if reference is not None:
            bad += [f"{n} differs from the reference" for n in
                    fingerprint_mismatches(reference.get(key, {}), fp)]
        first = recorded.setdefault(key, fp)
        bad += [f"{n} differs from the first run" for n in fingerprint_mismatches(first, fp)]
        if serial is not None:
            bad += [f"{n} differs between serial and --parallel 2" for n in
                    fingerprint_mismatches(serial, fp)]
        return fp, bad

    # -- replay-artifacts reads a log produced before timing ------------------
    log = None
    if args.workload == "replay-artifacts":
        serial_fp = None
        for cmd in ("simulate", "simulate_par2"):
            out = workdir / f"log-{cmd}"
            rc, _ = run_cli(results, cli_argv(cmd, scenario_path, out, None))
            fp, bad = check_outputs("log", out, serial_fp)
            serial_fp = serial_fp or fp
            ledger.command(f"log {cmd}", rc, bad, results.last)
        log = workdir / "log-simulate" / "paths.csv"

    # -- timed passes, tracing off --------------------------------------------
    commands = COMMANDS[args.workload]
    samples: dict[str, list[float]] = {c: [] for c in commands}
    passes: list[float] = []
    candidates: dict[str, int] = {}
    t_start = time.perf_counter()
    while True:
        pass_s = 0.0
        fps: dict[str, dict] = {}
        for cmd in commands:
            out = workdir / "out" / cmd
            shutil.rmtree(out, ignore_errors=True)
            rc, dt = run_cli(results, cli_argv(cmd, scenario_path, out, log))
            samples[cmd].append(dt)
            pass_s += dt
            key = "simulate" if cmd == "simulate_par2" else cmd
            fps[cmd], bad = check_outputs(key, out, fps.get("simulate") if key != cmd else None)
            ledger.command(cmd, rc, bad, results.last)
            if results.last is not None:
                candidates[cmd] = sum(results.last.decision_stats.comparisons)
        passes.append(pass_s)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(passes) > args.seconds:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (self_kb + child_kb) / 1024.0

    if args.record_fingerprints:
        ref = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
        if ref.get("seed") != args.seed:
            ref = {"seed": args.seed, "workloads": {}}
        ref["workloads"][args.workload] = recorded
        FINGERPRINTS.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")

    # -- checks that hold on any seed -----------------------------------------
    checks: dict = {}
    if log is None:
        log = workdir / "out" / "simulate" / "paths.csv"
        analyzed = workdir / "check-analyze"
        rc, _ = run_cli(results, cli_argv("analyze", scenario_path, analyzed, log))
        if rc != 0:
            ledger.problem(f"analyze of the simulate log: exit code {rc}")
    else:
        analyzed = workdir / "out" / "analyze"
    simulated = log.parent
    # analyze reads latencies the log stores at six decimals, so a row may
    # differ in its last digit (a known defect, reported); beyond that it fails
    differing: dict[str, int] = {}
    for table in ("metrics.csv", "summary.csv"):
        differing[table], beyond = compare_tables(simulated / table, analyzed / table)
        checks[f"analyze_{table}_rows_differing"] = differing[table]
        checks[f"analyze_{table}_rows_beyond_log_precision"] = beyond
        if beyond:
            ledger.problem(f"{table}: {beyond} analyze rows differ beyond the log's precision")

    from leonet.constellation import build_walker
    from leonet.topology import build_persistent_isls

    template = build_persistent_isls(build_walker(scenario.constellation), scenario.pattern)
    off = greedy_hops_off_template(log, template.pairs)
    checks["greedy_hops_off_template"] = off
    if off:
        ledger.problem(f"paths.csv: {off} greedy hops are not template edges")
    if {"sp", "lh"} & set(scenario.algorithms):
        errors = baseline_errors(scenario, log, args.seed)[:10]
        checks["baselines_vs_dijkstra"] = errors or "ok"
        for e in errors:
            ledger.problem(f"baseline: {e}")

    setup_probes = setup_seconds(workdir, args.workload, args.seed)

    # -- traced run ------------------------------------------------------------
    layer_metrics: dict[str, tuple[float, str]] = {}
    trace_info: dict = {}
    if args.trace:
        layer_metrics, trace_info = traced_run(args, workdir, scenario_path, log, results,
                                               samples, candidates)

    # -- report ----------------------------------------------------------------
    timings = {c: quartiles(v) for c, v in samples.items()}
    timings["pass"] = quartiles(passes)
    timings["setup"] = quartiles(setup_probes)
    end_to_end = {
        "setup_s": (timings["setup"]["median"], "s"),
        "wall_s": (timings["pass"]["median"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if args.trace:
        med = {c: timings[c]["median"] if c in timings else 0.0 for c in COMMAND_METRICS}
        layer_metrics.update({f"{c}_s": (med[c], "s") for c in COMMAND_METRICS})
        layer_metrics.update({
            "fail_ratio": (ledger.failed / ledger.attempted, "ratio"),
            "harness.parallel_efficiency": (
                med["simulate"] / (2.0 * med["simulate_par2"]) if med["simulate_par2"] else 0.0,
                "ratio"),
            "harness.stamp_failures": (float(ledger.stamp_failures), "count"),
            "harness.analyze_rows_differing": (float(differing["metrics.csv"]), "count"),
            "harness.analyze_summary_rows_differing": (float(differing["summary.csv"]), "count"),
            "routing.candidates_par2": (float(candidates.get("simulate_par2", 0)), "count"),
        })
    metrics = layer_metrics if args.trace else end_to_end
    correct = not ledger.problems and ledger.failed == 0

    for cmd, q in timings.items():
        print(f"{args.workload:17s} {cmd + '_s':20s} median {q['median']:.4f} s  "
              f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n {q['n']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:17s} {name:34s} {value:.6g} {unit}")
    print(f"{args.workload:17s} fail_ratio {ledger.failed}/{ledger.attempted} stamps, "
          f"correct {correct}")
    report = {
        "workload": args.workload,
        "environment": env,
        "timings": timings,
        "setup_in_process_s": setup_in_process_s,
        "peak_rss_mb": peak_rss_mb,
        "stamps_per_command": n_stamps,
        "fail_ratio": ledger.failed / ledger.attempted,
        "reference_fingerprints": reference is not None,
        "checks": checks,
        "known_defects": {
            "routing.candidates": candidates.get("simulate", 0),
            "routing.candidates_par2": candidates.get("simulate_par2", 0),
            "harness.analyze_rows_differing": differing["metrics.csv"],
            "harness.analyze_summary_rows_differing": differing["summary.csv"],
        },
        "problems": ledger.problems,
        "trace": trace_info,
    }
    (workdir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(workdir / "out", ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


def traced_run(args, workdir: Path, scenario_path: Path, log: Path, results: Results,
               samples: dict[str, list[float]], candidates: dict[str, int]):
    """One serial pass with spans around every public leonet call site."""
    from spans import LAYERS, Tracer, install, layer_summary

    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
    uninstall = install(tracer)
    traced_cmds = TRACED[args.workload]
    walls: dict[str, float] = {}
    bytes_written = 0
    try:
        for cmd in traced_cmds:
            out = workdir / "traced" / cmd
            shutil.rmtree(out, ignore_errors=True)
            rc, dt = run_cli(results, cli_argv(cmd, scenario_path, out, log))
            walls[cmd] = dt
            bytes_written += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
            if cmd == "simulate" and results.last is not None:
                candidates["simulate"] = sum(results.last.decision_stats.comparisons)
    finally:
        uninstall()
    tracer.write_csv(WORK / f"trace-{args.workload}.csv")

    seconds, calls = layer_summary(tracer.spans)
    c = tracer.counters
    roots = sum(end - start for _, parent, _, start, end in tracer.spans if parent < 0)
    untraced = sum(statistics.median(samples[cmd]) for cmd in traced_cmds)
    traced = sum(walls.values())
    metrics: dict[str, tuple[float, str]] = {
        f"{layer}_s": (seconds.get(layer, 0.0), "s") for layer in LAYERS if layer != "harness"
    }
    metrics["cli.self_s"] = metrics.pop("cli_s")
    metrics["harness.self_s"] = (seconds.get("harness", 0.0), "s")
    metrics.update({
        "routing.baseline_calls": (float(calls["routing.baseline"]), "count"),
        "routing.baseline_paths": (float(c["routing.baseline_paths"]), "count"),
        "routing.greedy_traces": (float(c["routing.greedy_traces"]), "count"),
        "routing.greedy_hops": (float(c["routing.greedy_hops"]), "count"),
        "routing.greedy_delivered_ratio": (
            c["routing.greedy_delivered"] / c["routing.greedy_traces"]
            if c["routing.greedy_traces"] else 0.0, "ratio"),
        "routing.candidates": (float(candidates.get("simulate", 0)), "count"),
        "topology.snapshot_calls": (float(calls["topology.snapshot"]), "count"),
        "topology.eisl_pairs": (float(c["topology.eisl_pairs"]), "count"),
        "geometry.eci_to_geodetic_calls": (float(calls["geometry.eci_to_geodetic"]), "count"),
        "constellation.propagate_calls": (float(calls["constellation.propagate"]), "count"),
        "exporters.bytes_written": (float(bytes_written), "B"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.unaccounted_s": (abs(sum(seconds.values()) - roots), "s"),
    })
    info = {
        "spans": len(tracer.spans),
        "commands": {
            cmd: {"traced_s": walls[cmd], "untraced_median_s": statistics.median(samples[cmd])}
            for cmd in traced_cmds
        },
        "largest_self_time": max(seconds, key=seconds.get),
    }
    return metrics, info


if __name__ == "__main__":
    sys.exit(main())
