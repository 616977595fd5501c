"""End-to-end runner, exporters, log reanalysis, and the CLI.

A deliberately small shell keeps every case here under a second while still
delivering real paths on all four algorithms; only the decision-stats
checks (serial against parallel, and a run against its reanalysis) run a
shipped scenario.
"""

import copy
import csv
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
import weakref
from datetime import datetime, timedelta
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonet.cli import main
from leonet.constellation import ConstellationConfig, build_walker
from leonet.exporters import (
    export_result,
    paths_geojson,
    read_paths_csv,
    snapshot_links_geojson,
    snapshot_nodes_geojson,
    _f,
    _i,
    _t,
    write_direction_histogram_csv,
    write_edges_csv,
    write_paths_csv,
)
from leonet import harness
from leonet.harness import PathLog, PathLogError, analyze_rows, run_experiment
from leonet.metrics import path_evolution
from leonet.routing import ALGORITHMS, STATUSES, stamp_path_sets
from leonet.scenario import load_scenario, scenario_from_dict
from leonet.topology import ISL_KIND_NAMES, IslPattern, Snapshot, snapshot, synthetic_snapshot
from leonet.geometry import eci_to_geodetic, link_latency_ms, utc
from leonet import cli, exporters, geometry

from conftest import SCENARIO_DIR, log_rows

TINY = {
    "name": "tiny",
    "constellation": {
        "N": 8,
        "P": 8,
        "F": 0,
        "altitude_km": 550.0,
        "inclination_deg": 53.0,
        "epoch": "2025-01-01T00:00:00Z",
    },
    "pattern": {"grid": "+Grid", "bias": [0]},
    "time": {"start": "2025-01-01T01:00:00Z", "step_s": 10.0, "count": 4},
    "stations": [
        {"name": "a", "kind": "ground", "lat_deg": 45.0, "lon_deg": 10.0},
        {"name": "b", "kind": "ground", "lat_deg": -30.0, "lon_deg": 100.0},
    ],
    "connections": [["a", "b"]],
    "algorithms": ["mplf-cpi", "mplf-nfp", "sp", "lh"],
    "elevation_min_deg": 15.0,
    "eisl": {"L_h_km": 1500.0},
}


# Path-log cases edit the rows of a written log as CSV records (csv.DictReader)
# and read them back; a dict case sets fields of the second row.

# a delivered row rewritten to one hop between satellites that share no link
NON_LINK = {"hop_list": (4, 30), "hops": 1, "src_sat": 4}

# the second row of the tiny log, (4, 12, 20, 19, 27, 26) from a to b, changed
# so that its stations do not see its ends: a sees satellite 4 only, b sees
# 26 and 48; a dropped row may end anywhere, but must start where a sees
ATTACHMENT_CASES = [
    pytest.param(
        {"hop_list": (4, 12, 20, 19, 27), "hops": 4},
        "last hop 27 is not in view of b",
        id="unseen-end",
    ),
    pytest.param(
        {"hop_list": (12, 20, 19, 27, 26), "hops": 4, "src_sat": 12},
        "first hop 12 is not in view of a",
        id="unseen-start",
    ),
    pytest.param(
        {"hop_list": (12, 20), "hops": 1, "src_sat": 12, "status": "dropped:loop"},
        "first hop 12 is not in view of a",
        id="unseen-start-dropped",
    ),
]

# latencies no traced path has
LATENCY_CASES = [
    pytest.param(
        {"latency_ms": v}, f"latency_ms {v} is not finite and non-negative", id=f"latency-{v}"
    )
    for v in (float("nan"), float("inf"), -1.0)
]


def repeat_first(algorithm):
    """A case built from the log: its first row under algorithm, that row
    again, and the row after it."""

    def rows(log):
        i = next(i for i, r in enumerate(log) if r["algorithm"] == algorithm)
        return [log[i], log[i], log[i + 1]]

    return rows


def dropped_baseline(log):
    """A case built from the log: the first sp row logged as a loop drop,
    between the rows around it."""
    i = next(i for i, r in enumerate(log) if r["algorithm"] == "sp")
    return [log[i - 1], {**log[i], "status": "dropped:loop"}, log[i + 1]]


def second_row(fields):
    """A case built from the log: its first three rows, the second with the
    given fields, a hop tuple joined by '-' as the log writes it."""
    cells = {
        k: "-".join(map(str, v)) if isinstance(v, tuple) else str(v) for k, v in fields.items()
    }
    return lambda log: [log[0], {**log[1], **cells}, log[2]]


def edited_log(path, log, edit, scenario=None):
    """Write log to path as paths.csv, pass its records through edit, and
    write them back; returns path."""
    write_paths_csv(scenario or tiny_scenario(), log, path)
    with path.open(newline="") as fh:
        records = edit(list(csv.DictReader(fh)))
    with path.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=exporters._PATH_LOG)
        w.writeheader()
        w.writerows(records)
    return path


def failing_at(stamp):
    """harness.snapshot, raising RuntimeError('injected') when one stamp is
    the stamp or in the block of stamps asked for."""
    real_snapshot = harness.snapshot

    def flaky(constellation, stations, pattern, t, *args, **kwargs):
        if stamp in ([t] if isinstance(t, datetime) else t):
            raise RuntimeError("injected")
        return real_snapshot(constellation, stations, pattern, t, *args, **kwargs)

    return flaky


def tiny_scenario(**overrides):
    root = copy.deepcopy(TINY)
    root.update(overrides)
    return scenario_from_dict(root)


@st.composite
def small_scenarios(draw):
    """TINY with the shell size, ground stations, connections, algorithms and
    stamp count drawn, and the index of a stamp to fail."""
    root = copy.deepcopy(TINY)
    root["constellation"].update(N=draw(st.integers(4, 10)), P=draw(st.integers(4, 10)))
    points = st.tuples(st.floats(-60, 60), st.floats(-180, 180))
    root["stations"] = [
        {"name": f"g{i}", "kind": "ground", "lat_deg": lat, "lon_deg": lon}
        for i, (lat, lon) in enumerate(draw(st.lists(points, min_size=2, max_size=3)))
    ]
    names = [s["name"] for s in root["stations"]]
    pairs = [(a, b) for a in names for b in names if a != b]
    conns = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    root["connections"] = [list(c) for c in conns]
    root["algorithms"] = draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True))
    root["time"]["count"] = draw(st.integers(2, 4))
    return scenario_from_dict(root), draw(st.integers(0, root["time"]["count"] - 1))


def psis(result):
    """Each series' psi, stamp by stamp: the reachability of a run."""
    return [[st.psi for st in s.stamps] for s in result.series]


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(tiny_scenario())


class TestRunExperiment:
    def test_series_shape(self, tiny_result):
        res = tiny_result
        assert len(res.series) == 1 * 4  # connections x algorithms
        for s in res.series:
            assert len(s.stamps) == 4
        assert not res.failures

    def test_path_set_sizes_follow_coverage(self, tiny_result):
        res = tiny_result
        # station a sees one satellite, b sees two, at every stamp
        per_stamp = {"mplf-cpi": 1, "mplf-nfp": 1, "sp": 2, "lh": 2}
        algos = [harness._path_sets(tiny_scenario())[k][1] for k in res.path_log.path_set]
        for algo, want in per_stamp.items():
            assert algos.count(algo) == want * 4

    def test_row_statuses_use_reason_vocabulary(self, tiny_result, tmp_path):
        rows = edited_log(tmp_path / "paths.csv", tiny_result.path_log, list)
        with rows.open(newline="") as fh:
            for r in csv.DictReader(fh):
                assert r["status"] == "delivered" or r["status"].startswith("dropped:")
                hops = r["hop_list"].split("-")
                assert int(r["hops"]) == len(hops) - 1
                assert r["src_sat"] == hops[0]

    def test_records_only_for_covered_stamps(self, tiny_result):
        # every stamp covered, 4 algorithms: psi is 1 throughout
        assert psis(tiny_result) == [[1] * 4] * 4

    def test_lookup_helpers(self, tiny_result):
        res = tiny_result
        assert res.series_for("a", "b", "sp").algorithm == "sp"
        assert res.summary_for("a", "b", "lh").reachable_probability == 1.0
        with pytest.raises(KeyError):
            res.series_for("a", "b", "nope")
        with pytest.raises(KeyError):
            res.summary_for("b", "a", "sp")

    def test_decision_stats_collected(self, tiny_result):
        comps = tiny_result.decision_stats.comparisons
        assert comps
        assert set(comps) == {4}  # single-bias grid degree

    def test_decision_counts_cross_the_merge_as_one_array_per_block(self, tiny_result):
        scn = tiny_scenario()
        (outcome,) = harness._block_runner(scn, harness.snapshot_at(scn))(range(0, 2))
        assert outcome.comparisons.dtype == np.uint8
        comps = tiny_result.decision_stats.comparisons
        assert all(type(c) is int for c in comps)  # summed into JSON by the benchmark
        assert outcome.comparisons.tolist() == comps[: outcome.comparisons.size]

    def test_parallel_run_keeps_decision_stats(self, exp1_small):
        serial, _ = exp1_small
        scn = load_scenario(SCENARIO_DIR / "experiment1_20x20.json")
        par = run_experiment(scn, parallel=2)
        assert serial.decision_stats.comparisons
        assert par.decision_stats.comparisons == serial.decision_stats.comparisons

    def test_parallel_must_be_positive(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_scenario(), parallel=0)

    def test_parallel_run_is_identical(self, tiny_result):
        res2 = run_experiment(tiny_scenario(), parallel=2)
        assert res2.path_log == tiny_result.path_log
        assert res2.series == tiny_result.series

    def test_failing_stamp_is_isolated_serial_and_parallel(self, monkeypatch):
        stamp = tiny_scenario().time.stamps()[1]
        # patched before the pool starts, so forked workers inherit it
        monkeypatch.setattr(harness, "snapshot", failing_at(stamp))
        serial = run_experiment(tiny_scenario())
        par = run_experiment(tiny_scenario(), parallel=2)
        assert serial.failures == [(stamp, "RuntimeError('injected')")]
        assert par.failures == serial.failures
        assert par.path_log == serial.path_log
        assert par.series == serial.series
        # the same result object as a whole, decision stats too
        assert par == serial
        assert set(serial.path_log.stamp.tolist()) == {0, 2, 3}
        count = len(tiny_scenario().time.stamps())
        for s in serial.series:
            assert len(s.stamps) == count - 1
            # the failure leaves the next stamp without a predecessor
            assert s.stamps[1].vertex_changes is None
            assert s.stamps[2].vertex_changes is not None

    @given(case=small_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_parallel_equals_serial_on_random_scenarios(self, case):
        scn, bad = case
        stamp = scn.time.stamps()[bad]
        # patched before the pool starts, so forked workers inherit it
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "snapshot", failing_at(stamp))
            serial = run_experiment(scn)
            assert serial.failures == [(stamp, "RuntimeError('injected')")]
            assert run_experiment(scn, parallel=2) == serial

    def test_missing_path_set_is_a_listed_failure(self, tiny_result):
        scn = tiny_scenario()
        stamps = scn.time.stamps()
        snapshot_of = harness.snapshot_at(scn)
        conns = harness._connection_indices(scn)

        def path_sets_of(snaps):
            block = [stamp_path_sets(snap, scn.algorithms, conns) for snap in snaps]
            return [sets[:-1] if snap.t == stamps[2] else sets for snap, sets in zip(snaps, block)]

        sets = harness._path_sets(scn)
        run = functools.partial(harness._block, sets, stamps, snapshot_of, path_sets_of)
        # one block of all four stamps, run again stamp by stamp
        assert harness._blocks(len(stamps)) == [range(len(stamps))]
        res = harness._merge(scn, map(run, harness._blocks(len(stamps))))
        assert [t for t, _ in res.failures] == [stamps[2]]
        assert res.failures[0][1].startswith("ValueError('zip()")
        for s, want in zip(res.series, tiny_result.series):
            assert s.stamps[:2] == want.stamps[:2]
            assert len(s.stamps) == len(stamps) - 1

    def test_merge_keeps_no_folded_stamp(self, tiny_result):
        scn = tiny_scenario()
        run = harness._block_runner(scn, harness.snapshot_at(scn))
        refs = []

        def outcomes():
            for block in (range(0, 1), range(1, 3), range(3, 4)):
                # the merge holds the last folded block at most
                assert all(ref() is None for ref in refs[:-1])
                out = run(block)
                (outcome,) = out
                refs.append(weakref.ref(outcome))
                yield out

        res = harness._merge(scn, outcomes())
        assert len(refs) == 3
        assert res == tiny_result

    def test_vertex_changes_cross_blocks_and_a_failed_stamp(self, monkeypatch):
        # blocks of two stamps, the fourth failing: each row against the same
        # set one stamp earlier, the sets built one stamp at a time
        scn = tiny_scenario(time={**TINY["time"], "step_s": 30.0, "count": 7})
        stamps, conns = scn.time.stamps(), harness._connection_indices(scn)
        snapshot_of = harness.snapshot_at(scn)
        monkeypatch.setattr(harness, "STAMP_BLOCK", 2)
        monkeypatch.setattr(harness, "snapshot", failing_at(stamps[3]))
        assert [len(b) for b in harness._blocks(len(stamps))] == [2, 2, 2, 1]
        res = run_experiment(scn)
        assert res.failures == [(stamps[3], "RuntimeError('injected')")]
        rows = [[] for _ in res.series]
        before = [None] * len(res.series)
        for i, t in enumerate(stamps):
            if i == 3:
                before = [None] * len(res.series)
                continue
            snap = snapshot_of(t)
            for k, ((si, di), ps) in enumerate(
                zip([c for c in conns for _ in scn.algorithms],
                    stamp_path_sets(snap, scn.algorithms, conns))
            ):
                hops = [ps.sats[ps.starts[j] : ps.starts[j + 1]] for j in ps.paths]
                now = np.unique(np.concatenate([np.zeros(0, np.int64), *hops]))
                rows[k].append(
                    None if before[k] is None or not hops else path_evolution(before[k], now)
                )
                valid = snap.covered(si) and snap.covered(di) and hops
                before[k] = now if valid else None
        for s, want in zip(res.series, rows):
            assert [st.vertex_changes for st in s.stamps] == want
        # stamps 2 and 6 open a block and have a predecessor, 4 follows the failure
        assert all(want[2] is not None and want[3] is None for want in rows)
        assert any(want[5] for want in rows)

    def test_pool_is_capped_at_the_stamp_count(self, tiny_result, monkeypatch):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_WORKER_STATE", {})
        assert run_experiment(tiny_scenario(), parallel=64) == tiny_result
        assert sizes == [len(tiny_scenario().time.stamps())]
        # a single stamp runs serially, with no pool
        one = tiny_scenario(time={**TINY["time"], "count": 1})
        assert run_experiment(one, parallel=64) == run_experiment(one)
        assert sizes == [len(tiny_scenario().time.stamps())]


def coincident_at(stamp):
    """harness.snapshot, with the neighbors of the first satellite the first
    station sees moved onto it at one stamp: a closest-pointing decision
    there raises the kernel's coincident-nodes ValueError."""
    real_snapshot = harness.snapshot

    def moved(*args, **kwargs):
        out = real_snapshot(*args, **kwargs)
        for snap in [out] if isinstance(out, Snapshot) else out:
            if snap.t == stamp:
                s, tpl = snap.edge_sats[0][0], snap.template
                snap.sat_positions = snap.sat_positions.copy()
                snap.sat_positions[tpl.nbr[s][tpl.real[s]]] = snap.sat_positions[s]
        return out

    return moved


def shortened(name, count=10):
    """A shipped scenario cut to its first count stamps."""
    scn = load_scenario(SCENARIO_DIR / name)
    return dataclasses.replace(scn, time=dataclasses.replace(scn.time, count=count))


def runs_by_block_size(mp, scn):
    """run_experiment of scn, serial and with --parallel 2, under stamp blocks
    of 1, 2, STAMP_BLOCK and all stamps, keyed (size, parallel)."""
    out = {}
    for size in (1, 2, harness.STAMP_BLOCK, scn.time.count):
        # the split is made before the pool starts
        mp.setattr(harness, "STAMP_BLOCK", size)
        for parallel in (1, 2):
            out[size, parallel] = run_experiment(scn, parallel=parallel)
    return out


class TestStampBlocks:
    """Stamps are routed in blocks: the block size and the worker count change
    no result, and a stamp that raises inside a block is isolated."""

    def test_blocks_split_the_stamps_contiguously_and_evenly(self, monkeypatch):
        counts = (0, 1, 2, 5, 7, 8, 9, 16, 17, 40, 41, 198, 200)
        for size, workers, count in product((1, 2, 3, 8), (1, 2, 3, 4), counts):
            monkeypatch.setattr(harness, "STAMP_BLOCK", size)
            blocks = harness._blocks(count, workers)
            case = (size, workers, count)
            # contiguous, in order, every stamp once
            assert [i for b in blocks for i in b] == list(range(count)), case
            assert all(b.step == 1 and len(b) >= 1 for b in blocks), case
            lengths = [len(b) for b in blocks]
            assert max(lengths, default=0) <= size, case
            assert max(lengths, default=0) - min(lengths, default=0) <= 1, case
            # no more blocks than it takes, then an equal share for every worker
            fewest = -(-count // size)
            assert fewest <= len(blocks) < fewest + workers, case
            assert len(blocks) % workers == 0 or len(blocks) == count, case

    @pytest.mark.parametrize(
        "name",
        ["experiment1_20x20.json", "experiment1_40x40.json", "experiment2_40x40.json",
         "experiment3_moving.json"],
    )
    def test_block_size_changes_no_result_on_shipped_scenarios(self, name):
        scn = shortened(name)
        with pytest.MonkeyPatch.context() as mp:
            runs = runs_by_block_size(mp, scn)
        want = runs[1, 1]
        assert want.path_log.stamp.size and want.decision_stats.comparisons
        for key, res in runs.items():
            assert res.path_log == want.path_log, key
            assert res.decision_stats == want.decision_stats, key
            assert res == want, key

    @given(case=small_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_block_size_changes_no_result_on_random_scenarios(self, case):
        scn, bad = case
        stamp = scn.time.stamps()[bad]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "snapshot", failing_at(stamp))
            runs = runs_by_block_size(mp, scn)
        want = runs[1, 1]
        assert want.failures == [(stamp, "RuntimeError('injected')")]
        for key, res in runs.items():
            assert res == want, key

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_kernel_error_inside_a_block_is_isolated(self, monkeypatch, parallel):
        scn = tiny_scenario()
        stamps = scn.time.stamps()
        monkeypatch.setattr(harness, "STAMP_BLOCK", len(stamps))
        # a stamp inside a block, not its first: the last block's second
        block = harness._blocks(len(stamps), parallel)[-1]
        assert len(block) > 1
        bad = stamps[block.start + 1]
        monkeypatch.setattr(harness, "snapshot", coincident_at(bad))
        res = run_experiment(scn, parallel=parallel)
        assert res.failures == [(bad, "ValueError('coincident nodes leave the bearing undefined')")]
        # as if that stamp's snapshot had raised: the others are untouched
        monkeypatch.setattr(harness, "snapshot", failing_at(bad))
        want = run_experiment(scn)
        assert want.failures == [(bad, "RuntimeError('injected')")]
        assert dataclasses.replace(res, failures=want.failures) == want


class TestAnalyzeRows:
    def test_reanalysis_reproduces_series(self, tiny_result):
        res2 = analyze_rows(tiny_scenario(), tiny_result.path_log)
        assert len(res2.series) == len(tiny_result.series)
        for a, b in zip(tiny_result.series, res2.series):
            assert (a.src_ei, a.dst_ei, a.algorithm) == (b.src_ei, b.dst_ei, b.algorithm)
            for sa, sb in zip(a.stamps, b.stamps):
                assert sa.psi == sb.psi
                assert sa.n_paths == sb.n_paths and sa.n_drops == sb.n_drops
                assert sa.hops_avg == sb.hops_avg
                assert sa.gamma == sb.gamma
                assert sa.vertex_changes == sb.vertex_changes
                assert sa.latency_avg_ms == pytest.approx(sb.latency_avg_ms)
                assert sa.stretch_max == pytest.approx(sb.stretch_max)

    def test_csv_round_trip_then_reanalysis(self, tiny_result, tmp_path):
        f = tmp_path / "paths.csv"
        write_paths_csv(tiny_scenario(), tiny_result.path_log, f)
        res2 = analyze_rows(tiny_scenario(), read_paths_csv(f, tiny_scenario()))
        for a, b in zip(tiny_result.summaries, res2.summaries):
            assert a.algorithm == b.algorithm
            assert a.reachable_probability == b.reachable_probability
            assert a.hops.average == b.hops.average
            # the log stores latency at fixed precision
            assert a.latency.average == pytest.approx(b.latency.average, abs=1e-5)

    def test_foreign_stamp_rejected(self, tiny_result, tmp_path):
        rogue = {"t": "2030-01-01T00:00:00+00:00", "algorithm": "sp", "src_sat": "0",
                 "hop_list": "0", "hops": "0"}
        f = edited_log(tmp_path / "paths.csv", tiny_result.path_log,
                       lambda log: [{**log[0], **rogue}])
        with pytest.raises(ValueError, match="path log row 1: stamp 2030-01-01 00:00:00.00:00 is "
                           "outside the scenario time grid"):
            read_paths_csv(f, tiny_scenario())

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"src_station": "zz"}, "connection zz->b is not in the scenario"),
            ({"algorithm": "flood"}, "algorithm 'flood' is not in the scenario"),
            ({"status": "bogus"}, "status 'bogus' is not one of"),
            ({"status": "dropped:teleport"}, "status 'dropped:teleport' is not one of"),
            ({"hops": 4}, "hops 4 does not match the hop list"),
            ({"src_sat": 5}, "src_sat 5 is not the first hop"),
            (NON_LINK, "hops 4 and 30 are not linked in the template"),
            pytest.param(
                repeat_first("mplf-cpi"), "repeats the mplf-cpi path of row 1", id="repeat-greedy"
            ),
            pytest.param(repeat_first("sp"), "repeats the sp path of row 1", id="repeat-baseline"),
            pytest.param(
                dropped_baseline,
                "status 'dropped:loop': sp paths are never dropped",
                id="dropped-baseline",
            ),
            *LATENCY_CASES,
            *ATTACHMENT_CASES,
        ],
        # a one-field case keeps the "field-value-message" id it has always had
        ids=lambda case: "-".join(f"{k}-{v}" for k, v in case.items())
        if isinstance(case, dict)
        else case,
    )
    def test_row_outside_scenario_names_its_number(self, tiny_result, tmp_path, fields, message):
        edit = fields if callable(fields) else second_row(fields)
        f = edited_log(tmp_path / "paths.csv", tiny_result.path_log, edit)
        with pytest.raises(PathLogError, match=f"path log row 2: {message}") as err:
            analyze_rows(tiny_scenario(), read_paths_csv(f, tiny_scenario()))
        assert err.value.row == 2

    def test_hop_outside_shell_rejected(self, tiny_result, tmp_path):
        def edit(log):
            return [log[0], {**log[1], "hop_list": log[1]["hop_list"] + "-999"}, log[2]]

        f = edited_log(tmp_path / "paths.csv", tiny_result.path_log, edit)
        with pytest.raises(
            PathLogError, match="path log row 2: hop 999 is outside the shell's satellites 0..63"
        ) as err:
            read_paths_csv(f, tiny_scenario())
        assert err.value.row == 2

    @pytest.mark.parametrize(
        "faults,row,message",
        [
            # a malformed row after one off the time grid: the grid row is named
            pytest.param(
                {1: {"t": "2030-01-01T00:00:00+00:00"}, 2: {"latency_ms": "fast"}},
                2,
                "stamp 2030-01-01 00:00:00.00:00 is outside the scenario time grid",
                id="read-in-row-order",
            ),
            # a row its stations do not see before one off the scenario: the
            # checks made while reading come first
            pytest.param(
                {1: {"hop_list": "4-12-20-19-27", "hops": "4"}, 2: {"algorithm": "flood"}},
                3,
                "algorithm 'flood' is not in the scenario",
                id="read-before-stamp",
            ),
        ],
    )
    def test_two_faults_name_the_first_checked(self, tiny_result, tmp_path, faults, row, message):
        def edit(log):
            return [{**r, **faults.get(i, {})} for i, r in enumerate(log[:3])]

        f = edited_log(tmp_path / "paths.csv", tiny_result.path_log, edit)
        with pytest.raises(PathLogError, match=f"path log row {row}: {message}") as err:
            analyze_rows(tiny_scenario(), read_paths_csv(f, tiny_scenario()))
        assert err.value.row == row

    def test_reanalysis_reproduces_decision_stats(self, tiny_result):
        res2 = analyze_rows(tiny_scenario(), tiny_result.path_log)
        assert res2.decision_stats.comparisons
        assert res2.decision_stats == tiny_result.decision_stats

    def test_reanalysis_of_shipped_run_reproduces_decision_stats(self, exp1_small):
        serial, _ = exp1_small
        scn = load_scenario(SCENARIO_DIR / "experiment1_20x20.json")
        # loop drops decide at their last satellite too
        assert STATUSES.index("dropped:loop") in serial.path_log.end
        assert analyze_rows(scn, serial.path_log).decision_stats == serial.decision_stats

    def test_row_order_does_not_change_the_result(self, exp1_small):
        serial, _ = exp1_small
        scn = load_scenario(SCENARIO_DIR / "experiment1_20x20.json")
        log = serial.path_log
        want = analyze_rows(scn, log)
        for seed in range(2):
            shuffled = log.take(np.random.default_rng(seed).permutation(log.end.size))
            assert analyze_rows(scn, shuffled) == want

    def test_raising_stamp_is_listed_under_failures(self, monkeypatch):
        scn = tiny_scenario()
        stamp = scn.time.stamps()[1]
        monkeypatch.setattr(harness, "snapshot", failing_at(stamp))
        run = run_experiment(scn)
        res = analyze_rows(scn, run.path_log)
        assert res.failures == run.failures == [(stamp, "RuntimeError('injected')")]
        assert res.path_log == run.path_log
        assert psis(res) == psis(run)
        assert res.decision_stats == run.decision_stats
        for s in res.series:
            # the failure leaves the next stamp without a predecessor
            assert s.stamps[1].vertex_changes is None
            assert s.stamps[2].vertex_changes is not None

    def test_reanalysis_reproduces_rows_and_records(self, tiny_result):
        res2 = analyze_rows(tiny_scenario(), tiny_result.path_log)
        assert res2.path_log == tiny_result.path_log
        assert psis(res2) == psis(tiny_result)


class TestPathsCsv:
    @staticmethod
    def assert_same_but_latency(run, back):
        """Every column of back equals run's, dtype too; latency to the six
        decimals the log keeps."""
        for name in ("stamp", "path_set", "end", "sats", "starts"):
            want, got = getattr(run, name), getattr(back, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.allclose(back.latency_ms, run.latency_ms, rtol=0, atol=5e-7)

    def test_round_trip_rows(self, tiny_result, tmp_path):
        f = tmp_path / "paths.csv"
        write_paths_csv(tiny_scenario(), tiny_result.path_log, f)
        self.assert_same_but_latency(tiny_result.path_log, read_paths_csv(f, tiny_scenario()))

    def test_round_trip_of_shipped_run_is_byte_identical(self, exp1_small, tmp_path):
        run, _ = exp1_small
        log = run.path_log
        # delivered rows and loop drops, of every set
        assert set(log.end.tolist()) == {0, STATUSES.index("dropped:loop")}
        assert set(log.path_set.tolist()) == set(range(len(harness._path_sets(run.scenario))))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_paths_csv(run.scenario, log, a)
        back = read_paths_csv(a, run.scenario)
        self.assert_same_but_latency(log, back)
        write_paths_csv(run.scenario, back, b)
        assert a.read_bytes() == b.read_bytes()

    def test_single_vertex_hop_list(self, tmp_path):
        # one delivered mplf-nfp path (set 1 of a->b) at the first stamp, satellite 7 alone
        col = functools.partial(np.array, dtype=np.int32)
        row = PathLog(col([0]), col([1]), np.zeros(1, np.int8), np.array([4.2]), col([7]),
                      np.array([0, 1]))
        f = tmp_path / "one.csv"
        write_paths_csv(tiny_scenario(), row, f)
        assert f.read_text().splitlines()[1].endswith(",mplf-nfp,a,b,7,7,4.200000,0,delivered")
        assert read_paths_csv(f, tiny_scenario()) == row

    @pytest.mark.parametrize(
        "column,value",
        [
            ("src_sat", "seven"),
            ("hops", "1.5"),
            ("latency_ms", "fast"),
            ("t", "yesterday"),
            ("hop_list", "3--4"),
            ("hop_list", ""),
        ],
    )
    def test_malformed_row_names_its_number(self, tiny_result, tmp_path, column, value):
        edit = second_row({column: value})
        f = edited_log(tmp_path / "paths.csv", tiny_result.path_log, edit)
        with pytest.raises(PathLogError, match="path log row 2: ") as err:
            read_paths_csv(f, tiny_scenario())
        assert err.value.row == 2

    def test_blank_lines_are_not_counted(self, tiny_result, tmp_path):
        f = tmp_path / "paths.csv"
        write_paths_csv(tiny_scenario(), tiny_result.path_log.take(np.arange(3)), f)
        lines = f.read_text().splitlines()
        lines[2] = lines[2].replace(",a,b,", ",zz,b,", 1)
        f.write_text("\n".join([lines[0], "", lines[1], "", lines[2]]) + "\n")
        with pytest.raises(PathLogError, match="path log row 2: connection zz->b") as err:
            read_paths_csv(f, tiny_scenario())
        assert err.value.row == 2

    def test_missing_column_names_its_row(self, tiny_result, tmp_path):
        f = tmp_path / "paths.csv"
        write_paths_csv(tiny_scenario(), tiny_result.path_log.take(np.arange(3)), f)
        lines = f.read_text().splitlines()
        # the second data row loses its last field
        lines[2] = lines[2].rsplit(",", 1)[0]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(PathLogError, match="path log row 2: missing column.s. status"):
            read_paths_csv(f, tiny_scenario())
        # a header without the column fails before any row, as row 0
        g = tmp_path / "no_status.csv"
        g.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines[:2]) + "\n")
        with pytest.raises(PathLogError, match="path log row 0: missing column.s. status"):
            read_paths_csv(g, tiny_scenario())

    def test_row_short_of_an_extra_column_is_read(self, tiny_result, tmp_path):
        # a header column beyond the log's own may be left off a row, as csv.DictReader allows
        f, g = tmp_path / "paths.csv", tmp_path / "noted.csv"
        write_paths_csv(tiny_scenario(), tiny_result.path_log.take(np.arange(3)), f)
        lines = f.read_text().splitlines()
        noted = [lines[0] + ",note", lines[1] + ",x", *lines[2:]]
        g.write_text("\n".join(noted) + "\n")
        assert read_paths_csv(g, tiny_scenario()) == read_paths_csv(f, tiny_scenario())

    def test_extra_cells_name_their_row(self, tiny_result, tiny_file, tmp_path, capsys):
        f = tmp_path / "paths.csv"
        write_paths_csv(tiny_scenario(), tiny_result.path_log.take(np.arange(3)), f)
        lines = f.read_text().splitlines()
        lines[2] += ",999,junk"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(PathLogError, match="path log row 2: 2 cell.s. beyond the header"):
            read_paths_csv(f, tiny_scenario())
        out = tmp_path / "out"
        common = ["--scenario", str(tiny_file), "--paths", str(f), "--out", str(out)]
        assert main(["analyze", *common]) == 1
        assert main(["export", *common, "--format", "geojson"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: path log row 2: ") for line in err)
        assert not (out / "metrics.csv").exists() and not (out / "paths.geojson").exists()


# metrics.csv columns after t and the connection, all StampStats attributes
METRICS_STAMP = [
    "covered_src",
    "covered_dst",
    "valid",
    "n_paths",
    "n_drops",
    "psi",
    "latency_min_ms",
    "latency_avg_ms",
    "latency_max_ms",
    "hops_min",
    "hops_avg",
    "hops_max",
    "gamma",
    "stretch_min",
    "stretch_avg",
    "stretch_max",
    "vertex_changes",
    "geodesic_km",
    "geodesic_latency_ms",
]
METRICS_INTS = {
    "covered_src",
    "covered_dst",
    "valid",
    "n_paths",
    "n_drops",
    "psi",
    "hops_min",
    "hops_max",
    "vertex_changes",
}
SERIES_PARTS = ("minimum", "average", "maximum")


def _cell(value, integer):
    """A table cell as the artifacts spell it: empty for None, integers as
    digits, everything else with six decimals."""
    if value is None:
        return ""
    return str(int(value)) if integer else _f(value)


class TestExportResult:
    def test_csv_artifacts(self, tiny_result, tmp_path):
        written = export_result(tiny_result, "csv", tmp_path)
        names = {p.name for p in written}
        assert names == {
            "paths.csv",
            "metrics.csv",
            "summary.csv",
            "latency_cdf.csv",
            "hops_cdf.csv",
            "stretch_cdf.csv",
            "metadata.json",
        }
        for p in written:
            assert p.exists() and p.stat().st_size > 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["name"] == "tiny"
        assert meta["failures"] == []

    def test_geojson_adds_paths(self, tiny_result, tmp_path):
        written = export_result(tiny_result, "geojson", tmp_path)
        assert (tmp_path / "paths.geojson").exists()
        geo = json.loads((tmp_path / "paths.geojson").read_text())
        assert len(geo["features"]) == np.count_nonzero(tiny_result.path_log.end == 0)
        for feat in geo["features"]:
            coords = feat["geometry"]["coordinates"]
            assert feat["properties"]["hop_count"] == len(coords) - 1

    def test_unknown_format_rejected(self, tiny_result, tmp_path):
        with pytest.raises(ValueError):
            export_result(tiny_result, "parquet", tmp_path)

    def test_exports_are_deterministic(self, tiny_result, tmp_path):
        fresh = run_experiment(tiny_scenario())
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        export_result(tiny_result, "csv", a_dir)
        export_result(fresh, "csv", b_dir)
        for name in ("paths.csv", "metrics.csv", "summary.csv", "metadata.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    @staticmethod
    def read(path):
        with path.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        return header, rows

    def test_metrics_csv_parses(self, tiny_result, tmp_path):
        export_result(tiny_result, "csv", tmp_path)
        with (tmp_path / "metrics.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 4  # stamps x (connections x algorithms)
        assert {r["algorithm"] for r in rows} == {"mplf-cpi", "mplf-nfp", "sp", "lh"}
        header, cells = self.read(tmp_path / "metrics.csv")
        assert header == ["t", "src_station", "dst_station", "algorithm", *METRICS_STAMP]
        assert cells == [
            [_t(st.t), s.src_ei, s.dst_ei, s.algorithm]
            + [_cell(getattr(st, c), c in METRICS_INTS) for c in METRICS_STAMP]
            for s in tiny_result.series
            for st in s.stamps
        ]

    def test_summary_csv_cells(self, tiny_result, tmp_path):
        export_result(tiny_result, "csv", tmp_path)
        header, cells = self.read(tmp_path / "summary.csv")
        assert header == [
            "src_station",
            "dst_station",
            "algorithm",
            "n_stamps",
            "n_valid",
            "n_invalid",
            "reachable_probability",
            "latency_min_ms",
            "latency_avg_ms",
            "latency_max_ms",
            "hops_min",
            "hops_avg",
            "hops_max",
            "gamma_median",
            "stretch_max",
            "frac_changes_le_20",
        ]

        def parts(stats):
            values = [None] * 3 if stats is None else [getattr(stats, p) for p in SERIES_PARTS]
            return [_cell(v, False) for v in values]

        assert cells == [
            [s.src_ei, s.dst_ei, s.algorithm]
            + [str(int(n)) for n in (s.n_stamps, s.n_valid, s.n_invalid)]
            + [_cell(s.reachable_probability, False)]
            + parts(s.latency)
            + parts(s.hops)
            + [_cell(v, False) for v in (s.gamma_median, s.stretch_max, s.frac_changes_le_20)]
            for s in tiny_result.summaries
        ]

    def test_paths_csv_cells(self, tiny_result, tmp_path):
        export_result(tiny_result, "csv", tmp_path)
        header, cells = self.read(tmp_path / "paths.csv")
        assert header == [
            "t",
            "algorithm",
            "src_station",
            "dst_station",
            "src_sat",
            "hop_list",
            "latency_ms",
            "hops",
            "status",
        ]
        assert cells == [
            [_t(r.t), r.algorithm, r.src_station, r.dst_station, str(int(r.src_sat))]
            + ["-".join(str(int(h)) for h in r.hop_list), _f(r.latency_ms)]
            + [str(len(r.hop_list) - 1), r.status]
            for r in log_rows(tiny_result)
        ]

    def test_latency_cdf_cells(self, tiny_result, tmp_path):
        export_result(tiny_result, "csv", tmp_path)
        header, cells = self.read(tmp_path / "latency_cdf.csv")
        assert header == ["src_station", "dst_station", "algorithm", "value", "cum_fraction"]
        expected = []
        for s in tiny_result.series:
            vals = sorted(st.latency_avg_ms for st in s.stamps if st.latency_avg_ms is not None)
            expected += [
                [s.src_ei, s.dst_ei, s.algorithm, _f(v), _f(i / len(vals))]
                for i, v in enumerate(vals, start=1)
            ]
        assert len(expected) == 4 * 4
        assert cells == expected


# the metrics.csv columns written as 0 or 1
METRICS_FLAGS = {"covered_src", "covered_dst", "valid"}


def reference_paths_csv(scenario, log, path):
    """paths.csv as csv.writer writes it a row at a time."""
    ts = [_t(t) for t in scenario.time.stamps()]
    eis = [st.ei for st in scenario.stations]
    names = [(algo, eis[si], eis[di]) for (si, di), algo in harness._path_sets(scenario)]
    sats, starts = log.sats.tolist(), log.starts.tolist()
    cols = (log.stamp.tolist(), log.path_set.tolist(), log.latency_ms.tolist(), log.end.tolist())
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(exporters._PATH_LOG)
        for i, k, ms, e, a, b in zip(*cols, starts, starts[1:]):
            hops = "-".join(map(str, sats[a:b]))
            w.writerow([ts[i], *names[k], sats[a], hops, _f(ms), b - a - 1, STATUSES[e]])


def reference_metrics_csv(series, path):
    """metrics.csv as csv.writer writes it a row at a time."""
    fmts = [int if c in METRICS_FLAGS else _i if c in METRICS_INTS else _f for c in METRICS_STAMP]
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "src_station", "dst_station", "algorithm", *METRICS_STAMP])
        for s in series:
            for st in s.stamps:
                cells = [f(getattr(st, c)) for f, c in zip(fmts, METRICS_STAMP)]
                w.writerow([_t(st.t), s.src_ei, s.dst_ei, s.algorithm, *cells])


def reference_cdf_csv(series, quantity, path):
    """A CDF table as csv.writer writes it a row at a time."""
    name = {"latency": "latency_avg_ms", "hops": "hops_avg", "stretch": "stretch_max"}[quantity]
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src_station", "dst_station", "algorithm", "value", "cum_fraction"])
        for s in series:
            vals = sorted(float(v) for st in s.stamps if (v := getattr(st, name)) is not None)
            n = len(vals)
            w.writerows([s.src_ei, s.dst_ei, s.algorithm, _f(v), _f(i / n)]
                        for i, v in enumerate(vals, 1))


# a station name csv.writer quotes, and a station a 53 degree shell never covers
QUOTED = 'a, "the" hub'


@pytest.fixture(scope="module")
def awkward_result():
    root = copy.deepcopy(TINY)
    root["stations"][0]["name"] = QUOTED
    root["stations"].append({"name": "pole", "kind": "ground", "lat_deg": 89.0, "lon_deg": 0.0})
    root["connections"] = [[QUOTED, "b"], ["b", QUOTED], ["pole", QUOTED]]
    return run_experiment(scenario_from_dict(root))


class TestBlockWriters:
    """paths.csv, metrics.csv and the CDF tables, written a column and a block
    of rows at a time, are the bytes csv.writer writes row by row."""

    @staticmethod
    def assert_tables_match(result, tmp_path, log=None):
        log = result.path_log if log is None else log
        pairs = [(exporters.write_paths_csv, reference_paths_csv, (result.scenario, log))]
        pairs.append((exporters.write_metrics_csv, reference_metrics_csv, (result.series,)))
        for q in ("latency", "hops", "stretch"):
            pairs.append((exporters.write_cdf_csv, reference_cdf_csv, (result.series, q)))
        for k, (write, reference, args) in enumerate(pairs):
            got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
            write(*args, got)
            reference(*args, want)
            assert got.read_bytes() == want.read_bytes(), write.__name__

    def test_quoted_names_none_cells_and_a_series_never_valid(self, awkward_result, tmp_path):
        result = awkward_result
        assert result.path_log.end.size > 0
        never = result.series_for("pole", QUOTED, "sp")
        assert not never.valid_stamps() and never.stamps[0].psi is None
        assert any(st.vertex_changes is None for s in result.series for st in s.stamps)
        self.assert_tables_match(result, tmp_path)
        assert '"a, ""the"" hub"' in (tmp_path / "got0.csv").read_text()

    def test_empty_path_log(self, awkward_result, tmp_path):
        log = awkward_result.path_log.take(np.arange(0))
        self.assert_tables_match(awkward_result, tmp_path, log)
        assert (tmp_path / "got0.csv").read_bytes() == ",".join(exporters._PATH_LOG).encode() + b"\r\n"

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_block_boundaries_inside_a_stamp(self, awkward_result, tmp_path, monkeypatch, block):
        stamps = awkward_result.path_log.stamp
        assert np.count_nonzero(stamps == stamps[0]) > 7  # a stamp spans blocks
        monkeypatch.setattr(exporters, "_ROW_BLOCK", block)
        self.assert_tables_match(awkward_result, tmp_path)

    def test_shipped_run(self, exp1_small, tmp_path):
        result, _ = exp1_small
        assert result.path_log.end.size > 2 * exporters._ROW_BLOCK
        self.assert_tables_match(result, tmp_path)


def read_geojson(write, *args, path):
    """Run a GeoJSON writer on args and path; returns the file, parsed."""
    write(*args, path)
    with path.open() as fh:
        return json.load(fh)


class TestGeojson:
    def snap(self):
        scn = tiny_scenario()
        const = build_walker(scn.constellation)
        return snapshot(
            const, scn.stations, scn.pattern, scn.time.start, scn.elevation_min_deg
        )

    def test_nodes_cover_satellites_and_stations(self, tmp_path):
        snap = self.snap()
        geo = read_geojson(snapshot_nodes_geojson, snap, path=tmp_path / "nodes.geojson")
        assert len(geo["features"]) == snap.sat_count + 2
        kinds = [f["properties"]["kind"] for f in geo["features"]]
        assert kinds.count("satellite") == snap.sat_count
        assert kinds.count("ground") == 2
        for f in geo["features"]:
            lon, lat = f["geometry"]["coordinates"]
            assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0

    def test_links_match_snapshot(self, tmp_path):
        snap = self.snap()
        geo = read_geojson(snapshot_links_geojson, snap, path=tmp_path / "links.geojson")
        assert len(geo["features"]) == snap.template.edge_count + sum(
            s.size for s in snap.edge_sats
        )

    def test_subpoints_converted_once_per_snapshot(self, tiny_result, tmp_path, monkeypatch):
        # the nodes and links writers share one batch of sub-points per
        # snapshot, paths_geojson converts one per stamp, and a batch gives
        # each satellite the scalar conversion's point, bit for bit
        snap, scn = self.snap(), tiny_scenario()
        batches = []
        real = exporters.eci_to_lonlat

        def counting(p, t, epoch):
            batches.append(len(p))
            return real(p, t, epoch)

        monkeypatch.setattr(exporters, "eci_to_lonlat", counting)
        nodes = read_geojson(snapshot_nodes_geojson, snap, path=tmp_path / "nodes.geojson")
        read_geojson(snapshot_links_geojson, snap, path=tmp_path / "links.geojson")
        assert batches == [snap.sat_count]
        epoch = snap.constellation.config.epoch
        lon, lat = real(snap.sat_positions, snap.t, epoch)
        for s in range(snap.sat_count):
            g = eci_to_geodetic(snap.sat_positions[s], snap.t, epoch)
            assert (lon[s], lat[s]) == (g.lon_deg, g.lat_deg)
            coords = nodes["features"][s]["geometry"]["coordinates"]
            assert coords == [round(g.lon_deg, 6), round(g.lat_deg, 6)]
        batches.clear()
        paths_geojson(scn, tiny_result.path_log, tmp_path / "paths.geojson")
        assert len(batches) == scn.time.count == len(set(tiny_result.path_log.stamp.tolist()))

    def test_path_feature_counts_vertices(self, tiny_result, tmp_path):
        scn = tiny_scenario()
        geo = read_geojson(paths_geojson, scn, tiny_result.path_log, path=tmp_path / "p.geojson")
        feats = geo["features"]
        rows = [r for r in log_rows(tiny_result) if r.status == "delivered"]
        assert len(feats) == len(rows)
        snapshot_of = harness.snapshot_at(scn)
        epoch = scn.constellation.epoch
        for feat, r in zip(feats, rows):
            assert feat["properties"] == {
                "t": _t(r.t),
                "algorithm": r.algorithm,
                "src_station": r.src_station,
                "dst_station": r.dst_station,
                "hop_count": len(r.hop_list) - 1,
                "latency_ms": round(r.latency_ms, 6),
                "status": "delivered",
            }
            snap = snapshot_of(r.t)
            points = [eci_to_geodetic(snap.sat_positions[s], r.t, epoch) for s in r.hop_list]
            assert feat["geometry"] == {
                "type": "LineString",
                "coordinates": [[round(g.lon_deg, 6), round(g.lat_deg, 6)] for g in points],
            }

    def test_dropped_rows_are_not_rendered(self, tiny_result, tmp_path):
        def edit(log):
            # the first greedy trace, dropped short of the satellites b sees
            assert log[0]["algorithm"] == "mplf-cpi"
            cut = "-".join(log[0]["hop_list"].split("-")[:3])
            return [{**log[0], "hop_list": cut, "hops": "2", "status": "dropped:loop"}, *log[1:]]

        f = edited_log(tmp_path / "paths.csv", tiny_result.path_log, edit)
        log = read_paths_csv(f, tiny_scenario())
        geo = read_geojson(paths_geojson, tiny_scenario(), log, path=tmp_path / "p.geojson")
        assert len(geo["features"]) == tiny_result.path_log.end.size - 1

    def test_rows_alternating_between_stamps(self, tiny_result, tmp_path):
        scn, log = tiny_scenario(), tiny_result.path_log
        delivered = log.end == 0
        first, second = (np.flatnonzero(delivered & (log.stamp == i)) for i in (0, 1))
        rows = np.ravel(list(zip(first, second)))
        assert rows.size >= 4
        feats = read_geojson(paths_geojson, scn, log, path=tmp_path / "all.geojson")["features"]
        feature_of = dict(zip(np.flatnonzero(delivered).tolist(), feats))
        want = [feature_of[r] for r in rows.tolist()]
        alt = read_geojson(paths_geojson, scn, log.take(rows), path=tmp_path / "alt.geojson")
        assert alt["features"] == want

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"t": utc(2030, 1, 1)}, "stamp 2030-01-01 00:00:00.00:00 is outside the scenario"),
            ({"src_station": "zz"}, "connection zz->b is not in the scenario"),
            ({"algorithm": "flood"}, "algorithm 'flood' is not in the scenario"),
            ({"hop_list": (0, 999)}, "hop 999 is outside the shell's satellites 0..63"),
            ({"status": "bogus"}, "status 'bogus' is not one of"),
            ({"status": "dropped:teleport"}, "status 'dropped:teleport' is not one of"),
            ({"hops": 4}, "hops 4 does not match the hop list"),
            ({"src_sat": 5}, "src_sat 5 is not the first hop"),
            (NON_LINK, "hops 4 and 30 are not linked in the template"),
            (repeat_first("mplf-cpi"), "repeats the mplf-cpi path of row 1"),
            (repeat_first("sp"), "repeats the sp path of row 1"),
            (dropped_baseline, "status 'dropped:loop': sp paths are never dropped"),
            *LATENCY_CASES,
            *ATTACHMENT_CASES,
        ],
        ids=[
            "stamp",
            "connection",
            "algorithm",
            "hop",
            "status",
            "drop-reason",
            "hops",
            "src-sat",
            "non-link",
            "repeat-greedy",
            "repeat-baseline",
            "dropped-baseline",
            *(case.id for case in LATENCY_CASES + ATTACHMENT_CASES),
        ],
    )
    def test_row_outside_scenario_rejected(self, tiny_result, tmp_path, fields, message):
        case = fields if callable(fields) else second_row(fields)

        def edit(log):
            return case([r for r in log if r["status"] == "delivered"])

        f = edited_log(tmp_path / "paths.csv", tiny_result.path_log, edit)
        out = tmp_path / "paths.geojson"
        with pytest.raises(PathLogError, match=f"path log row 2: {message}") as err:
            paths_geojson(tiny_scenario(), read_paths_csv(f, tiny_scenario()), out)
        assert err.value.row == 2
        assert not any(tmp_path.glob("*.geojson*"))


# station names that JSON escapes (a quote, a backslash, a non-ASCII letter),
# a mobile station for MSL links, and ground stations on the antimeridian
ESCAPED = {
    **TINY,
    "stations": [
        {"name": 'a"q', "kind": "ground", "lat_deg": 45.0, "lon_deg": 10.0},
        {"name": "b\\s", "kind": "ground", "lat_deg": -30.0, "lon_deg": 100.0},
        {"name": "caf\u00e9", "kind": "mobile", "trajectory": {
            "start": {"lat_deg": 40.0, "lon_deg": 20.0},
            "end": {"lat_deg": -20.0, "lon_deg": 90.0},
            "speed_kms": 7.0,
        }},
        {"name": "e180", "kind": "ground", "lat_deg": 0.0, "lon_deg": 180.0},
        {"name": "w180", "kind": "ground", "lat_deg": 10.0, "lon_deg": -180.0},
    ],
    "connections": [['a"q', "b\\s"], ["caf\u00e9", "b\\s"]],
}


def geojson_text(features):
    """The FeatureCollection as json.dumps writes it, sorted and compact."""
    collection = {"type": "FeatureCollection", "features": features}
    return json.dumps(collection, sort_keys=True, separators=(",", ":")) + "\n"


def geo_feature(kind, coordinates, properties):
    return {"type": "Feature", "geometry": {"type": kind, "coordinates": coordinates},
            "properties": properties}


def subpoint(snap, sat):
    g = eci_to_geodetic(snap.sat_positions[sat], snap.t, snap.constellation.config.epoch)
    return [round(g.lon_deg, 6), round(g.lat_deg, 6)]


class TestGeojsonBytes:
    """The three GeoJSON writers against json.dumps of the collection, built
    one feature at a time with the scalar conversion."""

    def snap(self):
        # the scenario's first snapshot, with four satellites moved onto the
        # antimeridian at its stamp: just east and west of it, and on it
        scn = scenario_from_dict(copy.deepcopy(ESCAPED))
        real = harness.snapshot_at(scn)(scn.time.start)
        epoch = scn.constellation.epoch
        pos = real.sat_positions.copy()
        ecef = [[-6921.0, 1e-6, 10.0], [-6921.0, -1e-6, 20.0], [-6921.0, 0.0, 30.0],
                [-6921.0, -0.0, -30.0]]
        pos[:4] = geometry.ecef_to_eci(np.array(ecef), real.t, epoch)
        tpl = real.template
        return synthetic_snapshot(real.t, real.constellation, pos, np.zeros_like(pos), tpl.pairs,
                                  tpl.kinds, stations=real.stations,
                                  min_elevation_deg=scn.elevation_min_deg)

    def test_nodes_and_links(self, tmp_path):
        snap = self.snap()
        count = snap.sat_count
        points = [subpoint(snap, s) for s in range(count)]
        points += [[round(g.lon_deg, 6), round(g.lat_deg, 6)] for g in snap.station_geodetic]
        assert [p[0] for p in points[:4]] == [180.0, -180.0, 180.0, 180.0]
        assert [p[0] for p in points[-2:]] == [180.0, 180.0]
        nodes = [geo_feature("Point", points[s], {"id": s, "kind": "satellite"})
                 for s in range(count)]
        nodes += [geo_feature("Point", points[count + i],
                              {"id": count + i, "kind": st.kind, "name": st.name})
                  for i, st in enumerate(snap.stations)]
        links = [
            geo_feature("LineString", [points[a], points[b]],
                        {"kind": ISL_KIND_NAMES[k], "length_km": round(km, 3),
                         "latency_ms": round(link_latency_ms(km), 6)})
            for (a, b), k, km in zip(snap.isl_pairs.tolist(), snap.isl_kinds.tolist(),
                                     snap.isl_lengths.tolist())
        ]
        for i, st in enumerate(snap.stations):
            kind = "GSL" if st.kind == "ground" else "MSL"
            links += [
                geo_feature("LineString", [points[s], points[count + i]],
                            {"kind": kind, "length_km": round(km, 3),
                             "latency_ms": round(link_latency_ms(km), 6)})
                for s, km in zip(snap.edge_sats[i].tolist(), snap.edge_lengths[i].tolist())
            ]
        assert {f["properties"]["kind"] for f in links} == {"iISL", "sISL", "GSL", "MSL"}
        snapshot_nodes_geojson(snap, tmp_path / "nodes.geojson")
        snapshot_links_geojson(snap, tmp_path / "links.geojson")
        text = (tmp_path / "nodes.geojson").read_text()
        assert text == geojson_text(nodes)
        assert '"name":"a\\"q"' in text and '"name":"b\\\\s"' in text
        assert '"name":"caf\\u00e9"' in text
        assert (tmp_path / "links.geojson").read_text() == geojson_text(links)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
        st.sampled_from([3, 6]),
    )
    @settings(max_examples=300)
    def test_rounded_floats_are_the_reprs_of_round(self, values, digits):
        # ties of the fixed-point digits, halfway cases that rint(x * 1e6) / 1e6
        # rounds the other way, both sides of 1e-4, where repr turns to an
        # exponent, and beyond 15 significant digits
        halfway = [179.9800535, -179.9800535]
        assert all(round(x, 6) != float(np.round(x, 6)) for x in halfway)
        values += [*halfway, 1 / 128, -3 / 128, 5e-07, 1e-07, 0.0001, 0.00009999995, 9.9999e-05,
                   -0.0, 0.0, 45.0, 999999999.9999995, 1e15, 1e16, 0.0025, 2.5e-05]
        assert exporters._rounded(values, digits) == [repr(round(v, digits)) for v in values]

    def test_paths(self, tmp_path):
        scn = scenario_from_dict(copy.deepcopy(ESCAPED))
        result = run_experiment(scn)
        snapshot_of, features = harness.snapshot_at(scn), []
        for r in log_rows(result):
            if r.status == "delivered":
                snap = snapshot_of(r.t)
                features.append(geo_feature(
                    "LineString", [subpoint(snap, s) for s in r.hop_list],
                    {"t": _t(r.t), "algorithm": r.algorithm, "src_station": r.src_station,
                     "dst_station": r.dst_station, "hop_count": len(r.hop_list) - 1,
                     "latency_ms": round(r.latency_ms, 6), "status": "delivered"}))
        assert {f["properties"]["src_station"] for f in features} == {'a"q', "caf\u00e9"}
        paths_geojson(scn, result.path_log, tmp_path / "paths.geojson")
        assert (tmp_path / "paths.geojson").read_text() == geojson_text(features)


def edge_rows(snaps):
    """edges.csv's data rows, built from each snapshot's link arrays: the
    persistent links in template order, then each station's edge links."""
    expected = []
    for s in snaps:
        isls = zip(s.isl_pairs.tolist(), s.isl_kinds.tolist(), s.isl_lengths.tolist())
        links = [(a, b, ISL_KIND_NAMES[k], ln) for (a, b), k, ln in isls]
        for i in range(len(s.stations)):
            node = s.station_node(i)
            edges = zip(s.edge_sats[i].tolist(), s.edge_lengths[i].tolist())
            links += [(sat, node, "GSL", ln) for sat, ln in edges]
        expected += [
            [_t(s.t), str(a), str(b), kind, _f(ln), _f(link_latency_ms(ln))]
            for a, b, kind, ln in links
        ]
    return expected


class TestEdgesCsv:
    @staticmethod
    def snaps(pattern=None):
        scn = tiny_scenario()
        const = build_walker(scn.constellation)
        return [
            snapshot(const, scn.stations, pattern or scn.pattern, t, scn.elevation_min_deg)
            for t in scn.time.stamps()
        ]

    def test_rows_match_link_objects(self, tmp_path):
        snaps = self.snaps()
        path = tmp_path / "edges.csv"
        write_edges_csv(snaps, path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        expected = edge_rows(snaps)
        assert rows[0] == ["t", "src", "dst", "kind", "length_km", "latency_ms"]
        assert rows[1:] == expected
        assert {r[3] for r in expected} == {"iISL", "sISL", "GSL"}

    def test_bytes_are_csv_writer_bytes(self, tmp_path):
        # edges.csv is formatted without csv.writer; its bytes are still a
        # csv.writer rendering (CRLF, no quoting), also across a template
        # change, which formats the persistent links' cells anew
        scn = tiny_scenario()
        plus = harness.snapshot_at(scn)
        star = self.snaps(IslPattern("*Grid", (-1, 0)))
        snaps = [*map(plus, scn.time.stamps()[:2]), *star[2:]]
        assert snaps[0].template is snaps[1].template is not snaps[2].template
        path = tmp_path / "edges.csv"
        write_edges_csv(snaps, path)
        rows, text = edge_rows(snaps), io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["t", "src", "dst", "kind", "length_km", "latency_ms"])
        writer.writerows(rows)
        data = path.read_bytes()
        assert data == text.getvalue().encode()
        assert data.count(b"\r\n") == len(rows) + 1 and b'"' not in data


class TestDirectionHistogramCsv:
    def test_ninety_rows_summing_to_one(self, tmp_path):
        hist = np.full(90, 1.0 / 90.0)
        f = tmp_path / "h.csv"
        write_direction_histogram_csv(hist, f)
        with f.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 90
        assert sum(float(r["fraction"]) for r in rows) == pytest.approx(1.0)
        assert rows[0]["bin_start_deg"] == "0" and rows[-1]["bin_end_deg"] == "90"

    def test_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_direction_histogram_csv(np.zeros(91), tmp_path / "bad.csv")


@pytest.fixture()
def tiny_file(tmp_path):
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps(TINY))
    return f


class TestCli:
    def test_simulate_writes_artifacts(self, tiny_file, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["simulate", "--scenario", str(tiny_file), "--out", str(out), "--parallel", "1"]
        )
        assert code == 0
        assert (out / "paths.csv").exists()
        assert (out / "summary.csv").exists()

    def test_analyze_from_log(self, tiny_file, tmp_path):
        run_dir, ana_dir = tmp_path / "run", tmp_path / "ana"
        main(["simulate", "--scenario", str(tiny_file), "--out", str(run_dir)])
        code = main(
            [
                "analyze",
                "--scenario",
                str(tiny_file),
                "--paths",
                str(run_dir / "paths.csv"),
                "--out",
                str(ana_dir),
            ]
        )
        assert code == 0
        assert (ana_dir / "metrics.csv").exists()
        assert (ana_dir / "summary.csv").exists()

    def test_analyze_reports_failed_stamps(self, tiny_file, tmp_path, monkeypatch, capsys):
        run_dir = tmp_path / "run"
        main(["simulate", "--scenario", str(tiny_file), "--out", str(run_dir)])
        stamp = tiny_scenario().time.stamps()[1]
        monkeypatch.setattr(harness, "snapshot", failing_at(stamp))
        paths = str(run_dir / "paths.csv")
        out = str(tmp_path / "ana")
        assert main(["analyze", "--scenario", str(tiny_file), "--paths", paths, "--out", out]) == 0
        assert f"stamp {stamp} failed: RuntimeError('injected')" in capsys.readouterr().err

    def test_export_requires_geojson(self, tiny_file, tmp_path):
        run_dir = tmp_path / "run"
        main(["simulate", "--scenario", str(tiny_file), "--out", str(run_dir)])
        out = tmp_path / "geo"
        code = main(
            [
                "export",
                "--scenario",
                str(tiny_file),
                "--paths",
                str(run_dir / "paths.csv"),
                "--out",
                str(out),
                "--format",
                "geojson",
            ]
        )
        assert code == 0
        assert (out / "paths.geojson").exists()
        with pytest.raises(SystemExit):
            main(
                [
                    "export",
                    "--scenario",
                    str(tiny_file),
                    "--paths",
                    str(run_dir / "paths.csv"),
                    "--out",
                    str(out),
                ]
            )

    def test_analyze_takes_no_format(self, tiny_file, tmp_path):
        argv = ["analyze", "--scenario", str(tiny_file), "--out", str(tmp_path / "ana")]
        with pytest.raises(SystemExit):
            main([*argv, "--paths", str(tmp_path / "paths.csv"), "--format", "csv"])

    @pytest.mark.parametrize("text", ["", "a,b,c\n"], ids=["empty", "wrong-header"])
    def test_path_log_without_its_header_fails(self, tiny_file, tmp_path, capsys, text):
        log = tmp_path / "paths.csv"
        log.write_text(text)
        common = ["--scenario", str(tiny_file), "--paths", str(log), "--out", str(tmp_path)]
        assert main(["analyze", *common]) == 1
        assert main(["export", *common, "--format", "geojson"]) == 1
        err = capsys.readouterr().err.splitlines()
        want = "error: path log row 0: missing column(s) t, algorithm, src_station"
        assert len(err) == 2 and all(line.startswith(want) for line in err)
        assert not (tmp_path / "metrics.csv").exists()
        assert not (tmp_path / "paths.geojson").exists()

    def test_header_only_path_log_is_valid(self, tiny_result, tiny_file, tmp_path):
        log = tmp_path / "paths.csv"
        write_paths_csv(tiny_scenario(), tiny_result.path_log.take(np.arange(0)), log)
        common = ["--scenario", str(tiny_file), "--paths", str(log), "--out", str(tmp_path)]
        assert main(["analyze", *common]) == 0
        with (tmp_path / "summary.csv").open(newline="") as fh:
            assert {r["reachable_probability"] for r in csv.DictReader(fh)} == {"0.000000"}
        assert main(["export", *common, "--format", "geojson"]) == 0
        assert (tmp_path / "paths.geojson").read_text() == (
            '{"features":[],"type":"FeatureCollection"}\n'
        )

    def test_late_departure_waits_at_its_start(self, tmp_path):
        # a shipped scenario cut to 4 stamps, plus an aircraft that leaves 20 s in
        root = json.loads((SCENARIO_DIR / "experiment1_20x20.json").read_text())
        root["time"]["count"] = 4
        track = {
            "start": {"lat_deg": 40.0, "lon_deg": 116.0},
            "end": {"lat_deg": 51.0, "lon_deg": 0.0},
            "speed_kms": 0.25,
            "start_time": "2025-01-01T01:00:20Z",
        }
        root["stations"].append({"name": "Plane", "kind": "mobile", "trajectory": track})
        root["connections"].append(["Plane", "London"])
        f = tmp_path / "late.json"
        f.write_text(json.dumps(root))
        res = run_experiment(load_scenario(f))
        assert res.failures == []
        assert all(len(s.stamps) == 4 for s in res.series)
        plane = res.series_for("Plane", "London", "sp").stamps
        assert plane[0].geodesic_km == plane[1].geodesic_km == plane[2].geodesic_km
        assert plane[3].geodesic_km != plane[2].geodesic_km
        assert main(["generate", "--scenario", str(f), "--out", str(tmp_path / "gen")]) == 0

    def test_export_checks_format_before_reading(self, tiny_file, tmp_path):
        out = tmp_path / "geo"
        argv = ["export", "--scenario", str(tiny_file), "--out", str(out)]
        with pytest.raises(SystemExit, match="use --format geojson"):
            main([*argv, "--paths", str(tmp_path / "missing.csv")])
        assert not out.exists()

    def test_generate_writes_topology_artifacts(self, tiny_file, tmp_path):
        out = tmp_path / "gen"
        code = main(["generate", "--scenario", str(tiny_file), "--out", str(out)])
        assert code == 0
        for name in (
            "edges.csv",
            "direction_histogram.csv",
            "eisl_counts.csv",
            "eisl_episodes.csv",
        ):
            assert (out / name).exists()

    def test_generate_builds_one_snapshot_per_stamp(self, tmp_path, monkeypatch):
        # each stamp once, in order, a block of at most STAMP_BLOCK stamps a call
        tiny_file = tmp_path / "tiny.json"
        tiny_file.write_text(json.dumps({**TINY, "time": {**TINY["time"], "count": 13}}))
        blocks = []
        real = harness.snapshot

        def counting(constellation, stations, pattern, t, *args, **kwargs):
            blocks.append(t)
            return real(constellation, stations, pattern, t, *args, **kwargs)

        monkeypatch.setattr(harness, "snapshot", counting)
        out = tmp_path / "gen"
        argv = ["generate", "--scenario", str(tiny_file), "--out", str(out)]
        assert main([*argv, "--format", "geojson"]) == 0
        stamps = list(tiny_scenario(time={**TINY["time"], "count": 13}).time.stamps())
        assert [t for block in blocks for t in block] == stamps
        assert [len(block) for block in blocks] == [5, 4, 4]  # 13 stamps, at most 6 a block
        assert (out / "nodes.geojson").exists() and (out / "links.geojson").exists()

    def test_export_rejects_row_outside_scenario(self, tiny_file, tmp_path, capsys):
        run_dir, out = tmp_path / "run", tmp_path / "geo"
        main(["simulate", "--scenario", str(tiny_file), "--out", str(run_dir)])
        log = run_dir / "paths.csv"
        lines = log.read_text().splitlines()
        lines[2] = lines[2].replace(",a,b,", ",zz,b,", 1)
        log.write_text("\n".join(lines) + "\n")
        argv = ["export", "--scenario", str(tiny_file), "--paths", str(log), "--out", str(out)]
        assert main([*argv, "--format", "geojson"]) != 0
        assert "path log row 2: connection zz->b" in capsys.readouterr().err
        assert not (out / "paths.geojson").exists()

    @pytest.mark.parametrize("command", ["analyze", "export"])
    def test_row_off_its_stations_fails(self, tiny_file, tmp_path, capsys, command):
        run_dir, out = tmp_path / "run", tmp_path / "out"
        main(["simulate", "--scenario", str(tiny_file), "--out", str(run_dir)])
        log = run_dir / "paths.csv"
        lines = log.read_text().splitlines()
        # the second row, cut by its last hop: b does not see satellite 27
        assert ",4-12-20-19-27-26," in lines[2] and lines[2].endswith(",5,delivered")
        cut = lines[2].replace(",4-12-20-19-27-26,", ",4-12-20-19-27,")
        lines[2] = cut.removesuffix(",5,delivered") + ",4,delivered"
        log.write_text("\n".join(lines) + "\n")
        argv = [command, "--scenario", str(tiny_file), "--paths", str(log), "--out", str(out)]
        if command == "export":
            argv += ["--format", "geojson"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: path log row 2: last hop 27 is not in view of b" in err
        assert "failed" not in err  # no stamp failure either
        assert not any(out.glob("*.*"))

    def test_export_failing_at_the_last_stamp_leaves_no_file(
        self, tiny_result, tiny_file, tmp_path, capsys, monkeypatch
    ):
        # a row of the last stamp on two unlinked satellites: paths.geojson has
        # streamed the earlier stamps' features when check_stamp rejects it
        scn, out = tiny_scenario(), tmp_path / "out"
        last = scn.time.stamps()[-1]
        n = next(n for n, r in enumerate(log_rows(tiny_result), 1) if r.t == last)
        snap = harness.snapshot_at(scn)(last)

        def edit(log):
            s = int(log[n - 1]["src_sat"])
            x = next(x for x in range(snap.sat_count) if x not in (s, *snap.neighbors(s)))
            log[n - 1] = {**log[n - 1], "hop_list": f"{s}-{x}", "hops": "1"}
            return log

        log = edited_log(tmp_path / "paths.csv", tiny_result.path_log, edit)
        features = []
        real = exporters._write_geojson

        def counting(path, blocks):  # the features handed to the file before the error
            return real(path, (features.extend(block) or block for block in blocks))

        monkeypatch.setattr(exporters, "_write_geojson", counting)
        argv = ["--scenario", str(tiny_file), "--paths", str(log), "--out", str(out)]
        assert main(["export", *argv, "--format", "geojson"]) == 1
        err = capsys.readouterr().err
        assert f"error: path log row {n}: hops " in err and "are not linked" in err
        assert features and n > 1
        assert not any(out.iterdir())

    def test_env_var_overrides_out(self, tiny_file, tmp_path, monkeypatch):
        env_dir = tmp_path / "env-out"
        monkeypatch.setenv("LEONET_OUT", str(env_dir))
        code = main(["simulate", "--scenario", str(tiny_file)])
        assert code == 0
        assert (env_dir / "paths.csv").exists()

    def test_missing_out_is_an_error(self, tiny_file, monkeypatch):
        monkeypatch.delenv("LEONET_OUT", raising=False)
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", str(tiny_file)])

    @pytest.mark.parametrize(
        "command, stage",
        [("simulate", "run_experiment"), ("analyze", "read_paths_csv"), ("export", "read_paths_csv")],
    )
    def test_missing_out_fails_before_any_work(self, tiny_file, tmp_path, monkeypatch, command,
                                              stage):
        def work(*args, **kwargs):
            raise AssertionError(f"{stage} ran before the output directory was resolved")

        monkeypatch.delenv("LEONET_OUT", raising=False)
        monkeypatch.setattr(cli, stage, work)
        argv = [command, "--scenario", str(tiny_file)]
        if command != "simulate":
            argv += ["--paths", str(tmp_path / "paths.csv")]
        if command == "export":
            argv += ["--format", "geojson"]
        with pytest.raises(SystemExit, match="output directory is required"):
            main(argv)

    def test_bad_scenario_returns_nonzero(self, tmp_path, capsys):
        code = main(
            ["simulate", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_baseline_run_imports_neither_scipy_nor_numpy_ma(self, tiny_file, tmp_path):
        code = (
            "import sys\n"
            "from leonet.cli import main\n"
            f"assert main(['simulate', '--scenario', {str(tiny_file)!r}, "
            f"'--out', {str(tmp_path / 'run')!r}]) == 0\n"
            "print(sorted(m for m in ('scipy', 'numpy.ma') if m in sys.modules))\n"
        )
        src = str(Path(harness.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
