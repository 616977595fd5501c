"""Tests of the benchmark's own logic: seeded inputs, span arithmetic and the
fingerprint gate. Run with ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import fingerprint_dir, fingerprint_mismatches  # noqa: E402
from spans import Tracer, install, layer_summary, self_times  # noqa: E402
from workloads import WORKLOADS, scenario_json  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert scenario_json(workload, 7) == scenario_json(workload, 7)
    assert scenario_json(workload, 7) != scenario_json(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stations_inside_the_covered_band(workload):
    sc = json.loads(scenario_json(workload, 3))
    points = []
    for st in sc["stations"]:
        if st["kind"] == "ground":
            points.append(st)
        else:
            points += [st["trajectory"]["start"], st["trajectory"]["end"]]
    assert points and all(abs(p["lat_deg"]) <= 50.0 for p in points)


def test_generated_scenarios_load(tmp_path):
    from leonet.scenario import load_scenario

    for workload in WORKLOADS:
        path = tmp_path / f"{workload}.json"
        path.write_text(scenario_json(workload, 5))
        assert load_scenario(path).constellation.total_sats == 1600


def test_self_time_subtracts_nested_children():
    # root 0..10 holds a 1..4 (which holds 2..3) and b 5..9
    spans = [
        [0, -1, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 1, "a.inner", 2.0, 3.0],
        [3, 0, "b", 5.0, 9.0],
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        [0, -1, "root", 0.0, 10.0],
        [1, 0, "x", 5.0, 9.0],
        [2, 0, "y", 7.0, 12.0],  # overlaps x and runs past the parent's end
    ]
    # children cover 5..10 once: self = 10 - 5
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_layer_summary_groups_by_name():
    spans = [
        [0, -1, "cli", 0.0, 4.0],
        [1, 0, "topology.snapshot", 0.5, 1.5],
        [2, 0, "topology.snapshot", 2.0, 3.0],
    ]
    seconds, calls = layer_summary(spans)
    assert seconds == pytest.approx({"cli": 2.0, "topology.snapshot": 2.0})
    assert calls["topology.snapshot"] == 2


def test_install_wraps_call_sites_and_uninstall_restores():
    import leonet.constellation
    import leonet.harness

    original = leonet.harness.build_walker
    tracer = Tracer("t")
    target = ("leonet.constellation", "build_walker", "constellation.build", None)
    uninstall = install(tracer, [target])
    try:
        assert leonet.harness.build_walker is not original
        cfg = leonet.constellation.ConstellationConfig(
            sats_per_plane=4, planes=4, phase_factor=0, altitude_km=550.0,
            inclination_deg=53.0, epoch=leonet.geometry.utc(2025, 1, 1),
        )
        with tracer.span("root"):
            leonet.harness.build_walker(cfg)
    finally:
        uninstall()
    assert leonet.harness.build_walker is original
    assert [s[2] for s in tracer.spans] == ["root", "constellation.build"]
    assert tracer.spans[1][1] == 0


def test_mutated_artifact_fails_fingerprint(tmp_path):
    (tmp_path / "paths.csv").write_text("t,algorithm\n1,sp\n")
    (tmp_path / "summary.csv").write_text("a,b\n")
    reference = fingerprint_dir(tmp_path)
    assert fingerprint_mismatches(reference, fingerprint_dir(tmp_path)) == []

    (tmp_path / "paths.csv").write_text("t,algorithm\n1,lh\n")
    assert fingerprint_mismatches(reference, fingerprint_dir(tmp_path)) == ["paths.csv"]

    (tmp_path / "summary.csv").unlink()
    (tmp_path / "extra.csv").write_text("x\n")
    assert fingerprint_mismatches(reference, fingerprint_dir(tmp_path)) == [
        "extra.csv", "paths.csv", "summary.csv",
    ]


@pytest.mark.parametrize("grid,bias", [("+Grid", (0,)), ("*Grid", (-1, 0))])
def test_grid_hops_match_bfs_over_the_template(grid, bias):
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    from leonet.constellation import ConstellationConfig, build_walker
    from leonet.geometry import utc
    from leonet.topology import IslPattern, build_persistent_isls
    from workloads import grid_hops

    cfg = ConstellationConfig(
        sats_per_plane=40, planes=40, phase_factor=0, altitude_km=550.0,
        inclination_deg=53.0, epoch=utc(2025, 1, 1),
    )
    pairs = build_persistent_isls(build_walker(cfg), IslPattern(grid, bias)).pairs
    a, b = pairs[:, 0], pairs[:, 1]
    graph = csr_matrix((np.ones(2 * len(a)), (np.r_[a, b], np.r_[b, a])), shape=(1600, 1600))
    sources = np.arange(0, 1600, 37)
    expected = shortest_path(graph, unweighted=True, indices=sources)
    assert np.array_equal(grid_hops(sources, np.arange(1600), grid), expected)
