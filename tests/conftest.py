"""Session-scoped experiment runs shared by the acceptance tests.

Each shipped scenario is executed once per test session; fixtures hand out
the result together with the wall-clock runtime of the run.
"""

import time
import warnings
from collections import namedtuple
from pathlib import Path

import pytest

# Hypothesis imports its failure-patch helper only to report a failing
# property, and that import raises a DeprecationWarning from a dependency
# (libcst's use of mypy_extensions). Under -W error the warning would crash
# the session instead of reporting the failure, so the helper is imported
# once here, with warnings ignored for that import alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis reports without patches
        pass

from leonet.harness import _path_sets, run_experiment
from leonet.routing import STATUSES
from leonet.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

LogRow = namedtuple(
    "LogRow", "t algorithm src_station dst_station src_sat hop_list latency_ms status"
)


def log_rows(result):
    """A run's path log as one LogRow per path, for checks written row by row."""
    log, stamps = result.path_log, result.scenario.time.stamps()
    eis = [st.ei for st in result.scenario.stations]
    names = [(algo, eis[si], eis[di]) for (si, di), algo in _path_sets(result.scenario)]
    sats, starts = log.sats.tolist(), log.starts.tolist()
    cols = (log.stamp.tolist(), log.path_set.tolist(), log.latency_ms.tolist(), log.end.tolist())
    return [
        LogRow(stamps[i], *names[k], sats[a], tuple(sats[a:b]), ms, STATUSES[e])
        for i, k, ms, e, a, b in zip(*cols, starts, starts[1:])
    ]


def run_shipped(name: str, parallel: int = 1):
    scenario = load_scenario(SCENARIO_DIR / name)
    t0 = time.perf_counter()
    result = run_experiment(scenario, parallel=parallel)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def exp1_small():
    """20x20 shell, three fixed city pairs. Serial keeps decision stats."""
    return run_shipped("experiment1_20x20.json")


@pytest.fixture(scope="session")
def exp1_large():
    """40x40 shell, same city pairs. Serial keeps decision stats."""
    return run_shipped("experiment1_40x40.json")


@pytest.fixture(scope="session")
def exp2():
    """Path diversity and stability run on the 40x40 shell."""
    return run_shipped("experiment2_40x40.json", parallel=2)


@pytest.fixture(scope="session")
def exp3():
    """Eleven moving stations converging on one fixed station."""
    return run_shipped("experiment3_moving.json")
