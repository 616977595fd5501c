"""leonet: LEO constellation network simulation and geographic forwarding."""

from .constellation import (
    ConstellationConfig,
    Constellation,
    TimeGrid,
    build_walker,
    max_phase_factor,
)
from .geometry import (
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_PER_S,
    SPEED_OF_LIGHT_KM_PER_S,
    GeodeticPoint,
    ecef_to_eci,
    eci_to_ecef,
    elevation_angle,
    geodesic_distance,
    geodetic_to_ecef,
    link_equator_angle,
)
from .harness import ExperimentResult, analyze_rows, run_experiment
from .metrics import path_evolution, path_independence
from .routing import (
    ALGORITHMS,
    LocationTable,
    MplfHeader,
    Path,
    PathSet,
    bellman_ford,
    enumerate_paths,
    ler_encapsulate,
    trace_path,
)
from .scenario import Scenario, Trajectory, load_scenario
from .topology import (
    IslPattern,
    Snapshot,
    Station,
    build_persistent_isls,
    detect_eisls,
    direction_histogram,
    snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Constellation",
    "ConstellationConfig",
    "EARTH_RADIUS_KM",
    "EARTH_ROTATION_RAD_PER_S",
    "ExperimentResult",
    "GeodeticPoint",
    "IslPattern",
    "LocationTable",
    "MplfHeader",
    "Path",
    "PathSet",
    "Scenario",
    "Snapshot",
    "SPEED_OF_LIGHT_KM_PER_S",
    "Station",
    "TimeGrid",
    "Trajectory",
    "analyze_rows",
    "bellman_ford",
    "build_persistent_isls",
    "build_walker",
    "detect_eisls",
    "direction_histogram",
    "ecef_to_eci",
    "eci_to_ecef",
    "elevation_angle",
    "enumerate_paths",
    "geodesic_distance",
    "geodetic_to_ecef",
    "ler_encapsulate",
    "link_equator_angle",
    "load_scenario",
    "max_phase_factor",
    "path_evolution",
    "path_independence",
    "run_experiment",
    "snapshot",
    "trace_path",
]
