"""Seedable multi-robot simulation of occupancy-grid reconstruction via
random-walk exploration and distributed Chernoff opinion fusion."""

from .engine import DEFAULT_FEATURES, CommGraph, RunConfig, RunTrace, World, run
from .errors import CompositeSizeError, ConfigError, EngineInvariantError
from .fusion import FusionWeights, chernoff_fuse, merge_occupancy, metropolis_weights, threshold_fused
from .metrics import HellingerRecord, bhattacharyya, converged, hellinger
from .mobility import RngStream, RobotState, initialize_robots
from .occupancy import (
    FeatureField,
    OccupancyVector,
    circle_nodes,
    nominal_occupancy,
    pmf_from_occupancy,
    sense_and_update,
)
from .spatial import (
    CompositeChain,
    SpatialGrid,
    build_composite_chain,
    build_grid,
    build_transition_matrix,
    check_irreducible,
    stationary_distribution,
    stationary_from_degrees,
)

__version__ = "0.1.0"

__all__ = [
    "CommGraph",
    "CompositeChain",
    "CompositeSizeError",
    "ConfigError",
    "DEFAULT_FEATURES",
    "EngineInvariantError",
    "FeatureField",
    "FusionWeights",
    "HellingerRecord",
    "OccupancyVector",
    "RngStream",
    "RobotState",
    "RunConfig",
    "RunTrace",
    "SpatialGrid",
    "World",
    "bhattacharyya",
    "build_composite_chain",
    "build_grid",
    "build_transition_matrix",
    "chernoff_fuse",
    "check_irreducible",
    "circle_nodes",
    "converged",
    "hellinger",
    "initialize_robots",
    "merge_occupancy",
    "metropolis_weights",
    "nominal_occupancy",
    "pmf_from_occupancy",
    "run",
    "sense_and_update",
    "stationary_distribution",
    "stationary_from_degrees",
    "threshold_fused",
]
