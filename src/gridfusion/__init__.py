"""Seedable multi-robot simulation of occupancy-grid reconstruction via
random-walk exploration and distributed Chernoff opinion fusion."""

from .engine import DEFAULT_FEATURES, RunConfig, RunTrace, World, run
from .errors import CompositeSizeError, ConfigError, EngineInvariantError
from .fusion import FusionWeights, chernoff_fuse, merge_occupancy, metropolis_weights
from .metrics import hellinger
from .mobility import RngStream, initialize_robots
from .occupancy import FeatureField, OccupancyVector, circle_nodes, pmf_from_occupancy
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
    "CompositeChain",
    "CompositeSizeError",
    "ConfigError",
    "DEFAULT_FEATURES",
    "EngineInvariantError",
    "FeatureField",
    "FusionWeights",
    "OccupancyVector",
    "RngStream",
    "RunConfig",
    "RunTrace",
    "SpatialGrid",
    "World",
    "build_composite_chain",
    "build_grid",
    "build_transition_matrix",
    "chernoff_fuse",
    "check_irreducible",
    "circle_nodes",
    "hellinger",
    "initialize_robots",
    "merge_occupancy",
    "metropolis_weights",
    "pmf_from_occupancy",
    "run",
    "stationary_distribution",
    "stationary_from_degrees",
]
