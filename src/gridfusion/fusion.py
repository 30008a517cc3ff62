"""Opinion fusion: Metropolis weights, log-domain Chernoff pooling, and the
threshold-and-merge occupancy updates applied after an encounter."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occupancy import OccupancyVector

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FusionWeights:
    """Weights a robot assigns to itself and each neighbor; they sum to 1."""

    robot_id: int
    weights: dict

    def items(self):
        return self.weights.items()

    @property
    def self_weight(self) -> float:
        return self.weights[self.robot_id]


def metropolis_weights(robot_id: int, neighbor_degrees) -> FusionWeights:
    """Max-degree Metropolis-Hastings weights for one fusion step.

    neighbor_degrees maps each current neighbor b to its own neighbor count
    |N_b| (at least 1, since b sees this robot). Each neighbor gets
    1 / (1 + max(|N_a|, |N_b|)), where |N_a| = len(neighbor_degrees); the
    remainder stays on the robot itself. The weights are symmetric and
    non-negative on any graph (Xiao, Boyd & Lall, IPSN 2005); on a clique
    every neighbor gets 1 / g. With an empty map the robot keeps weight 1
    and fusion is a no-op.
    """
    own_count = len(neighbor_degrees)
    weights = {}
    for b, count in neighbor_degrees.items():
        if b == robot_id:
            raise ValueError("neighbor_degrees must not include the robot itself")
        if count < 1:
            raise ValueError(f"neighbor {b} has neighbor count {count}, expected >= 1")
        weights[b] = 1.0 / (1 + max(own_count, count))
    weights[robot_id] = 1.0 - sum(weights.values())
    return FusionWeights(robot_id=robot_id, weights=weights)


def chernoff_fuse(opinions) -> np.ndarray:
    """Fuse PMFs as a normalized weighted geometric mean, in log domain.

    opinions is a sequence of (pmf, weight) pairs whose weights sum to 1.
    Accumulates sum_b w_b * log f_b, subtracts the log normalizer, and
    exponentiates, so repeated products cannot drift the normalization.
    Every PMF must be strictly positive (occupancy-derived PMFs always are).
    """
    if not opinions:
        raise ValueError("need at least one opinion to fuse")
    total = sum(w for _, w in opinions)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"fusion weights sum to {total}, expected 1")
    size = len(opinions[0][0])
    active = []
    for pmf, weight in opinions:
        pmf = np.asarray(pmf, dtype=float)
        if pmf.shape != (size,):
            raise ValueError("all opinions must share one support size")
        if weight < 0.0:
            raise ValueError(f"negative fusion weight {weight}")
        if pmf.min() <= 0.0:
            raise ValueError(
                "opinion has a zero-probability node; occupancy-derived PMFs "
                "are strictly positive"
            )
        if weight > 0.0:
            active.append((pmf, weight))
    first = active[0][0]
    if all((pmf == first).all() for pmf, _ in active[1:]):
        # identical opinions (or weight 1 on one): the pool is the input
        # itself, so skip the log/exp round trip. The exponentials can land
        # one ulp above the input, which would trip strict-threshold
        # comparisons downstream even though nothing was learned.
        return first.copy()
    log_f = np.zeros(size)
    for pmf, weight in active:
        log_f += weight * np.log(pmf)
    shift = log_f.max()
    log_norm = shift + np.log(np.exp(log_f - shift).sum())
    return np.exp(log_f - log_norm)


def threshold_fused(f_cher: np.ndarray, f_nom: np.ndarray, level: float) -> OccupancyVector:
    """Re-discretize a fused PMF: occupied exactly where it strictly exceeds
    the nominal PMF (ties count as unoccupied)."""
    f_cher = np.asarray(f_cher, dtype=float)
    f_nom = np.asarray(f_nom, dtype=float)
    if f_cher.shape != f_nom.shape:
        raise ValueError("fused and nominal PMFs must share one support size")
    return OccupancyVector(f_cher > f_nom, level)


def merge_occupancy(
    theta_prev: OccupancyVector,
    theta_cher: OccupancyVector,
    theta_nom: OccupancyVector,
) -> OccupancyVector:
    """Combine a robot's previous vector with the fused one: a node becomes
    occupied when either exceeds the nominal level, otherwise it keeps its
    previous value. For two-valued vectors against the all-unoccupied nominal
    this is the union of occupied sets, the merge the engine applies, so
    fusion order among co-located robots cannot change the result.
    """
    if not theta_prev.size == theta_cher.size == theta_nom.size:
        raise ValueError("occupancy vectors must share one grid size")
    if not theta_prev.level == theta_cher.level == theta_nom.level:
        raise ValueError("occupancy vectors must share one level")
    return OccupancyVector(theta_prev.mask | theta_cher.mask, theta_prev.level)
