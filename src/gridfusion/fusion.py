"""Opinion fusion: Metropolis weights, log-domain Chernoff pooling, and the
occupancy merge applied after an encounter.

After fusing, a robot marks occupied every node where the fused PMF strictly
exceeds the nominal one and unites that set with its own. The result need not
be the union of the whole group's sets: a node known to one member of a
well-informed group can stay below nominal in the fused PMF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occupancy import OccupancyVector

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FusionWeights:
    """Weights a robot assigns to itself and each neighbor; they sum to 1."""

    weights: dict

    def items(self):
        return self.weights.items()


def metropolis_weights(robot: int, neighbor_degrees) -> FusionWeights:
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
        if b == robot:
            raise ValueError("neighbor_degrees must not include the robot itself")
        if not count >= 1:
            raise ValueError(f"neighbor {b} has neighbor count {count}, expected >= 1")
        weights[b] = 1.0 / (1 + max(own_count, count))
    weights[robot] = 1.0 - sum(weights.values())
    return FusionWeights(weights)


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
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise ValueError(f"fusion weights sum to {total}, expected 1")
    size = len(opinions[0][0])
    active = []
    for pmf, weight in opinions:
        pmf = np.asarray(pmf, dtype=float)
        if pmf.shape != (size,):
            raise ValueError("all opinions must share one support size")
        if weight < 0.0:
            raise ValueError(f"negative fusion weight {weight}")
        if not pmf.min() > 0.0:
            raise ValueError(
                "opinion has a node that is not positive; occupancy-derived PMFs "
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
    log_f = active[0][1] * np.log(first)
    for pmf, weight in active[1:]:
        log_f += weight * np.log(pmf)
    shift = log_f.max()
    log_norm = shift + np.log(np.exp(log_f - shift).sum())
    return np.exp(log_f - log_norm)


def merge_occupancy(
    theta_prev: OccupancyVector,
    theta_cher: OccupancyVector,
    theta_nom: OccupancyVector,
) -> OccupancyVector:
    """Combine a robot's previous vector with its thresholded fused one: a
    node becomes occupied when either exceeds the nominal level, otherwise it
    keeps its previous value. For two-valued vectors against the
    all-unoccupied nominal this unites the two occupied sets, which is the
    merge the engine applies with ``fused > f_nom`` as the second vector.
    """
    if not theta_prev.size == theta_cher.size == theta_nom.size:
        raise ValueError("occupancy vectors must share one grid size")
    if not theta_prev.level == theta_cher.level == theta_nom.level:
        raise ValueError("occupancy vectors must share one level")
    return OccupancyVector(theta_prev.mask | theta_cher.mask, theta_prev.level)
