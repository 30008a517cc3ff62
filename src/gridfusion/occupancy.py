"""Belief data model: two-valued occupancy vectors and feature PMFs.

A robot's occupancy vector holds, for every grid node, either the occupied
level (written lbar below, in (0.5, 1)) or the unoccupied level 1 - lbar.
Storing a boolean mask plus the scalar level makes any other value
unrepresentable. Normalizing the vector yields the robot's feature PMF, its
opinion about where features sit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class OccupancyVector:
    """Two-valued belief over nodes: mask[i] True means node i+1 is occupied."""

    mask: np.ndarray
    level: float

    def __post_init__(self):
        if not 0.5 < self.level < 1.0:
            raise ValueError(f"occupancy level must lie in (0.5, 1), got {self.level}")
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 1 or mask.size < 1:
            raise ValueError("mask must be a non-empty 1-d boolean array")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "level", float(self.level))

    @property
    def size(self) -> int:
        return self.mask.size

    @property
    def values(self) -> np.ndarray:
        """Per-node levels: level where occupied, 1 - level elsewhere."""
        return np.where(self.mask, self.level, 1.0 - self.level)

    def occupied_nodes(self) -> tuple:
        """Sorted 1-based ids of nodes currently believed occupied."""
        return tuple(int(i) + 1 for i in np.flatnonzero(self.mask))


def nominal_occupancy(node_count: int, level: float) -> OccupancyVector:
    """The all-unoccupied prior every robot starts from."""
    return OccupancyVector(np.zeros(node_count, dtype=bool), level)


def pmf_from_occupancy(theta: OccupancyVector) -> np.ndarray:
    """Normalize an occupancy vector into a PMF over nodes.

    The denominator is at least S * (1 - level) > 0, so this never divides
    by zero; an all-unoccupied vector yields the uniform PMF.
    """
    vals = theta.values
    return vals / vals.sum()


@dataclass(frozen=True)
class FeatureField:
    """Ground truth: the occupied node set plus the reference and nominal PMFs."""

    node_count: int
    occupied: frozenset
    level: float = 0.8
    mask: np.ndarray = field(init=False, repr=False)
    f_ref: np.ndarray = field(init=False, repr=False)
    f_nom: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        occupied = frozenset(int(s) for s in self.occupied)
        bad = [s for s in occupied if not 1 <= s <= self.node_count]
        if bad:
            raise ValueError(
                f"feature nodes {sorted(bad)} outside [1, {self.node_count}]"
            )
        object.__setattr__(self, "occupied", occupied)
        mask = np.zeros(self.node_count, dtype=bool)
        mask[[s - 1 for s in occupied]] = True
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        for name, marked in (("f_ref", mask), ("f_nom", np.zeros_like(mask))):
            pmf = pmf_from_occupancy(OccupancyVector(marked, self.level))
            pmf.flags.writeable = False
            object.__setattr__(self, name, pmf)


def sense_and_update(theta: OccupancyVector, node: int, field_: FeatureField) -> OccupancyVector:
    """Perfect sensing at a node: raise the entry to the occupied level iff the
    node carries a feature. Idempotent; never lowers an entry.
    """
    if not 1 <= node <= theta.size:
        raise IndexError(f"node {node} outside [1, {theta.size}]")
    if node not in field_.occupied or theta.mask[node - 1]:
        return theta
    mask = theta.mask.copy()
    mask[node - 1] = True
    return OccupancyVector(mask, theta.level)


def circle_nodes(side_count: int, center_col: float, center_row: float, radius: float) -> tuple:
    """Nodes forming a discrete ring: grid points whose distance from the
    center (in cell units, columns east, rows north) falls in
    [radius - 0.5, radius + 0.5). Returns sorted 1-based node ids.

    On an 8x8 grid, center (4, 5) with radius 2 reproduces the twelve-node
    discretized circle used throughout the tests.
    """
    out = []
    for node in range(1, side_count * side_count + 1):
        row = (node - 1) // side_count + 1
        col = (node - 1) % side_count + 1
        dist = math.hypot(col - center_col, row - center_row)
        if radius - 0.5 <= dist < radius + 0.5:
            out.append(node)
    return tuple(out)
