"""Belief data model: two-valued occupancy vectors and feature PMFs.

A robot's occupancy vector holds, for every grid node, either the occupied
level (written lbar below, in (0.5, 1)) or the unoccupied level 1 - lbar.
Storing a boolean mask plus the scalar level makes any other value
unrepresentable. Normalizing the vector yields the robot's feature PMF, its
opinion about where features sit. The engine keeps every robot's mask as one
row of an (N, S) boolean array and normalizes them all with :func:`pmf_rows`.
"""

from __future__ import annotations

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


def pmf_rows(masks: np.ndarray, level: float) -> np.ndarray:
    """Normalize each row of an (N, S) occupancy mask array into a PMF.

    A row's denominator is at least S * (1 - level) > 0, so this never
    divides by zero; an all-unoccupied row yields the uniform PMF.
    """
    vals = np.where(masks, level, 1.0 - level)
    return vals / vals.sum(axis=1, keepdims=True)


def pmf_from_occupancy(theta: OccupancyVector) -> np.ndarray:
    """Normalize an occupancy vector into a PMF over nodes (one row of
    :func:`pmf_rows`)."""
    return pmf_rows(theta.mask[None], theta.level)[0]


@dataclass(frozen=True)
class FeatureField:
    """Ground truth: the occupied node set plus the reference and nominal PMFs."""

    node_count: int
    occupied: frozenset
    level: float
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
            pmf = pmf_rows(marked[None], self.level)[0]
            pmf.flags.writeable = False
            object.__setattr__(self, name, pmf)


def circle_nodes(side_count: int, center_col: float, center_row: float, radius: float) -> tuple:
    """Nodes forming a discrete ring: grid points whose distance from the
    center (in cell units, columns east, rows north) falls in
    [radius - 0.5, radius + 0.5). Returns sorted 1-based node ids.

    On an 8x8 grid, center (4, 5) with radius 2 reproduces the twelve-node
    discretized circle used throughout the tests.
    """
    axis = np.arange(1, side_count + 1)
    dist = np.hypot(axis - center_col, (axis - center_row)[:, None])  # [row, col]
    ring = (radius - 0.5 <= dist) & (dist < radius + 0.5)
    return tuple((np.flatnonzero(ring) + 1).tolist())
