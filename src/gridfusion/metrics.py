"""Similarity metrics between feature PMFs and the convergence test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def bhattacharyya(f: np.ndarray, g: np.ndarray) -> float:
    """Bhattacharyya coefficient sum_s sqrt(f(s) * g(s)), clamped into [0, 1].

    Bitwise-identical inputs short-circuit to exactly 1.0: rounding in the
    64-term sum can land one ulp under 1 and would otherwise report two equal
    PMFs as distinct.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError(f"support sizes differ: {f.shape} vs {g.shape}")
    if np.array_equal(f, g):
        return 1.0
    rho = float(np.sqrt(f * g).sum())
    return min(max(rho, 0.0), 1.0)


def hellinger(f: np.ndarray, g: np.ndarray) -> float:
    """Hellinger distance sqrt(1 - bhattacharyya(f, g)), in [0, 1]: the
    one-row case of :func:`hellinger_batch`, which the engine runs.

    Equals exactly 0.0 for bitwise-identical PMFs.
    """
    return float(hellinger_batch(np.asarray(f, dtype=float)[None], g)[0])


def hellinger_batch(pmfs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Hellinger distance of each row of pmfs against g, with the same
    clamping and exact-equality semantics as the scalar form."""
    pmfs = np.asarray(pmfs, dtype=float)
    g = np.asarray(g, dtype=float)
    if pmfs.ndim != 2 or pmfs.shape[1] != g.shape[0]:
        raise ValueError(f"support sizes differ: {pmfs.shape} vs {g.shape}")
    rho = np.minimum(np.maximum(np.sqrt(pmfs * g).sum(axis=1), 0.0), 1.0)
    dist = np.sqrt(1.0 - rho)
    dist[(pmfs == g).all(axis=1)] = 0.0
    return dist


@dataclass(frozen=True)
class HellingerRecord:
    """Per-robot distances to the reference PMF at one time step.

    The distances are stored read-only. A read-only float array is kept as
    is, so records of steps where nothing changed can share one row.
    """

    step: int
    distances: np.ndarray

    def __post_init__(self):
        distances = self.distances
        if not (isinstance(distances, np.ndarray) and distances.dtype == float
                and not distances.flags.writeable):
            distances = np.array(distances, dtype=float)
            distances.flags.writeable = False
        object.__setattr__(self, "distances", distances)


def converged(record: HellingerRecord, epsilon: float) -> bool:
    """True iff every robot's distance is strictly below epsilon."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return bool(np.all(record.distances < epsilon))
