"""Hellinger distance between feature PMFs."""

from __future__ import annotations

import numpy as np


def hellinger(f: np.ndarray, g: np.ndarray) -> float:
    """Hellinger distance sqrt(1 - sum_s sqrt(f(s) * g(s))), in [0, 1]: the
    one-row case of :func:`hellinger_batch`, which the engine runs.

    Equals exactly 0.0 for bitwise-identical PMFs.
    """
    return float(hellinger_batch(np.asarray(f, dtype=float)[None], g)[0])


def hellinger_batch(pmfs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Hellinger distance of each row of pmfs against g.

    The Bhattacharyya overlap sum_s sqrt(f(s) * g(s)) is clamped into [0, 1],
    and a row bitwise equal to g gets exactly 0.0: rounding in the sum can
    land one ulp under 1 and would otherwise report two equal PMFs as
    distinct.
    """
    pmfs = np.asarray(pmfs, dtype=float)
    g = np.asarray(g, dtype=float)
    if pmfs.ndim != 2 or pmfs.shape[1] != g.shape[0]:
        raise ValueError(f"support sizes differ: {pmfs.shape} vs {g.shape}")
    rho = np.minimum(np.maximum(np.sqrt(pmfs * g).sum(axis=1), 0.0), 1.0)
    dist = np.sqrt(1.0 - rho)
    dist[(pmfs == g).all(axis=1)] = 0.0
    return dist
