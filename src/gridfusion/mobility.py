"""Seeded random streams, robot placement and the random-walk step.

Randomness contract (traces are portable across any implementation of it):

* Generator: numpy PCG64 (128-bit state), seeded with
  ``SeedSequence([run_seed, key])``. Key 0 is the placement stream; key a is
  robot a's walk stream, so walks are mutually independent given one run seed.
* Each stream is consumed as a sequence of float64 uniforms in [0, 1).
  Placement draws one uniform per robot in id order and maps it to
  ``floor(u * S) + 1``. Each movement step draws one uniform and picks entry
  ``floor(u * (d + 1))`` from the node's choice list: the node itself and its
  d lattice neighbors, in ascending node id (node 10 on the 8x8 grid has the
  list ``[2, 9, 10, 11, 18]``).
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """float64 uniform stream over a PCG64 generator."""

    __slots__ = ("generator",)

    def __init__(self, generator: np.random.Generator):
        self.generator = generator

    @classmethod
    def from_seed(cls, run_seed: int, key: int) -> "RngStream":
        if run_seed < 0 or key < 0:
            raise ValueError("run_seed and key must be non-negative")
        return cls(np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([run_seed, key])
        )))

    def uniform(self) -> float:
        return self.take(1)[0]

    def take(self, n: int) -> np.ndarray:
        """The next n uniforms, exactly as n calls of :meth:`uniform` return them."""
        return self.generator.random(n)


def transition_supports(transition_matrix: np.ndarray) -> tuple:
    """Per-node choice lists for the uniform walk: 1-based ids of the positive
    entries of each row (the node itself plus its neighbors, ascending)."""
    return tuple(
        np.flatnonzero(row > 0) + 1 for row in np.asarray(transition_matrix)
    )


def sample_next(node: int, supports: tuple, rng: RngStream) -> int:
    """Draw the next node uniformly from a node's choice list (one uniform)."""
    choices = supports[node - 1]
    return int(choices[int(rng.uniform() * choices.size)])


def initialize_robots(count: int, node_count: int, rng: RngStream) -> np.ndarray:
    """Start nodes (1-based, int64) of robots 1..count, independent and uniform.

    Consumes one uniform per robot from the placement stream, in id order.
    """
    if count < 1:
        raise ValueError(f"robot count must be >= 1, got {count}")
    return (rng.take(count) * node_count).astype(np.int64) + 1
