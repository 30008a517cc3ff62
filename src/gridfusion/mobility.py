"""Per-robot random-walk state and the seeded stochastic step.

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

from dataclasses import dataclass

import numpy as np

from .occupancy import OccupancyVector, nominal_occupancy

UNIFORM_BLOCK = 4096


class RngStream:
    """Buffered float64 uniform stream over a PCG64 generator.

    Buffering in blocks is invisible: numpy fills blocks with the same value
    sequence that repeated single draws produce.
    """

    __slots__ = ("generator", "_buffer", "_next")

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self._buffer = np.empty(0)
        self._next = 0

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
        out = np.empty(n)
        filled = 0
        while filled < n:
            if self._next >= self._buffer.size:
                self._buffer = self.generator.random(UNIFORM_BLOCK)
                self._next = 0
            count = min(n - filled, self._buffer.size - self._next)
            out[filled:filled + count] = self._buffer[self._next:self._next + count]
            self._next += count
            filled += count
        return out


@dataclass(frozen=True)
class RobotState:
    """A robot's id, current node (1-based) and belief."""

    robot_id: int
    node: int
    belief: OccupancyVector


def transition_supports(transition_matrix: np.ndarray) -> tuple:
    """Per-node choice lists for the uniform walk: 1-based ids of the positive
    entries of each row (the node itself plus its neighbors, ascending)."""
    return tuple(
        np.flatnonzero(row > 0) + 1 for row in np.asarray(transition_matrix)
    )


def choice_table(grid) -> np.ndarray:
    """Choice lists of the lazy uniform walk, read off ``grid.neighbors``.

    Row i of the (S + 1) x 5 int64 table holds node i's choice list (the node
    itself and its neighbors, ascending) followed by zero padding; row 0 is
    all zeros, so the table is indexed by 1-based node id. The rows equal
    ``transition_supports(build_transition_matrix(grid))`` without building
    the S x S matrix.
    """
    table = np.zeros((grid.node_count + 1, 5), dtype=np.int64)
    for node, nbrs in enumerate(grid.neighbors, start=1):
        choices = sorted((node, *nbrs))
        table[node, :len(choices)] = choices
    return table


def sample_next(node: int, supports: tuple, rng: RngStream) -> int:
    """Draw the next node uniformly from a node's choice list (one uniform)."""
    choices = supports[node - 1]
    return int(choices[int(rng.uniform() * choices.size)])


def initialize_robots(count: int, node_count: int, rng: RngStream, level: float = 0.8) -> list:
    """Place robots 1..count at independent uniform nodes with nominal beliefs.

    Consumes one uniform per robot from the placement stream, in id order.
    """
    if count < 1:
        raise ValueError(f"robot count must be >= 1, got {count}")
    nominal = nominal_occupancy(node_count, level)
    return [
        RobotState(robot_id=a, node=int(u * node_count) + 1, belief=nominal)
        for a, u in enumerate(rng.take(count).tolist(), start=1)
    ]
