"""Square-grid spatial graph, random-walk transition matrix, and chain analysis.

Node ids are 1-based, row-major from the south-west corner: node 1 is the
south-west corner, node c the south-east corner, and node c*(c-1)+1 the
north-west corner. For node i, row r = (i-1)//c + 1 (south to north) and
column q = (i-1) % c + 1 (west to east); its position in meters is
((q-1)*spacing, (r-1)*spacing). Arrays indexed by node store node i at
position i-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CompositeSizeError, ConfigError


@dataclass(frozen=True)
class SpatialGrid:
    """Undirected 4-connected c-by-c lattice over nodes 1..c*c."""

    side_count: int
    spacing: float
    node_count: int
    degrees: np.ndarray
    neighbors: tuple

    def node_row_col(self, node: int) -> tuple[int, int]:
        """(row, column) of a node, both 1-based, row 1 at the south edge."""
        if not 1 <= node <= self.node_count:
            raise IndexError(f"node {node} outside [1, {self.node_count}]")
        return (node - 1) // self.side_count + 1, (node - 1) % self.side_count + 1

    def node_position(self, node: int) -> tuple[float, float]:
        """(x, y) coordinates in meters of a node's grid point."""
        row, col = self.node_row_col(node)
        return (col - 1) * self.spacing, (row - 1) * self.spacing


def build_grid(side_count: int, spacing: float) -> SpatialGrid:
    """Build the c-by-c grid graph with 4-connectivity.

    Raises ConfigError for side_count < 1 or non-positive spacing.
    """
    if not isinstance(side_count, (int, np.integer)) or side_count < 1:
        raise ConfigError(f"side_count must be a positive integer, got {side_count!r}")
    if not spacing > 0:
        raise ConfigError(f"spacing must be positive, got {spacing!r}")
    c = int(side_count)
    n = c * c
    neighbors = []
    for i in range(1, n + 1):
        row, col = (i - 1) // c + 1, (i - 1) % c + 1
        nbrs = []
        if row > 1:
            nbrs.append(i - c)
        if col > 1:
            nbrs.append(i - 1)
        if col < c:
            nbrs.append(i + 1)
        if row < c:
            nbrs.append(i + c)
        neighbors.append(tuple(nbrs))
    degrees = np.array([len(nbrs) for nbrs in neighbors], dtype=np.int64)
    degrees.flags.writeable = False
    return SpatialGrid(
        side_count=c,
        spacing=float(spacing),
        node_count=n,
        degrees=degrees,
        neighbors=tuple(neighbors),
    )


def build_transition_matrix(grid: SpatialGrid) -> np.ndarray:
    """Row-stochastic matrix of the lazy uniform walk on the grid.

    Each row i puts probability 1/(d_i + 1) on node i itself and on each of
    its d_i lattice neighbors, and 0 elsewhere.
    """
    n = grid.node_count
    p = np.zeros((n, n))
    for i in range(1, n + 1):
        w = 1.0 / (grid.degrees[i - 1] + 1)
        p[i - 1, i - 1] = w
        for j in grid.neighbors[i - 1]:
            p[i - 1, j - 1] = w
    p.flags.writeable = False
    return p


def stationary_from_degrees(grid: SpatialGrid) -> np.ndarray:
    """Closed-form stationary distribution: pi_i = (d_i + 1) / sum_j (d_j + 1)."""
    w = grid.degrees + 1.0
    return w / w.sum()


def stationary_distribution(matrix, tol: float = 1e-12, max_iterations: int = 200_000) -> np.ndarray:
    """Stationary distribution by power iteration to an L1 residual below tol.

    Works for dense arrays and scipy sparse matrices. Raises ValueError if the
    residual does not drop below tol within max_iterations (malformed matrix).
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        nxt = pi @ matrix
        nxt = np.asarray(nxt).reshape(n)
        if np.abs(nxt - pi).sum() < tol:
            return nxt / nxt.sum()
        pi = nxt
    raise ValueError(
        f"power iteration did not reach residual {tol} in {max_iterations} iterations"
    )


def check_irreducible(matrix) -> bool:
    """True iff the support graph of a square stochastic matrix is strongly connected.

    Counts the strong components of the graph of positive entries; no
    numerics. Accepts dense arrays or scipy sparse matrices.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if n == 0:
        return False
    from scipy.sparse.csgraph import connected_components  # slow import, analysis only

    return connected_components(sp.csr_array(matrix > 0), connection="strong")[0] == 1


@dataclass(frozen=True)
class CompositeChain:
    """Joint chain of all robots' positions; analysis tool only.

    States are tuples (i_1, ..., i_N) of 1-based node ids, enumerated in
    lexicographic order with robot 1 most significant, so the tuple at flat
    index m satisfies m = sum_a (i_a - 1) * S^(N - a). Transitions are stored
    as a sparse CSR matrix with entries q = prod_a p[i_a, j_a].
    """

    robot_count: int
    node_count: int
    state_count: int
    transition: sp.csr_array

    def state_index(self, state: tuple) -> int:
        if len(state) != self.robot_count:
            raise ValueError(f"state must have {self.robot_count} entries")
        idx = 0
        for node in state:
            if not 1 <= node <= self.node_count:
                raise IndexError(f"node {node} outside [1, {self.node_count}]")
            idx = idx * self.node_count + (node - 1)
        return idx

    def state_tuple(self, index: int) -> tuple:
        if not 0 <= index < self.state_count:
            raise IndexError(f"state index {index} outside [0, {self.state_count})")
        out = []
        for _ in range(self.robot_count):
            index, rem = divmod(index, self.node_count)
            out.append(rem + 1)
        return tuple(reversed(out))


def build_composite_chain(
    transition_matrix: np.ndarray,
    robot_count: int,
    max_states: int = 1_000_000,
) -> CompositeChain:
    """N-fold product chain of independent walkers sharing one transition matrix.

    The product structure makes the joint matrix the N-fold Kronecker power of
    the single-robot matrix. Raises CompositeSizeError when S^N exceeds
    max_states; this is a verification tool, never used by the simulation loop.
    """
    if robot_count < 1:
        raise ConfigError(f"robot_count must be >= 1, got {robot_count}")
    s = transition_matrix.shape[0]
    states = s**robot_count
    if states > max_states:
        raise CompositeSizeError(
            f"composite chain has {s}^{robot_count} = {states} states, "
            f"above the cap of {max_states}"
        )
    base = sp.csr_array(transition_matrix)
    q = base
    for _ in range(robot_count - 1):
        q = sp.kron(q, base, format="csr")
    return CompositeChain(
        robot_count=robot_count,
        node_count=s,
        state_count=states,
        transition=sp.csr_array(q),
    )
