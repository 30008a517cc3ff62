"""Square-grid spatial graph, random-walk transition matrix, and chain analysis.

Node ids are 1-based, row-major from the south-west corner: node 1 is the
south-west corner, node c the south-east corner, and node c*(c-1)+1 the
north-west corner. For node i, row r = (i-1)//c + 1 (south to north) and
column q = (i-1) % c + 1 (west to east); its position in meters is
((q-1)*spacing, (r-1)*spacing), row i-1 of ``SpatialGrid.coordinates``.
Arrays indexed by node store node i at position i-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CompositeSizeError, ConfigError


@dataclass(frozen=True)
class SpatialGrid:
    """Undirected 4-connected c-by-c lattice over nodes 1..c*c.

    ``choices`` is the read-only (S + 1) x 5 int64 table of the lazy walk's
    choice lists: row i holds node i and its lattice neighbors in ascending
    id, then zero padding, and row 0 is all zeros, so the table is indexed
    by 1-based node id. ``degrees`` (node i at position i - 1) is read off it.
    """

    side_count: int
    spacing: float
    node_count: int
    degrees: np.ndarray
    choices: np.ndarray

    @cached_property
    def neighbors(self) -> tuple:
        """Lattice neighbors of each node, ascending; node i at position i - 1."""
        return tuple(
            tuple(j for j in row if j and j != node)
            for node, row in enumerate(self.choices[1:].tolist(), start=1)
        )

    def node_row_col(self, node: int) -> tuple[int, int]:
        """(row, column) of a node, both 1-based, row 1 at the south edge."""
        if not 1 <= node <= self.node_count:
            raise IndexError(f"node {node} outside [1, {self.node_count}]")
        return (node - 1) // self.side_count + 1, (node - 1) % self.side_count + 1

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Read-only S x 2 array of each node's (x, y) in meters; node i at row i - 1."""
        cells = np.arange(self.node_count)
        xy = np.stack([cells % self.side_count, cells // self.side_count], axis=1) * self.spacing
        xy.flags.writeable = False
        return xy


def _is_int(value) -> bool:
    """An integer that is not a bool (True would otherwise count as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number that is not a bool; NaN passes and fails the range tests."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_grid_args(side_count, spacing) -> None:
    """Raise ConfigError unless side_count is a positive integer small enough
    that numpy can size the (S + 1) x 5 int64 choice table, spacing is
    positive and finite, the squared diagonal 2 * ((side_count - 1) *
    spacing)^2 is finite, so no squared distance on the grid overflows, and
    spacing^2 is at least the smallest normal float, so none underflows."""
    if not _is_int(side_count) or side_count < 1:
        raise ConfigError(f"side_count must be a positive integer, got {side_count!r}")
    if 40 * (int(side_count) ** 2 + 1) > np.iinfo(np.intp).max:
        raise ConfigError(f"side_count {side_count!r} is too large to index a grid")
    if not _is_real(spacing) or not 0 < spacing < np.inf:
        raise ConfigError(f"spacing must be positive and finite, got {spacing!r}")
    span = (int(side_count) - 1) * float(spacing)
    if not np.isfinite(2 * span * span):
        raise ConfigError(f"spacing {spacing!r} on {side_count} nodes per side overflows "
                          f"the squared diagonal")
    if float(spacing) * float(spacing) < np.finfo(float).tiny:
        raise ConfigError(f"spacing {spacing!r} underflows its square")


def build_grid(side_count: int, spacing: float) -> SpatialGrid:
    """Build the c-by-c grid graph with 4-connectivity; check_grid_args
    rules on the arguments."""
    check_grid_args(side_count, spacing)
    c = int(side_count)
    n = c * c
    node = np.arange(1, n + 1)
    row, col = (node - 1) // c, (node - 1) % c
    # candidates in ascending id: south, west, self, east, north
    candidates = node[:, None] + np.array([-c, -1, 0, 1, c])
    on_grid = np.stack([row > 0, col > 0, np.full(n, True), col < c - 1, row < c - 1], axis=1)
    # pack each row's on-grid candidates to the left, keeping their order
    packed = np.sort(np.where(on_grid, candidates, n + 1), axis=1)
    choices = np.zeros((n + 1, 5), dtype=np.int64)
    choices[1:] = np.where(packed > n, 0, packed)
    choices.flags.writeable = False
    degrees = np.count_nonzero(choices[1:], axis=1) - 1
    degrees.flags.writeable = False
    return SpatialGrid(
        side_count=c,
        spacing=float(spacing),
        node_count=n,
        degrees=degrees,
        choices=choices,
    )


def build_transition_matrix(grid: SpatialGrid) -> np.ndarray:
    """Row-stochastic matrix of the lazy uniform walk on the grid.

    Each row i puts probability 1/(d_i + 1) on node i itself and on each of
    its d_i lattice neighbors, and 0 elsewhere.
    """
    n = grid.node_count
    p = np.zeros((n, n))
    table = grid.choices[1:]
    rows, slots = np.nonzero(table)
    p[rows, table[rows, slots] - 1] = 1.0 / (grid.degrees[rows] + 1)
    p.flags.writeable = False
    return p


def stationary_from_degrees(grid: SpatialGrid) -> np.ndarray:
    """Closed-form stationary distribution: pi_i = (d_i + 1) / sum_j (d_j + 1)."""
    w = grid.degrees + 1.0
    return w / w.sum()


def stationary_distribution(matrix, max_iterations: int = 200_000) -> np.ndarray:
    """Stationary distribution by power iteration to an L1 residual below 1e-12.

    Works for dense arrays and scipy sparse matrices. Raises ValueError if the
    residual does not drop below 1e-12 within max_iterations (malformed matrix).
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        nxt = pi @ matrix
        nxt = np.asarray(nxt).reshape(n)
        if np.abs(nxt - pi).sum() < 1e-12:
            return nxt / nxt.sum()
        pi = nxt
    raise ValueError(
        f"power iteration did not reach residual 1e-12 in {max_iterations} iterations"
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
    import scipy.sparse as sp  # slow import, analysis only
    from scipy.sparse.csgraph import connected_components

    return connected_components(sp.csr_array(matrix > 0), connection="strong")[0] == 1


@dataclass(frozen=True)
class CompositeChain:
    """Joint chain of all robots' positions; analysis tool only.

    States are tuples (i_1, ..., i_N) of 1-based node ids, enumerated in
    lexicographic order with robot 1 most significant, so the tuple at flat
    index m satisfies m = sum_a (i_a - 1) * S^(N - a). Transitions are stored
    as a scipy.sparse.csr_array with entries q = prod_a p[i_a, j_a].
    """

    robot_count: int
    node_count: int
    state_count: int
    transition: object  # scipy.sparse.csr_array; scipy is imported on first use


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
    import scipy.sparse as sp  # slow import, analysis only

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
