import math
import typing

import numpy as np
import pytest

from gridfusion.engine import RunConfig, build_comm_graph
from gridfusion.errors import CompositeSizeError, ConfigError
from gridfusion.spatial import (
    CompositeChain,
    SpatialGrid,
    build_composite_chain,
    build_grid,
    build_transition_matrix,
    check_grid_args,
    check_irreducible,
    stationary_distribution,
    stationary_from_degrees,
)


def lattice_degree(c, node):
    """Oracle: count in-bounds 4-neighbors directly from (row, col)."""
    row, col = (node - 1) // c, (node - 1) % c
    return sum([row > 0, row < c - 1, col > 0, col < c - 1])


@pytest.mark.parametrize("c", [*range(1, 13), 64])
def test_choices_and_neighbors_match_a_brute_force_lattice(c):
    # oracle: the node plus every node at Manhattan distance 1, ascending,
    # found by comparing node_row_col of every pair of nodes
    grid = build_grid(c, 1.0)
    rc = np.array([grid.node_row_col(j) for j in range(1, grid.node_count + 1)])
    assert grid.choices.shape == (grid.node_count + 1, 5)
    assert grid.choices.dtype == np.int64 and not grid.choices.flags.writeable
    assert not grid.choices[0].any()
    for node in range(1, grid.node_count + 1):
        expected = (np.flatnonzero(np.abs(rc - rc[node - 1]).sum(axis=1) <= 1) + 1).tolist()
        assert grid.choices[node].tolist() == expected + [0] * (5 - len(expected))
        assert list(grid.neighbors[node - 1]) == [j for j in expected if j != node]
        assert grid.degrees[node - 1] == len(expected) - 1


def reference_transition_matrix(grid):
    """The per-node loop that built the matrix before the table did."""
    n = grid.node_count
    p = np.zeros((n, n))
    for i in range(1, n + 1):
        w = 1.0 / (grid.degrees[i - 1] + 1)
        p[i - 1, i - 1] = w
        for j in grid.neighbors[i - 1]:
            p[i - 1, j - 1] = w
    return p


@pytest.mark.parametrize("c", [*range(1, 10), 64])
def test_transition_matrix_is_bitwise_the_per_node_loop(c):
    grid = build_grid(c, 1.0)
    p = build_transition_matrix(grid)
    expected = reference_transition_matrix(grid)
    assert p.dtype == expected.dtype and p.shape == expected.shape
    assert (p.view(np.int64) == expected.view(np.int64)).all()
    assert not p.flags.writeable


def test_grid_8x8_degree_counts():
    grid = build_grid(8, 0.7)
    assert grid.node_count == 64
    expected = [lattice_degree(8, i) for i in range(1, 65)]
    assert grid.degrees.tolist() == expected
    counts = {d: expected.count(d) for d in (2, 3, 4)}
    assert counts == {2: 4, 3: 24, 4: 36}


def test_grid_single_node():
    grid = build_grid(1, 0.5)
    assert grid.node_count == 1
    assert grid.neighbors == ((),)
    assert grid.degrees.tolist() == [0]


def test_grid_2x2_all_corners():
    grid = build_grid(2, 1.0)
    assert grid.node_count == 4
    assert grid.degrees.tolist() == [2, 2, 2, 2]


@pytest.mark.parametrize("c", [1, 2, 3, 5, 8])
def test_grid_edges_are_unit_lattice_steps(c):
    grid = build_grid(c, 1.0)
    for i, nbrs in enumerate(grid.neighbors, start=1):
        assert list(nbrs) == sorted(nbrs)
        for j in nbrs:
            ri, ci = grid.node_row_col(i)
            rj, cj = grid.node_row_col(j)
            assert abs(ri - rj) + abs(ci - cj) == 1
            assert i in grid.neighbors[j - 1]
    # every lattice edge appears: 2c(c-1) of them, each listed from both ends
    assert sum(len(nbrs) for nbrs in grid.neighbors) == 4 * c * (c - 1)
    # degree array consistent with neighbor lists
    assert all(len(grid.neighbors[i]) == grid.degrees[i] for i in range(grid.node_count))


def test_grid_row_major_from_south_west():
    grid = build_grid(8, 0.7)
    assert grid.node_row_col(1) == (1, 1)
    assert grid.node_row_col(8) == (1, 8)
    assert grid.node_row_col(57) == (8, 1)
    assert grid.coordinates[0].tolist() == [0.0, 0.0]
    x, y = grid.coordinates[9]  # node 10: row 2, col 2
    assert x == pytest.approx(0.7) and y == pytest.approx(0.7)


@pytest.mark.parametrize("c,spacing", [(1, 0.7), (8, 0.7), (13, 1 / 3), (5, 2.5)])
def test_coordinates_are_column_and_row_times_spacing(c, spacing):
    grid = build_grid(c, spacing)
    xy = grid.coordinates
    assert xy.shape == (c * c, 2) and not xy.flags.writeable
    assert grid.coordinates is xy
    for node in range(1, c * c + 1):
        row, col = grid.node_row_col(node)
        # bitwise: the engine's in-range test compares these exact floats
        assert xy[node - 1].tolist() == [(col - 1) * spacing, (row - 1) * spacing]


def test_type_hints_resolve_without_scipy():
    for cls in (SpatialGrid, CompositeChain):
        typing.get_type_hints(cls)


def test_grid_rejects_bad_configuration():
    with pytest.raises(ConfigError):
        build_grid(0, 0.7)
    with pytest.raises(ConfigError):
        build_grid(8, 0.0)
    with pytest.raises(ConfigError):
        build_grid(8, -1.0)
    with pytest.raises(ConfigError):
        build_grid(8, float("inf"))


@pytest.mark.parametrize("side_count, spacing", [
    (True, 0.7), (2.0, 0.7), (8, True), (8, "0.7"), (8, math.nan), (8, 1e200),
    # spacings whose square underflows: zero at 1e-200, subnormal at 1e-160
    (8, 1e-200), (8, 1e-160),
    # side counts whose choice table numpy cannot size; rejected before any allocation
    (10**30, 1e-40), (10**400, 0.7), (np.int64(2**62), 1e-30),
])
def test_build_grid_and_run_config_share_one_grid_rule(side_count, spacing):
    with pytest.raises(ConfigError):
        build_grid(side_count, spacing)
    with pytest.raises(ConfigError):
        RunConfig(side_count=side_count, spacing=spacing, features=()).validate()


def test_grid_rule_rejects_a_spacing_whose_squared_diagonal_overflows():
    with pytest.raises(ConfigError, match="overflows"):
        RunConfig(spacing=1e200, comm_radius=1e200).validate()
    # 2 * (7e153)^2 is finite, so this grid is kept and its far corners stay
    # out of range of each other
    grid = build_grid(8, 1e153)
    assert build_comm_graph(np.array([1, 8]), grid, 1e153) == ({}, [])
    assert build_grid(1, 1e300).node_count == 1


def test_grid_rule_rejects_a_spacing_whose_square_underflows():
    with pytest.raises(ConfigError, match="underflows"):
        RunConfig(spacing=1e-200, comm_radius=1e-200).validate()
    # (1.5e-154)^2 is a normal float, so this grid is kept and its far corners
    # stay out of range of each other
    grid = build_grid(8, 1.5e-154)
    assert build_comm_graph(np.array([1, 64]), grid, 1.5e-154) == ({}, [])


def test_grid_rule_bounds_the_side_count_by_the_choice_table_size():
    # the (c^2 + 1) x 5 int64 table takes 40 * (c^2 + 1) bytes, which must fit
    # in np.intp; check_grid_args only checks, so neither call allocates
    check_grid_args(480_191_941, 1e-12)
    with pytest.raises(ConfigError, match="too large"):
        check_grid_args(480_191_942, 1e-12)


def test_transition_corner_row():
    grid = build_grid(8, 0.7)
    p = build_transition_matrix(grid)
    row = p[0]
    support = np.flatnonzero(row) + 1
    assert support.tolist() == [1, 2, 9]
    assert np.allclose(row[support - 1], 1 / 3, atol=0, rtol=0)


def test_transition_single_node_is_identity():
    p = build_transition_matrix(build_grid(1, 1.0))
    assert p.shape == (1, 1) and p[0, 0] == 1.0


def test_transition_2x2_rows():
    p = build_transition_matrix(build_grid(2, 1.0))
    for row in p:
        support = np.flatnonzero(row)
        assert support.size == 3
        assert np.all(row[support] == 1 / 3)


@pytest.mark.parametrize("c", range(1, 17))
def test_transition_row_stochastic_and_supported(c):
    grid = build_grid(c, 1.0)
    p = build_transition_matrix(grid)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    for i in range(grid.node_count):
        expected = {i} | {j - 1 for j in grid.neighbors[i]}
        assert set(np.flatnonzero(p[i]).tolist()) == expected
        assert np.all(p[i, sorted(expected)] == 1.0 / (grid.degrees[i] + 1))


@pytest.mark.parametrize("c", range(2, 11))
def test_stationary_matches_closed_form(c):
    grid = build_grid(c, 1.0)
    p = build_transition_matrix(grid)
    pi = stationary_distribution(p)
    closed = stationary_from_degrees(grid)
    assert np.abs(pi - closed).max() < 1e-10
    assert np.abs(pi @ p - pi).sum() < 1e-12


def test_stationary_2x2_uniform():
    pi = stationary_distribution(build_transition_matrix(build_grid(2, 1.0)))
    assert np.abs(pi - 0.25).max() < 1e-12


def test_stationary_single_node():
    pi = stationary_distribution(build_transition_matrix(build_grid(1, 1.0)))
    assert pi.tolist() == [1.0]


def test_stationary_closed_form_uses_verified_total():
    grid = build_grid(8, 0.7)
    total = int((grid.degrees + 1).sum())
    assert total == 4 * 3 + 24 * 4 + 36 * 5 == 288
    closed = stationary_from_degrees(grid)
    assert closed[0] == pytest.approx(3 / 288, abs=1e-15)


@pytest.mark.parametrize("c", [3, 8])
def test_detailed_balance_entrywise(c):
    grid = build_grid(c, 1.0)
    p = build_transition_matrix(grid)
    pi = stationary_from_degrees(grid)
    lhs = pi[:, None] * p
    assert np.abs(lhs - lhs.T).max() < 1e-15


def test_stationary_flags_nonconvergent_matrix():
    # periodic support that power iteration oscillates on forever
    p = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        stationary_distribution(p, max_iterations=500)


@pytest.mark.parametrize("c", [1, 2, 3, 8, 16])
def test_grid_chains_are_irreducible(c):
    assert check_irreducible(build_transition_matrix(build_grid(c, 1.0)))


def test_identity_matrix_is_reducible():
    assert not check_irreducible(np.eye(2))


def brute_composite(p, n):
    """Oracle: dense joint matrix by direct product-of-entries enumeration."""
    s = p.shape[0]
    states = [
        tuple(idx)
        for idx in np.ndindex(*([s] * n))
    ]
    q = np.zeros((s**n, s**n))
    for a, sa in enumerate(states):
        for b, sb in enumerate(states):
            prob = 1.0
            for r in range(n):
                prob *= p[sa[r], sb[r]]
            q[a, b] = prob
    return q


def test_composite_2x2_two_robots_matches_enumeration():
    p = build_transition_matrix(build_grid(2, 1.0))
    chain = build_composite_chain(p, 2)
    assert chain.state_count == 16
    dense = chain.transition.toarray()
    assert np.array_equal(dense, brute_composite(p, 2))
    assert np.abs(dense.sum(axis=1) - 1.0).max() < 1e-10
    nnz_per_row = (dense > 0).sum(axis=1)
    assert np.all(nnz_per_row == 9)
    assert np.all(dense[dense > 0] == 1 / 9)
    assert check_irreducible(chain.transition)


def test_composite_entry_by_hand():
    # both robots start at node 1; robot 1 hops to 2, robot 2 hops to 3
    p = build_transition_matrix(build_grid(2, 1.0))
    chain = build_composite_chain(p, 2)
    # flat index of (i_1, i_2) is (i_1 - 1) * 4 + (i_2 - 1), robot 1 most significant
    q = chain.transition[0, 1 * 4 + 2]
    assert q == pytest.approx(p[0, 1] * p[0, 2], abs=0)
    assert q == pytest.approx(1 / 9, abs=1e-15)


def test_composite_single_robot_is_base_chain():
    p = build_transition_matrix(build_grid(3, 1.0))
    chain = build_composite_chain(p, 1)
    assert np.array_equal(chain.transition.toarray(), p)


def test_composite_stationary_is_product():
    p = build_transition_matrix(build_grid(2, 1.0))
    chain = build_composite_chain(p, 2)
    pi = stationary_distribution(p)
    pi_q = stationary_distribution(chain.transition)
    assert np.abs(pi_q - np.kron(pi, pi)).max() < 1e-8


@pytest.mark.parametrize("c,n", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_composite_row_stochastic_small(c, n):
    p = build_transition_matrix(build_grid(c, 1.0))
    chain = build_composite_chain(p, n)
    sums = np.asarray(chain.transition.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() < 1e-12


def test_composite_cap_raises():
    p = build_transition_matrix(build_grid(3, 1.0))
    with pytest.raises(CompositeSizeError):
        build_composite_chain(p, 8)  # 9^8 states blows the default cap
    with pytest.raises(CompositeSizeError):
        build_composite_chain(p, 2, max_states=80)
