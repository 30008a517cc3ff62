import numpy as np
import pytest

from gridfusion.errors import CompositeSizeError, ConfigError
from gridfusion.spatial import (
    build_composite_chain,
    build_grid,
    build_transition_matrix,
    check_irreducible,
    stationary_distribution,
    stationary_from_degrees,
)


def lattice_degree(c, node):
    """Oracle: count in-bounds 4-neighbors directly from (row, col)."""
    row, col = (node - 1) // c, (node - 1) % c
    return sum([row > 0, row < c - 1, col > 0, col < c - 1])


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
    assert grid.node_position(1) == (0.0, 0.0)
    x, y = grid.node_position(10)  # row 2, col 2
    assert x == pytest.approx(0.7) and y == pytest.approx(0.7)


def test_grid_rejects_bad_configuration():
    with pytest.raises(ConfigError):
        build_grid(0, 0.7)
    with pytest.raises(ConfigError):
        build_grid(8, 0.0)
    with pytest.raises(ConfigError):
        build_grid(8, -1.0)


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
    q = chain.transition[chain.state_index((1, 1)), chain.state_index((2, 3))]
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


def test_state_index_round_trip():
    p = build_transition_matrix(build_grid(2, 1.0))
    chain = build_composite_chain(p, 3)
    for idx in range(chain.state_count):
        assert chain.state_index(chain.state_tuple(idx)) == idx
    with pytest.raises(IndexError):
        chain.state_tuple(chain.state_count)
    with pytest.raises(IndexError):
        chain.state_index((1, 1, 5))
