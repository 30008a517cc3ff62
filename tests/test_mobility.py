import numpy as np
import pytest

from gridfusion.mobility import (
    RngStream,
    initialize_robots,
    choice_table,
    sample_next,
    transition_supports,
)
from gridfusion.spatial import build_grid, build_transition_matrix, stationary_from_degrees


def make_stream(run_seed=0, key=1):
    return RngStream.from_seed(run_seed, key)


def test_stream_is_reproducible():
    a = make_stream(42, 3)
    b = make_stream(42, 3)
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]


def test_stream_buffering_matches_plain_generator():
    stream = make_stream(7, 2)
    plain = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, 2])))
    drawn = [stream.uniform() for _ in range(10_000)]
    assert drawn == plain.random(10_000).tolist()


def test_stream_keys_are_independent():
    a = [make_stream(0, 1).uniform() for _ in range(8)]
    b = [make_stream(0, 2).uniform() for _ in range(8)]
    assert a != b


def test_stream_rejects_negative_seed():
    with pytest.raises(ValueError):
        RngStream.from_seed(-1, 0)
    with pytest.raises(ValueError):
        RngStream.from_seed(0, -2)


def test_sample_next_on_single_node_grid_stays_put():
    supports = transition_supports(build_transition_matrix(build_grid(1, 1.0)))
    rng = make_stream()
    for _ in range(20):
        assert sample_next(1, supports, rng) == 1


def test_corner_node_frequencies_match_transition_row():
    # from the 8x8 corner the walk picks uniformly among {stay, east, north}
    supports = transition_supports(build_transition_matrix(build_grid(8, 0.7)))
    rng = make_stream(123, 1)
    counts = {1: 0, 2: 0, 9: 0}
    draws = 100_000
    for _ in range(draws):
        counts[sample_next(1, supports, rng)] += 1
    for node, count in counts.items():
        assert abs(count / draws - 1 / 3) < 0.01, f"node {node}"


def test_fixed_seed_reproduces_trajectory():
    supports = transition_supports(build_transition_matrix(build_grid(8, 0.7)))
    walks = []
    for _ in range(2):
        rng = make_stream(55, 1)
        node = 10
        path = []
        for _ in range(100):
            node = sample_next(node, supports, rng)
            path.append(node)
        walks.append(path)
    assert walks[0] == walks[1]


def test_sample_next_matches_choice_table():
    # the engine's planned walk indexes the choice table with the same uniform
    grid = build_grid(4, 1.0)
    supports = transition_supports(build_transition_matrix(grid))
    table = choice_table(grid)
    rng_a, rng_b = make_stream(9, 1), make_stream(9, 1)
    node = 6
    for _ in range(200):
        nxt = sample_next(node, supports, rng_a)
        assert nxt == table[node, int(rng_b.uniform() * (grid.degrees[node - 1] + 1))]
        node = nxt


def test_initialize_robots_uniform_nominal():
    robots = initialize_robots(4, 64, make_stream(0, 0))
    assert [r.robot_id for r in robots] == [1, 2, 3, 4]
    for r in robots:
        assert 1 <= r.node <= 64
        f = r.belief.values / r.belief.values.sum()
        assert np.all(f == 1 / 64)


def test_initialize_single_robot():
    robots = initialize_robots(1, 9, make_stream(3, 0))
    assert len(robots) == 1 and not robots[0].belief.mask.any()


def test_initialize_is_seeded():
    a = [r.node for r in initialize_robots(8, 64, make_stream(17, 0))]
    b = [r.node for r in initialize_robots(8, 64, make_stream(17, 0))]
    assert a == b


def test_initialize_rejects_bad_count():
    with pytest.raises(ValueError):
        initialize_robots(0, 64, make_stream())


def test_initialize_placement_covers_grid():
    nodes = [r.node for r in initialize_robots(2000, 4, make_stream(1, 0))]
    counts = np.bincount(nodes, minlength=5)[1:]
    assert np.all(counts > 400)  # roughly uniform over the four nodes


def test_long_run_occupancy_matches_stationary():
    grid = build_grid(2, 1.0)
    p = build_transition_matrix(grid)
    supports = transition_supports(p)
    pi = stationary_from_degrees(grid)
    rng = make_stream(2024, 1)
    node = 1
    counts = np.zeros(4)
    steps = 1_000_000
    for _ in range(steps):
        node = sample_next(node, supports, rng)
        counts[node - 1] += 1
    freq = counts / steps
    assert np.abs(freq - pi).max() < 0.005


def test_distinct_robots_walk_independently():
    supports = transition_supports(build_transition_matrix(build_grid(8, 0.7)))
    paths = []
    for key in (1, 2):
        rng = make_stream(4, key)
        paths.append(tuple(sample_next(28, supports, rng) for _ in range(30)))
    assert paths[0] != paths[1]
