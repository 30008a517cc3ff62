import dataclasses

import numpy as np
import pytest

from gridfusion.engine import (
    DEFAULT_FEATURES,
    RunConfig,
    World,
    build_comm_graph,
    run,
)
from gridfusion.errors import ConfigError
from gridfusion.mobility import RngStream, RobotState
from gridfusion.occupancy import FeatureField, OccupancyVector, nominal_occupancy
from gridfusion.spatial import build_grid


def small_config(**kw):
    base = dict(robot_count=2, seed=0, max_steps=100)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_validate():
    cfg = RunConfig().validate()
    assert cfg.resolve_features() == DEFAULT_FEATURES


def test_config_rejects_bad_fields():
    bad = [
        dict(side_count=0),
        dict(spacing=0.0),
        dict(robot_count=0),
        dict(level=0.5),
        dict(level=1.0),
        dict(epsilon=0.0),
        dict(max_steps=0),
        dict(mode="hive"),
        dict(carry="raw"),
        dict(seed=-1),
        dict(comm_radius=-0.1),
        dict(comm_radius=float("nan")),
        dict(robot_count=True),
        dict(max_steps=True),
        dict(snapshot_steps=(True,)),
        dict(features=(1.5,)),
        dict(snapshot_steps=(-1,)),
        dict(step_seconds=0.0),
        dict(features=(0, 19)),
        dict(features=(65,)),
        dict(features="ring:1,2,3"),
        dict(features="circle:1,2"),
        dict(features="circle:a,b,c"),
        dict(spacing="abc"),
        dict(level=None),
        dict(epsilon=True),
        dict(snapshot_steps=5),
        dict(features=(19.5, 20)),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            RunConfig(**overrides).validate()


def test_config_rejects_maps_where_occupancy_distance_rises():
    # at level 0.8 on 8x8 a robot's occupancy-carry distance rises with its
    # first finds once 23 or more of the 64 nodes are features
    dense = RunConfig(features=tuple(range(1, 24)), robot_count=8, max_steps=200)
    with pytest.raises(ConfigError, match="--carry chernoff"):
        dense.validate()
    run(dataclasses.replace(dense, features=tuple(range(1, 23))))
    run(dataclasses.replace(dense, carry="chernoff"))


def test_config_circle_tag_matches_default_set():
    cfg = RunConfig(features="circle:4,5,2")
    assert cfg.resolve_features() == tuple(sorted(DEFAULT_FEATURES))


# ---------------------------------------------------------------------------
# communication graph


def test_comm_graph_colocated_clique():
    grid = build_grid(8, 0.7)
    graph, groups = build_comm_graph(3, np.array([10, 10, 10, 44]), grid, 0.0)
    assert graph.neighbors_of(1) == frozenset({2, 3})
    assert graph.neighbors_of(2) == frozenset({1, 3})
    assert graph.neighbors_of(4) == frozenset()
    assert groups == [(10, (1, 2, 3))]


def test_comm_graph_symmetric_irreflexive():
    grid = build_grid(8, 0.7)
    graph, _ = build_comm_graph(0, np.array([5, 5, 9, 9, 9]), grid, 0.0)
    for a, nbrs in graph.neighbor_sets.items():
        assert a not in nbrs
        for b in nbrs:
            assert a in graph.neighbors_of(b)


def test_comm_graph_radius_connects_adjacent_nodes():
    grid = build_grid(8, 0.7)
    # nodes 1 and 2 are one spacing apart; radius covers them
    graph, groups = build_comm_graph(0, np.array([1, 2, 30]), grid, 0.7)
    assert graph.neighbors_of(1) == frozenset({2})
    assert graph.neighbors_of(3) == frozenset()
    assert groups == [(1, (1, 2))]


def test_comm_graph_radius_chains_into_one_component():
    grid = build_grid(8, 0.7)
    graph, groups = build_comm_graph(0, np.array([1, 2, 3]), grid, 0.7)
    assert graph.neighbors_of(2) == frozenset({1, 3})
    assert graph.neighbors_of(1) == frozenset({2})
    assert len(groups) == 1 and groups[0][1] == (1, 2, 3)


def test_comm_graph_small_radius_means_colocation():
    grid = build_grid(8, 0.7)
    graph, _ = build_comm_graph(0, np.array([1, 2]), grid, 0.3)
    assert graph.neighbor_sets == {}


# ---------------------------------------------------------------------------
# tick behavior


def test_single_robot_consensus_equals_no_consensus():
    a = run(small_config(robot_count=1, mode="consensus"))
    b = run(small_config(robot_count=1, mode="no-consensus"))
    assert np.array_equal(a.distances, b.distances)
    assert a.encounters == ()


def test_colocated_nominal_robots_stay_nominal():
    # single-node featureless grid: both robots sit on node 1 forever
    cfg = RunConfig(side_count=1, robot_count=2, features=(), max_steps=5,
                    epsilon=1e-9, seed=4)
    world = World.from_config(cfg)
    for _ in range(3):
        world.tick()
    assert not world.masks.any()
    assert len(world.encounters) == 3


def test_fusion_unions_occupied_sets_through_a_tick():
    # frozen seed: both robots step from node 36 onto the same feature-free
    # node, so the only belief change in the tick is the fusion itself
    seed = 2
    grid = build_grid(8, 0.7)
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    masks = np.zeros((2, 64), dtype=bool)
    masks[0, 19 - 1] = True
    masks[1, 20 - 1] = True
    robots = [
        RobotState(1, 36, OccupancyVector(masks[0], 0.8)),
        RobotState(2, 36, OccupancyVector(masks[1], 0.8)),
    ]
    streams = [RngStream.from_seed(seed, a) for a in (1, 2)]
    world = World(grid, field, RunConfig(robot_count=2, seed=seed), robots, streams)
    world.tick()
    assert len(world.encounters) == 1
    assert world.encounters[0].node not in DEFAULT_FEATURES
    for idx in range(2):
        assert (np.flatnonzero(world.masks[idx]) + 1).tolist() == [19, 20]


def test_run_trivial_threshold_converges_immediately():
    trace = run(small_config(epsilon=1.1))
    assert trace.convergence_step == 0
    assert trace.distances.shape[0] == 1
    assert not trace.censored


def test_run_minimal_horizon_censors():
    trace = run(small_config(max_steps=1, epsilon=1e-9))
    assert trace.censored
    assert trace.convergence_step is None
    assert trace.distances.shape[0] == 2  # the initial record plus one tick


def test_mode_equivalence_without_encounters():
    # frozen seed: these two robots never meet within the horizon
    cfg = small_config(seed=2, max_steps=60, epsilon=1e-9)
    consensus = run(cfg)
    baseline = run(dataclasses.replace(cfg, mode="no-consensus"))
    assert consensus.encounters == ()
    assert np.array_equal(consensus.distances, baseline.distances)
    assert np.array_equal(consensus.final_masks, baseline.final_masks)


def test_walks_are_shared_across_modes_and_robot_counts():
    # the randomness contract keys robot a's placement and walk by the run
    # seed and a alone, so robots 1..4 visit the same nodes in either mode and
    # at 4 or 16 robots; acceptance criterion 7 compares runs through this
    worlds = {
        (mode, n): World.from_config(RunConfig(seed=5, robot_count=n, mode=mode))
        for mode in ("consensus", "no-consensus") for n in (4, 16)
    }
    for step in range(101):
        if step:
            for world in worlds.values():
                world.tick()
        paths = {key: world.positions[:4].tolist() for key, world in worlds.items()}
        reference = paths[("no-consensus", 4)]
        for key, path in paths.items():
            assert path == reference, f"{key} after tick {step}: {path} != {reference}"


def test_permuting_robot_ids_permutes_the_trace():
    cfg = RunConfig(robot_count=3, seed=6, max_steps=80, epsilon=1e-9)
    reference = World.from_config(cfg)
    perm = [2, 0, 1]  # new index -> original robot index
    originals = reference.robot_states()
    streams = [RngStream.from_seed(cfg.seed, a) for a in (1, 2, 3)]
    robots = [
        dataclasses.replace(originals[orig], robot_id=new + 1)
        for new, orig in enumerate(perm)
    ]
    permuted = World(
        reference.grid, reference.field, cfg, robots, [streams[i] for i in perm]
    )
    rows_ref, rows_perm = [], []
    for _ in range(40):
        rows_ref.append(reference.tick().distances)
        rows_perm.append(permuted.tick().distances)
    ref = np.array(rows_ref)
    per = np.array(rows_perm)
    assert np.array_equal(per, ref[:, perm])


def test_canonical_run_is_monotone_and_complete():
    trace = run(RunConfig(seed=11))
    diffs = np.diff(trace.distances, axis=0)
    assert diffs.max() <= 1e-12
    assert not trace.censored
    assert np.all(trace.distances[-1] == 0.0)
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    assert np.array_equal(trace.final_masks, np.tile(field.mask, (4, 1)))


def test_robot_convergence_steps_match_distance_rows():
    trace = run(RunConfig(seed=13))
    eps = 0.01
    for idx, first in enumerate(trace.robot_convergence):
        col = trace.distances[:, idx]
        expected = int(np.flatnonzero(col < eps)[0])
        assert first == expected
    assert trace.convergence_step == trace.distances.shape[0] - 1


def test_chernoff_carry_runs_deterministically():
    cfg = RunConfig(seed=3, carry="chernoff", max_steps=800)
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.distances, b.distances)
    # occupancy vectors stay inside the feature set even with raw carry
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    assert not np.any(a.final_masks & ~field.mask)


def test_chernoff_carry_can_raise_distances():
    # raw fused opinions wobble; pick a seed where a bump is visible
    for seed in range(20):
        trace = run(RunConfig(seed=seed, carry="chernoff", max_steps=600))
        if np.diff(trace.distances, axis=0).max() > 1e-9:
            return
    pytest.fail("no distance increase observed in any chernoff-carry run")


def test_snapshots_recorded_at_requested_steps():
    trace = run(RunConfig(seed=1, snapshot_steps=(0, 5, 10)))
    assert set(trace.snapshots) == {0, 5, 10}
    for pmf in trace.snapshots.values():
        assert pmf.shape == (4, 64)
        assert np.abs(pmf.sum(axis=1) - 1.0).max() < 1e-12
    assert np.all(trace.snapshots[0] == 1 / 64)


def test_encounters_are_ordered_and_well_formed():
    trace = run(RunConfig(seed=1))
    for enc in trace.encounters:
        assert 1 <= enc.step <= trace.step_count
        assert 1 <= enc.node <= 64
        assert list(enc.robots) == sorted(enc.robots)
        assert len(enc.robots) >= 2
    steps = [enc.step for enc in trace.encounters]
    assert steps == sorted(steps)


def test_world_rejects_mismatched_robots():
    cfg = small_config()
    grid = build_grid(8, 0.7)
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    robots = [RobotState(1, 1, nominal_occupancy(64, 0.8))]
    with pytest.raises(ConfigError):
        World(grid, field, cfg, robots, [RngStream.from_seed(0, 1)])
    bad_level = [
        RobotState(1, 1, nominal_occupancy(64, 0.9)),
        RobotState(2, 1, nominal_occupancy(64, 0.9)),
    ]
    with pytest.raises(ConfigError):
        World(grid, field, cfg, bad_level,
              [RngStream.from_seed(0, a) for a in (1, 2)])
    off_field = np.zeros(64, dtype=bool)
    off_field[0] = True  # node 1 carries no feature
    false_positive = [
        RobotState(1, 1, OccupancyVector(off_field, 0.8)),
        RobotState(2, 1, nominal_occupancy(64, 0.8)),
    ]
    with pytest.raises(ConfigError):
        World(grid, field, cfg, false_positive,
              [RngStream.from_seed(0, a) for a in (1, 2)])
