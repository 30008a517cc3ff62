import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfusion import engine, fusion, occupancy
from gridfusion.engine import (
    _TRIPLES,
    DEFAULT_FEATURES,
    PLAN_TICKS,
    RunConfig,
    World,
    _step_keys,
    build_comm_graph,
    run,
)
from gridfusion.errors import ConfigError, EngineInvariantError
from gridfusion.mobility import RngStream
from gridfusion.occupancy import FeatureField
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
        dict(step_seconds=math.inf),
        dict(step_seconds=math.nan),
        dict(spacing=math.inf),
        dict(spacing=math.inf, comm_radius=math.inf),
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
        dict(features="circle:nan,4,2"),
        dict(features="circle:4,5,inf"),
        dict(features="circle:4,5,nan"),
        dict(features="circle:-inf,5,2"),
        # only a tuple or a list of ids: validate must not consume an iterator
        dict(features=iter(DEFAULT_FEATURES)),
        dict(features=np.array(DEFAULT_FEATURES)),
        dict(features=range(19, 22)),
        dict(features={}),
    ]
    # building a config checks it, whether by the constructor or by replace
    for overrides in bad:
        with pytest.raises(ConfigError):
            RunConfig(**overrides)
        with pytest.raises(ConfigError):
            dataclasses.replace(RunConfig(), **overrides)
    # a non-finite ring would resolve to an empty map; the error names the spec
    with pytest.raises(ConfigError, match="'circle:4,5,inf'"):
        RunConfig(features="circle:4,5,inf").resolve_features()


def test_config_rejects_maps_where_occupancy_distance_rises():
    # at level 0.8 on 8x8 a robot's occupancy-carry distance rises with its
    # first finds once 23 or more of the 64 nodes are features
    with pytest.raises(ConfigError, match="--carry chernoff"):
        RunConfig(features=tuple(range(1, 24)), robot_count=8, max_steps=200)
    sparse = RunConfig(features=tuple(range(1, 23)), robot_count=8, max_steps=200)
    run(sparse)
    with pytest.raises(ConfigError, match="--carry chernoff"):
        dataclasses.replace(sparse, features=tuple(range(1, 24)))
    # features and carry change together, in one replace
    run(dataclasses.replace(sparse, features=tuple(range(1, 24)), carry="chernoff"))


def test_config_accepts_a_dense_map_whose_runs_end_at_step_zero():
    dense = RunConfig(features=tuple(range(1, 24)), robot_count=2, carry="chernoff")
    start = World.from_config(dense).dh[0]
    with pytest.raises(ConfigError):
        dataclasses.replace(dense, carry="occupancy", epsilon=start)
    above = dataclasses.replace(dense, carry="occupancy", epsilon=float(np.nextafter(start, 1)))
    assert run(above).convergence_step == 0


def test_config_accepts_a_full_map():
    # every node is a feature, so the nominal PMF is the reference
    for side in (1, 2, 3, 8):
        full = RunConfig(side_count=side, features=tuple(range(1, side * side + 1)),
                         epsilon=1e-300)
        trace = run(full)
        assert trace.convergence_step == 0 and trace.distances.tolist() == [[0.0] * 4]


def test_config_circle_tag_matches_default_set():
    cfg = RunConfig(features="circle:4,5,2")
    assert cfg.resolve_features() == tuple(sorted(DEFAULT_FEATURES))


# ---------------------------------------------------------------------------
# communication graph


def test_comm_graph_colocated_clique():
    grid = build_grid(8, 0.7)
    graph, groups = build_comm_graph(np.array([10, 10, 10, 44]), grid, 0.0)
    assert graph == {1: frozenset({2, 3}), 2: frozenset({1, 3}), 3: frozenset({1, 2})}
    assert groups == [(10, (1, 2, 3))]


def test_comm_graph_symmetric_irreflexive():
    grid = build_grid(8, 0.7)
    graph, _ = build_comm_graph(np.array([5, 5, 9, 9, 9]), grid, 0.0)
    assert sorted(graph) == [1, 2, 3, 4, 5]
    for a, nbrs in graph.items():
        assert a not in nbrs
        for b in nbrs:
            assert a in graph[b]


def test_comm_graph_radius_connects_adjacent_nodes():
    grid = build_grid(8, 0.7)
    # nodes 1 and 2 are one spacing apart; radius covers them
    graph, groups = build_comm_graph(np.array([1, 2, 30]), grid, 0.7)
    assert graph == {1: frozenset({2}), 2: frozenset({1})}
    assert groups == [(1, (1, 2))]


def test_comm_graph_radius_chains_into_one_component():
    grid = build_grid(8, 0.7)
    graph, groups = build_comm_graph(np.array([1, 2, 3]), grid, 0.7)
    assert graph[2] == frozenset({1, 3})
    assert graph[1] == frozenset({2})
    assert len(groups) == 1 and groups[0][1] == (1, 2, 3)


def test_comm_graph_small_radius_means_colocation():
    grid = build_grid(8, 0.7)
    graph, groups = build_comm_graph(np.array([1, 2]), grid, 0.3)
    assert graph == {} and groups == []


def reference_comm_graph(positions, grid, comm_radius):
    """Neighbor sets and groups from scipy's connected_components on the
    graph of robots whose grid points lie within comm_radius (any robots on
    one node when comm_radius is below the spacing)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    xy = []
    for node in positions:
        row, col = grid.node_row_col(node)
        xy.append(((col - 1) * grid.spacing, (row - 1) * grid.spacing))
    reach = comm_radius * comm_radius if comm_radius >= grid.spacing else 0.0

    def in_range(a, b):
        dx, dy = xy[a][0] - xy[b][0], xy[a][1] - xy[b][1]
        return a != b and dx * dx + dy * dy <= reach

    n = len(positions)
    adj = np.array([[in_range(a, b) for b in range(n)] for a in range(n)])
    neighbor_sets = {a + 1: frozenset(int(b) + 1 for b in np.flatnonzero(adj[a]))
                     for a in range(n) if adj[a].any()}
    labels = connected_components(csr_array(adj), directed=False)[1]
    components = [np.flatnonzero(labels == label) + 1 for label in np.unique(labels)]
    groups = [(positions[m[0] - 1], tuple(m.tolist())) for m in components if m.size > 1]
    return neighbor_sets, sorted(groups, key=lambda group: group[1][0])


@settings(max_examples=300, deadline=None)
@given(
    positions=st.lists(st.integers(1, 64), min_size=1, max_size=16),
    # 1e200 squares to inf, which puts every robot in range
    comm_radius=st.sampled_from([0.0, 0.7, 1.0, 1.5, 3.0, 1e200, math.inf]),
)
def test_comm_graph_matches_scipy_components(positions, comm_radius):
    grid = build_grid(8, 0.7)
    got = build_comm_graph(np.array(positions), grid, comm_radius)
    want = reference_comm_graph(positions, grid, comm_radius)
    assert got == want
    # metropolis_weights sums in the sets' iteration order, so it is pinned too
    assert {a: list(s) for a, s in got[0].items()} == {a: list(s) for a, s in want[0].items()}


# ---------------------------------------------------------------------------
# tick behavior


def test_single_robot_consensus_equals_no_consensus():
    a = run(small_config(robot_count=1, mode="consensus"))
    b = run(small_config(robot_count=1, mode="no-consensus"))
    assert np.array_equal(a.distances, b.distances)
    assert a.final_pmfs.tobytes() == b.final_pmfs.tobytes()


def test_colocated_nominal_robots_stay_nominal():
    # single-node featureless grid: both robots sit on node 1 forever
    cfg = RunConfig(side_count=1, robot_count=2, features=(), max_steps=5,
                    epsilon=1e-9, seed=4)
    world = World.from_config(cfg)
    for _ in range(3):
        world.tick()
        assert world.positions.tolist() == [1, 1]
    assert not world.masks.any()
    assert np.array_equal(world.opinions(), np.tile(world.field.f_nom, (2, 1)))


def test_fusion_unions_occupied_sets_through_a_tick():
    # frozen seed: both robots step from node 36 onto the same feature-free
    # node, so the only belief change in the tick is the fusion itself
    seed = 2
    masks = np.zeros((2, 64), dtype=bool)
    masks[0, 19 - 1] = True
    masks[1, 20 - 1] = True
    streams = [RngStream.from_seed(seed, a) for a in (1, 2)]
    world = World(RunConfig(robot_count=2, seed=seed), [36, 36], masks, streams)
    world.tick()
    assert world.positions[0] == world.positions[1]
    assert world.positions[0] not in DEFAULT_FEATURES
    for idx in range(2):
        assert (np.flatnonzero(world.masks[idx]) + 1).tolist() == [19, 20]


def fusing_world(positions, comm_radius=0.0, carry="occupancy"):
    """A World with robots at the given nodes, robot a knowing only feature a."""
    n = len(positions)
    masks = np.zeros((n, 64), dtype=bool)
    masks[np.arange(n), np.array(DEFAULT_FEATURES[:n]) - 1] = True
    return World(RunConfig(robot_count=n, comm_radius=comm_radius, carry=carry), positions,
                 masks, [RngStream.from_seed(0, a) for a in range(1, n + 1)])


def fusion_calls(monkeypatch, world):
    """Run one meeting tick's fusion pass at the world's positions; returns
    the chernoff_fuse and metropolis_weights calls it made."""
    calls = {"chernoff_fuse": 0, "metropolis_weights": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(fusion, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(fusion, name, counted)
    world._event_tick([], True)
    return calls["chernoff_fuse"], calls["metropolis_weights"]


@pytest.mark.parametrize("positions, comm_radius, fuse_calls, weight_calls", [
    # a co-located group is a clique: one weight call gives every member's
    # list, and in a group of 2 or 4 every member gives each robot 1/g
    ([5, 5], 0.0, 1, 1),
    ([5, 5, 5, 5], 0.0, 1, 1),
    # in a group of 3 the self weight 1 - (1/3 + 1/3) is one ulp above 1/3,
    # so the three lists differ
    ([5, 5, 5], 0.0, 3, 1),
    # the wide-radius path asks every member for its weights: a pair fuses once
    ([1, 2], 0.7, 1, 2),
    ([5, 5], 0.7, 1, 2),
    # a chain 1-2-3: every member has its own list
    ([1, 2, 3], 0.7, 3, 3),
])
def test_fusion_pass_fuses_each_distinct_weight_list_once(monkeypatch, positions, comm_radius,
                                                          fuse_calls, weight_calls):
    world = fusing_world(positions, comm_radius)
    assert fusion_calls(monkeypatch, world) == (fuse_calls, weight_calls)


@pytest.mark.parametrize("carry", engine.CARRY_MODES)
def test_fusion_pass_equals_fusing_each_group_alone(monkeypatch, carry):
    # a pair on node 5 and a triple on node 9; robots on distinct nodes 1-3
    # hear no one, so each lone world fuses one of the two groups
    both = fusing_world([5, 5, 9, 9, 9], carry=carry)
    pair = fusing_world([5, 5, 1, 2, 3], carry=carry)
    triple = fusing_world([1, 2, 9, 9, 9], carry=carry)
    assert fusion_calls(monkeypatch, both) == (1 + 3, 2)
    for world in (pair, triple):
        world._event_tick([], True)
    for got, alone in ((both.masks, (pair.masks, triple.masks)),
                       (both.opinions(), (pair.opinions(), triple.opinions()))):
        assert got.tobytes() == np.concatenate((alone[0][:2], alone[1][2:])).tobytes()
    assert both.dh.tobytes() == np.concatenate((pair.dh[:2], triple.dh[2:])).tobytes()
    assert (both.masks.sum(axis=1) > 1).all()  # every robot learned from its group


def test_fusion_pass_names_the_first_robot_that_marks_a_non_feature_node():
    # pairs on nodes 5 and 9; robot 3's opinion also favours node 1, which is
    # no feature, so both robots of the second pair would mark it
    world = fusing_world([5, 5, 9, 9])
    planted = world.masks[2:3].copy()
    planted[0, 0] = True
    world._opinions[2] = occupancy.pmf_rows(planted, 0.8)[0]
    world.k = 7
    with pytest.raises(EngineInvariantError,
                       match=r"^robot 3 marked a node outside .*\(seed=0, step=7\)$"):
        world._event_tick([], True)


def test_world_senses_exactly_the_features_it_lands_on():
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    positions = np.array([36, 19, 1])
    masks = np.zeros((3, 64), dtype=bool)
    masks[1, 19 - 1] = True
    cfg = RunConfig(robot_count=3, mode="no-consensus", seed=9)
    world = World(cfg, positions, masks, [RngStream.from_seed(9, a) for a in (1, 2, 3)])
    landed = np.zeros((3, 64), dtype=bool)
    for _ in range(300):
        before = world.masks.copy()
        world.tick()
        landed[:] = False
        landed[np.arange(3), world.positions - 1] = True
        # a feature landed on is marked, anything else is left as it was
        assert np.array_equal(world.masks, before | (landed & field.mask))
    assert world.masks.any()


def test_world_copies_its_input_arrays():
    positions = np.array([19, 19])
    masks = np.zeros((2, 64), dtype=bool)
    world = World(small_config(), positions, masks, [RngStream.from_seed(0, a) for a in (1, 2)])
    for _ in range(100):
        world.tick()
    assert world.masks[:, 19 - 1].all()
    assert positions.tolist() == [19, 19] and not masks.any()


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
    world = World.from_config(cfg)
    for _ in range(cfg.max_steps):
        world.tick()
        assert world.positions[0] != world.positions[1]
    consensus = run(cfg)
    baseline = run(dataclasses.replace(cfg, mode="no-consensus"))
    assert np.array_equal(consensus.distances, baseline.distances)
    assert consensus.final_pmfs.tobytes() == baseline.final_pmfs.tobytes()


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
    streams = [RngStream.from_seed(cfg.seed, a) for a in (1, 2, 3)]
    permuted = World(
        cfg, reference.positions[perm], reference.masks[perm], [streams[i] for i in perm],
    )
    rows_ref, rows_perm = [], []
    for _ in range(40):
        rows_ref.append(reference.tick())
        rows_perm.append(permuted.tick())
    ref = np.array(rows_ref)
    per = np.array(rows_perm)
    assert np.array_equal(per, ref[:, perm])


def test_canonical_run_is_monotone_and_complete():
    trace = run(RunConfig(seed=11))
    diffs = np.diff(trace.distances, axis=0)
    assert diffs.max() <= 1e-12
    assert not trace.censored
    assert np.all(trace.distances[-1] == 0.0)
    # every robot ends knowing every feature, so its opinion is the reference
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    assert trace.final_pmfs.tobytes() == np.tile(field.f_ref, (4, 1)).tobytes()


@pytest.mark.parametrize("config, convergence", [
    (RunConfig(seed=13), (75, 141, 121, 63)),
    # censored; robot 1 first drops below epsilon at step 470, then rises above it again
    (RunConfig(seed=0, carry="chernoff", max_steps=1500), (470, 268, 137, 268)),
])
def test_robot_convergence_steps_match_distance_rows(config, convergence):
    trace = run(config)
    assert trace.robot_convergence == convergence
    below = trace.distances < config.epsilon
    for idx, first in enumerate(trace.robot_convergence):
        hits = np.flatnonzero(below[:, idx])
        assert first == (int(hits[0]) if hits.size else None)
    if below[-1].all():
        assert trace.convergence_step == trace.distances.shape[0] - 1
    else:
        assert trace.convergence_step is None and trace.step_count == config.max_steps


@pytest.mark.parametrize("config", [
    RunConfig(seed=13),
    RunConfig(seed=3, carry="chernoff", max_steps=800),
    RunConfig(side_count=16, features="circle:8,8,5", robot_count=3, seed=0,
              mode="no-consensus", max_steps=3000),
])
def test_change_points_cover_every_distance_change(config):
    trace = run(config)
    steps = trace.change_steps
    assert steps[0] == 0 and np.all(np.diff(steps) > 0)
    assert steps[-1] <= trace.step_count == trace.distances.shape[0] - 1
    bits = trace.distances.view(np.int64)
    changed = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1
    assert set(changed.tolist()) <= set(steps.tolist())
    assert np.array_equal(trace.distances[steps], trace.change_rows)
    if config.mode == "no-consensus":
        assert trace.censored and len(steps) * 20 < trace.step_count


def test_chernoff_carry_runs_deterministically():
    cfg = RunConfig(seed=3, carry="chernoff", max_steps=800)
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.distances, b.distances)
    # occupancy vectors stay inside the feature set even with raw carry
    world = World.from_config(cfg)
    for _ in range(cfg.max_steps):
        world.tick()
    assert world.masks.any() and not np.any(world.masks & ~world.field.mask)


def geometric_mean(rows):
    """Normalized geometric mean of the PMF rows."""
    log_g = np.log(rows).mean(axis=0)
    g = np.exp(log_g - log_g.max())
    return g / g.sum()


@pytest.mark.parametrize("comm_radius", [0.0, 0.7])
@pytest.mark.parametrize("robot_count", [2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chernoff_carry_settles_on_the_geometric_mean_at_completion(comm_radius, robot_count,
                                                                     seed):
    # Symmetric weights keep G fixed through every fusion, and once every
    # mask is complete nothing refreshes an opinion from its mask, so the
    # carried opinions converge to the G they hold at that step.
    world = World.from_config(RunConfig(robot_count=robot_count, seed=seed, carry="chernoff",
                                        comm_radius=comm_radius))
    limit = None
    for _ in range(3000):
        world.tick()
        if limit is None and (world.masks == world.field.mask).all():
            limit = geometric_mean(world.opinions())
    assert limit is not None
    assert np.abs(world.opinions() - limit).max() <= 1e-12


@pytest.mark.parametrize("comm_radius", [0.0, 0.7])
@pytest.mark.parametrize("robot_count", range(1, 9))
def test_occupancy_carry_opinions_are_their_masks_pmfs(comm_radius, robot_count):
    cfg = RunConfig(robot_count=robot_count, seed=robot_count, comm_radius=comm_radius)
    world = World.from_config(cfg)
    for _ in range(400):
        world.tick()
        expected = occupancy.pmf_rows(world.masks, cfg.level)
        assert world.opinions().tobytes() == expected.tobytes()


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


# ---------------------------------------------------------------------------
# quiet stretches against the tick loop


def tick_by_tick(config):
    """run's record from World.tick called once per step: (world, change
    steps, change rows, snapshots)."""
    world = World.from_config(config)
    snapshot_at = set(config.snapshot_steps)
    steps, rows, snapshots = [0], [world.dh], {}
    converged = bool(np.all(world.dh < config.epsilon))
    if 0 in snapshot_at:
        snapshots[0] = world.opinions()
    while not converged and world.k < config.max_steps:
        row = world.tick()
        if row is not rows[-1]:
            steps.append(world.k)
            rows.append(row)
            converged = bool(np.all(row < config.epsilon))
        if world.k in snapshot_at:
            snapshots[world.k] = world.opinions()
    return world, steps, rows, snapshots


def assert_run_matches_ticks(monkeypatch, config):
    """run's trace and final World state equal the tick loop's, change points
    included; returns the tick loop's World."""
    worlds = []
    build = World.from_config.__func__

    def keep(cls, cfg):
        worlds.append(build(cls, cfg))
        return worlds[-1]

    with monkeypatch.context() as patch:
        patch.setattr(World, "from_config", classmethod(keep))
        trace = run(config)
    world, steps, rows, snapshots = tick_by_tick(config)
    assert trace.change_steps.tolist() == steps
    assert trace.change_rows.tobytes() == np.array(rows).tobytes()
    assert trace.step_count == world.k
    assert sorted(trace.snapshots) == sorted(snapshots)
    for k, pmfs in snapshots.items():
        assert trace.snapshots[k].tobytes() == pmfs.tobytes(), f"snapshot {k}"
    assert trace.final_pmfs.tobytes() == world.opinions().tobytes()
    ran = worlds[0]
    assert ran.k == world.k and ran.positions.tolist() == world.positions.tolist()
    assert np.array_equal(ran.masks, world.masks)
    return world


def test_a_stretch_stops_at_convergence_before_a_later_landing(monkeypatch):
    config = RunConfig(robot_count=3, mode="no-consensus", epsilon=0.08, seed=0)
    world = assert_run_matches_ticks(monkeypatch, config)
    # the run converges inside a block that plans a later first landing
    assert world.k < config.max_steps and world.k % PLAN_TICKS
    assert any(not world.masks[a, col] for _, a, col in world._landings)


@pytest.mark.parametrize("config", [
    # snapshots inside stretches, and max_steps in the middle of a block
    RunConfig(robot_count=3, mode="no-consensus", seed=4, epsilon=1e-9, max_steps=300,
              snapshot_steps=(0, 5, 77, 128, 129, 250, 300, 301)),
    RunConfig(robot_count=6, seed=2, max_steps=3 * PLAN_TICKS + 17, snapshot_steps=(3, 140)),
    RunConfig(robot_count=5, carry="chernoff", seed=8, max_steps=450, snapshot_steps=(200,)),
    # consensus with one robot never meets, so it runs on stretches alone
    RunConfig(robot_count=1, seed=3, snapshot_steps=(60,)),
    RunConfig(robot_count=1, carry="chernoff", seed=5, epsilon=0.05),
    # every step is a meeting
    RunConfig(robot_count=3, comm_radius=1.5, seed=1, max_steps=300),
], ids=["no-consensus", "consensus", "chernoff", "one-robot", "one-robot-chernoff", "wide"])
def test_run_matches_the_tick_loop(monkeypatch, config):
    assert_run_matches_ticks(monkeypatch, config)


def test_a_stretch_senses_a_repeat_landing_once(monkeypatch):
    config = RunConfig(robot_count=2, mode="no-consensus", seed=1, epsilon=1e-9, max_steps=256)
    assert_run_matches_ticks(monkeypatch, config)
    # some robot lands again, within the block, on a feature it first found there
    world = World.from_config(config)
    found, repeats = {}, 0
    for _ in range(config.max_steps):
        block = world.k // PLAN_TICKS
        before = world.masks.copy()
        world.tick()
        for a, col in enumerate((world.positions - 1).tolist()):
            if world.field.mask[col] and not before[a, col]:
                found[a, col] = block
            elif found.get((a, col)) == block:
                repeats += 1
    assert repeats


@pytest.mark.parametrize("floats", [1, 3 * 64])
def test_a_full_stack_ends_a_stretch_without_changing_the_run(monkeypatch, floats):
    monkeypatch.setattr(engine, "STACK_FLOATS", floats)
    config = RunConfig(robot_count=16, mode="no-consensus", seed=6, max_steps=600,
                       snapshot_steps=(100,))
    assert_run_matches_ticks(monkeypatch, config)


def test_rising_distance_raises_with_seed_and_step(monkeypatch):
    # validate rejects this dense map, since a robot's first landing raises
    # its distance; with that check off, run must catch the rise itself
    monkeypatch.setattr(RunConfig, "_check_monotone_distance", lambda self, features: None)
    config = RunConfig(features=tuple(range(1, 25)), mode="no-consensus", seed=4)
    _, steps, rows, _ = tick_by_tick(config)
    rose = np.array(rows[1:]) > np.array(rows[:-1]) + 1e-12
    first = int(np.flatnonzero(rose.any(axis=1))[0])
    robot = int(np.argmax(rose[first])) + 1
    with pytest.raises(EngineInvariantError) as raised:
        run(config)
    assert f"robot {robot} distance rose" in str(raised.value)
    assert f"(seed=4, step={steps[first + 1]})" in str(raised.value)


def test_world_rejects_mismatched_robots():
    cfg = small_config()
    streams = [RngStream.from_seed(0, a) for a in (1, 2)]
    with pytest.raises(ConfigError):
        World(cfg, [1], np.zeros((1, 64), bool), streams[:1])
    for shape in ((2, 63), (1, 64), (2, 64, 1)):
        with pytest.raises(ConfigError):
            World(cfg, [1, 1], np.zeros(shape, bool), streams)
    false_positive = np.zeros((2, 64), dtype=bool)
    false_positive[0, 0] = True  # node 1 carries no feature
    with pytest.raises(ConfigError):
        World(cfg, [1, 1], false_positive, streams)


def test_world_builds_its_grid_and_field_from_the_config():
    cfg = RunConfig(side_count=6, spacing=0.5, level=0.9, features="circle:3,3,1")
    world = World.from_config(cfg)
    assert (world.grid.side_count, world.grid.spacing) == (6, 0.5)
    assert world.field.occupied == frozenset(cfg.resolve_features())
    assert world.field.level == 0.9 and world.field.node_count == 36
    assert np.array_equal(world.field.f_ref, cfg.feature_field().f_ref)


# a World takes its grid, field, transition matrix and walk tables from one
# per-process cache keyed by the grid, the level and the feature set
SHARED_BASE = RunConfig(side_count=6, spacing=0.5, level=0.9, features="circle:3,3,1")


def shared(world):
    parts = world.config.shared_parts()
    return world.grid, world.field, parts.transition, parts.walk


@pytest.mark.parametrize("change", [
    dict(seed=5), dict(robot_count=7), dict(mode="no-consensus"), dict(carry="chernoff"),
    dict(comm_radius=1.5), dict(max_steps=9), dict(snapshot_steps=(0, 3)), dict(epsilon=0.2),
    dict(step_seconds=0.5), dict(features=tuple(reversed(SHARED_BASE.resolve_features()))),
], ids=lambda change: next(iter(change)))
def test_worlds_differing_only_per_run_share_their_parts(change):
    first = World.from_config(SHARED_BASE)
    other = World.from_config(dataclasses.replace(SHARED_BASE, **change))
    assert all(a is b for a, b in zip(shared(first), shared(other)))
    assert other.field is SHARED_BASE.shared_parts().field


@pytest.mark.parametrize("change", [
    dict(side_count=7), dict(spacing=0.6), dict(level=0.85), dict(features="circle:4,4,1"),
], ids=lambda change: next(iter(change)))
def test_a_grid_level_or_feature_change_gives_new_parts(change):
    # read before the other World's parts replace them in the cache
    first = shared(World.from_config(SHARED_BASE))
    other = World.from_config(dataclasses.replace(SHARED_BASE, **change))
    assert not any(a is b for a, b in zip(first, shared(other)))
    assert other.grid.spacing == other.config.spacing and other.field.level == other.config.level


def test_shared_parts_are_read_only():
    world = World.from_config(SHARED_BASE)
    grid, field, parts = world.grid, world.field, world.config.shared_parts()
    arrays = (parts.transition, grid.choices, grid.degrees, grid.coordinates,
              field.mask, field.f_ref, field.f_nom)
    assert not any(a.flags.writeable for a in arrays)
    assert type(parts.walk) is tuple
    assert all(type(row) is tuple for row in parts.walk)


def test_walk_table_matches_the_floor_rule():
    # u = 0, every breakpoint j/c with its two float neighbours, the largest
    # double below 1, and seeded uniforms
    marks = np.array([j / c for c in (3, 4, 5) for j in range(1, c)])
    us = np.concatenate([[0.0], marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0),
                         [np.nextafter(1.0, 0.0)], np.random.default_rng(20).random(10_000)])
    triples = {(int(u * 3), int(u * 4), int(u * 5)) for u in us.tolist()}
    assert sorted(triples) == list(_TRIPLES)
    keys = _step_keys(us)
    picks = {c: [int(u * c) for u in us.tolist()] for c in (1, 3, 4, 5)}
    for side in range(1, 10):
        parts = RunConfig(side_count=side, features=()).shared_parts()
        choices, degrees = parts.grid.choices, parts.grid.degrees
        for node in range(1, side * side + 1):
            expected = choices[node][picks[degrees[node - 1] + 1]]
            assert np.array_equal(np.array(parts.walk[node])[keys], expected)


def test_shared_parts_keep_one_configuration_alive():
    config_a = RunConfig(side_count=5, spacing=0.5, features=(7, 13))
    first = World.from_config(config_a)
    transition = weakref.ref(first.config.shared_parts().transition)
    again = World.from_config(dataclasses.replace(config_a, seed=1))
    assert again.config.shared_parts().transition is transition()
    del first, again
    World.from_config(dataclasses.replace(config_a, side_count=6))
    gc.collect()
    assert transition() is None


def test_a_dropped_world_is_freed_without_the_cyclic_gc():
    # a walk planner that referenced its World would make a cycle, and every
    # finished run's World would then wait for the cyclic collector
    gc.disable()
    try:
        world = World.from_config(RunConfig(seed=3))
        for _ in range(PLAN_TICKS + 1):
            world.tick()
        freed = weakref.ref(world)
        del world
        assert freed() is None
    finally:
        gc.enable()
