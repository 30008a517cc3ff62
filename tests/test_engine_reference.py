"""The engine against a plain per-robot reference tick.

``reference_run`` is the straightforward form of the model, built only from
public functions: every tick each robot draws its step with
``mobility.sample_next``, senses its landing node, every robot's neighbor
set is rebuilt from all positions by a pairwise test, and every robot with
neighbors fuses with its own Metropolis weights. The engine plans walks
ahead and skips work it can prove is a no-op; its ``RunTrace`` must match
the reference bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from gridfusion import fusion
from gridfusion.engine import DEFAULT_FEATURES, RunConfig, run
from gridfusion.metrics import hellinger_batch
from gridfusion.mobility import (
    RngStream,
    initialize_robots,
    sample_next,
    transition_supports,
)
from gridfusion.occupancy import FeatureField
from gridfusion.spatial import build_grid, build_transition_matrix


def reference_run(config: RunConfig) -> dict:
    """Per-robot tick loop; returns the RunTrace fields as a dict."""
    cfg = config.validate()
    grid = build_grid(cfg.side_count, cfg.spacing)
    field = FeatureField(grid.node_count, frozenset(cfg.resolve_features()), cfg.level)
    n = cfg.robot_count
    positions = initialize_robots(n, grid.node_count, RngStream.from_seed(cfg.seed, 0))
    streams = [RngStream.from_seed(cfg.seed, a) for a in range(1, n + 1)]
    supports = transition_supports(build_transition_matrix(grid))
    masks = np.zeros((n, grid.node_count), dtype=bool)
    level = cfg.level

    def pmf_rows():
        vals = np.where(masks, level, 1.0 - level)
        return vals / vals.sum(axis=1, keepdims=True)

    def pmf_row(idx):
        vals = np.where(masks[idx], level, 1.0 - level)
        return vals / vals.sum()

    carried = pmf_rows() if cfg.carry == "chernoff" else None

    def opinions():
        return carried.copy() if carried is not None else pmf_rows()

    def neighbor_sets():
        """Robot id -> ids it hears: robots on its node or, when comm_radius
        >= spacing, robots whose grid points lie within comm_radius."""
        if cfg.comm_radius < cfg.spacing:
            nodes = positions.tolist()

            def hears(a, b):
                return nodes[a] == nodes[b]
        else:
            xy = [((q - 1) * grid.spacing, (r - 1) * grid.spacing)
                  for r, q in map(grid.node_row_col, positions.tolist())]
            reach = cfg.comm_radius * cfg.comm_radius

            def hears(a, b):
                dx, dy = xy[a][0] - xy[b][0], xy[a][1] - xy[b][1]
                return dx * dx + dy * dy <= reach
        # ascending ids, as the engine builds them: metropolis_weights sums in
        # iteration order
        sets = {a + 1: frozenset(b + 1 for b in range(n) if b != a and hears(a, b))
                for a in range(n)}
        return {a: nbrs for a, nbrs in sets.items() if nbrs}

    def fuse(graph):
        before = {idx: carried[idx] if carried is not None else pmf_row(idx) for idx in range(n)}
        new_masks, new_carried = {}, {}
        for robot_id, nbrs in graph.items():
            weights = fusion.metropolis_weights(
                robot_id, {b: len(graph[b]) for b in nbrs}
            )
            fused = fusion.chernoff_fuse([(before[b - 1], w) for b, w in sorted(weights.items())])
            idx = robot_id - 1
            merged = masks[idx] | (fused > field.f_nom)
            if not np.array_equal(merged, masks[idx]):
                new_masks[idx] = merged
            new_carried[idx] = fused
        for idx, mask in new_masks.items():
            masks[idx] = mask
        if carried is None:
            return list(new_masks)
        for idx, fused in new_carried.items():
            carried[idx] = pmf_row(idx) if idx in new_masks else fused
        return list(new_carried)

    dh = hellinger_batch(opinions(), field.f_ref)
    rows = [dh.copy()]
    first = [0 if d < cfg.epsilon else None for d in dh]
    convergence = 0 if all(f == 0 for f in first) else None
    snapshots = {0: opinions()} if 0 in cfg.snapshot_steps else {}
    step = 0
    while convergence is None and step < cfg.max_steps:
        step += 1
        changed = []
        for idx in range(n):
            node = sample_next(int(positions[idx]), supports, streams[idx])
            positions[idx] = node
            if field.mask[node - 1] and not masks[idx, node - 1]:
                masks[idx, node - 1] = True
                changed.append(idx)
        if carried is not None:
            for idx in changed:
                carried[idx] = pmf_row(idx)
        if cfg.mode == "consensus":
            changed += fuse(neighbor_sets())
        for idx in sorted(set(changed)):
            row = carried[idx:idx + 1] if carried is not None else pmf_row(idx)[None, :]
            dh[idx] = hellinger_batch(row, field.f_ref)[0]
        rows.append(dh.copy())
        for idx, dist in enumerate(dh):
            if first[idx] is None and dist < cfg.epsilon:
                first[idx] = step
        if step in cfg.snapshot_steps:
            snapshots[step] = opinions()
        if np.all(dh < cfg.epsilon):
            convergence = step
    return dict(
        distances=np.array(rows),
        robot_convergence=tuple(first),
        convergence_step=convergence,
        censored=convergence is None,
        snapshots=snapshots,
        final_pmfs=opinions(),
    )


def assert_same_trace(trace, expected):
    assert trace.distances.shape == expected["distances"].shape
    assert trace.distances.tobytes() == expected["distances"].tobytes()
    for name in ("robot_convergence", "convergence_step", "censored"):
        assert getattr(trace, name) == expected[name], name
    assert sorted(trace.snapshots) == sorted(expected["snapshots"])
    for k, pmfs in expected["snapshots"].items():
        assert trace.snapshots[k].tobytes() == pmfs.tobytes(), f"snapshot {k}"
    assert trace.final_pmfs.tobytes() == expected["final_pmfs"].tobytes()


FEATURES = {1: (1,), 3: (2, 6, 7), 8: DEFAULT_FEATURES}
SNAPSHOTS = (0, 1, 7, 40, 599)

CASES = [
    RunConfig(side_count=side, features=FEATURES[side], robot_count=n, mode=mode, carry=carry,
              seed=7 * n + side, max_steps=600, snapshot_steps=SNAPSHOTS)
    for mode in ("consensus", "no-consensus")
    for carry in ("occupancy", "chernoff")
    for n in (1, 2, 5, 16)
    for side in (1, 3, 8)
] + [
    RunConfig(robot_count=2, mode=mode, carry=carry, comm_radius=radius, seed=seed,
              max_steps=600, snapshot_steps=SNAPSHOTS)
    for mode in ("consensus", "no-consensus")
    for carry in ("occupancy", "chernoff")
    for radius in (0.7, 1.5)
    for seed in (3, 4)
] + [
    # eight robots in range of each other form non-clique groups
    RunConfig(robot_count=8, carry=carry, comm_radius=radius, max_steps=600,
              snapshot_steps=SNAPSHOTS)
    for carry in ("occupancy", "chernoff")
    for radius in (1.0, 1.5)
]


def case_id(cfg):
    return (f"{cfg.mode}-{cfg.carry}-N{cfg.robot_count}-side{cfg.side_count}"
            f"-r{cfg.comm_radius}-seed{cfg.seed}")


@pytest.mark.parametrize("config", CASES, ids=case_id)
def test_engine_matches_reference_tick(config):
    assert_same_trace(run(config), reference_run(config))


def test_engine_matches_reference_across_uniform_blocks():
    # two far-apart features on a 30x30 grid keep the run going past 4096
    # ticks, and so past 4096 draws from every robot's stream
    config = RunConfig(side_count=30, features=(1, 900), robot_count=3, seed=2,
                       max_steps=4096 + 400, snapshot_steps=(0, 4096, 4097))
    expected = reference_run(config)
    assert expected["censored"]
    assert_same_trace(run(config), expected)
    chernoff = dataclasses.replace(config, carry="chernoff", mode="no-consensus")
    assert_same_trace(run(chernoff), reference_run(chernoff))


@pytest.mark.parametrize("side", range(1, 10))
def test_choice_table_rows_are_the_transition_supports(side):
    grid = build_grid(side, 1.0)
    table = grid.choices
    supports = transition_supports(build_transition_matrix(grid))
    assert table.shape == (grid.node_count + 1, 5)
    assert not table[0].any()
    for node in range(1, grid.node_count + 1):
        row = table[node]
        assert row[row > 0].tolist() == supports[node - 1].tolist()
        assert not row[len(supports[node - 1]):].any()


@pytest.mark.parametrize("used,sizes", [
    (0, (5000,)),
    (10, (4086, 1, 3)),
    (4095, (2, 4097)),
    (3, (0, 9000, 7)),
])
def test_take_returns_the_next_uniforms(used, sizes):
    stream, plain = RngStream.from_seed(12, 3), RngStream.from_seed(12, 3)
    for _ in range(used):
        assert stream.uniform() == plain.uniform()
    for size in sizes:
        taken = stream.take(size)
        assert taken.shape == (size,)
        assert taken.tolist() == [plain.uniform() for _ in range(size)]
    assert stream.uniform() == plain.uniform()
