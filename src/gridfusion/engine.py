"""Single-run simulation engine: move, sense, communicate, fuse, record.

A tick advances every robot one random-walk step, applies perfect sensing at
the landing node, rebuilds the encounter graph from the new positions, and
(in consensus mode) lets every robot with neighbors fuse opinions and merge
the thresholded result into its occupancy vector. All fusion updates within a
tick read pre-fusion beliefs and are applied simultaneously, so robot
numbering cannot change the outcome.

Two opinion-carry modes exist. In the canonical "occupancy" mode a robot's
opinion is always the PMF of its current occupancy vector, so its Hellinger
distance to the reference depends only on how many features it knows;
RunConfig.validate rejects the dense maps on which that distance can rise,
so it never rises in a run. The "chernoff" mode carries the raw fused PMF
forward instead (refreshing it from the occupancy vector whenever sensing
changes that vector); it reproduces the small distance bumps that raw fusion
arithmetic causes and is kept for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from . import fusion, mobility, occupancy, spatial
from .errors import ConfigError, EngineInvariantError
from .metrics import HellingerRecord, hellinger_batch

MODES = ("consensus", "no-consensus")
CARRY_MODES = ("occupancy", "chernoff")

# Twelve-node discretized circle on the 8x8 grid (ring of radius 2 cells
# around the node at row 5, column 4); the default reconstruction target.
DEFAULT_FEATURES = (19, 20, 21, 26, 30, 34, 38, 42, 46, 51, 52, 53)

MONOTONE_SLACK = 1e-12

# World plans every robot's walk this many ticks ahead; a run draws at most
# PLAN_TICKS - 1 uniforms per robot past its end.
PLAN_TICKS = 32


def _is_int(value) -> bool:
    """An integer that is not a bool (True would otherwise count as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number that is not a bool; NaN passes and fails the range tests."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Everything a single run needs; validated before use."""

    side_count: int = 8
    spacing: float = 0.7
    robot_count: int = 4
    level: float = 0.8
    features: object = DEFAULT_FEATURES
    epsilon: float = 0.01
    max_steps: int = 5000
    mode: str = "consensus"
    carry: str = "occupancy"
    seed: int = 0
    comm_radius: float = 0.0
    snapshot_steps: tuple = ()
    step_seconds: float = 1.0

    def validate(self) -> "RunConfig":
        for name in ("spacing", "level", "epsilon", "comm_radius", "step_seconds"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not _is_int(self.side_count) or self.side_count < 1:
            raise ConfigError(f"side_count must be a positive integer, got {self.side_count!r}")
        if not self.spacing > 0:
            raise ConfigError(f"spacing must be positive, got {self.spacing!r}")
        if not _is_int(self.robot_count) or self.robot_count < 1:
            raise ConfigError(f"robot_count must be a positive integer, got {self.robot_count!r}")
        if not 0.5 < self.level < 1.0:
            raise ConfigError(f"level must lie in (0.5, 1), got {self.level!r}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon!r}")
        if not _is_int(self.max_steps) or self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.carry not in CARRY_MODES:
            raise ConfigError(f"carry must be one of {CARRY_MODES}, got {self.carry!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.comm_radius >= 0:
            raise ConfigError(f"comm_radius must be >= 0, got {self.comm_radius!r}")
        if (not isinstance(self.snapshot_steps, (tuple, list))
                or any(not _is_int(k) or k < 0 for k in self.snapshot_steps)):
            raise ConfigError(
                f"snapshot_steps must be non-negative integers, got {self.snapshot_steps!r}"
            )
        if not self.step_seconds > 0:
            raise ConfigError(f"step_seconds must be positive, got {self.step_seconds!r}")
        features = self.resolve_features()
        if self.carry == "occupancy":
            self._check_monotone_distance(len(set(features)))
        return self

    def _check_monotone_distance(self, f: int) -> None:
        """Reject a map on which the occupancy carry's distance can rise.

        In the occupancy carry a robot that knows m of the f features has a
        distance H(m) to the reference that depends on m alone. The engine
        asserts that no robot's distance rises, which holds only while H is
        non-increasing in m; dense maps (at level 0.8, more than about a third
        of the nodes) break it. H(m) follows from the two PMF levels in
        closed form.
        """
        s, level = self.side_count * self.side_count, self.level
        low = 1.0 - level
        reference = f * level + (s - f) * low
        cross = math.sqrt(level * low)
        lowest = math.inf
        for m in range(f + 1):
            known = m * level + (s - m) * low
            overlap = (m * level + (f - m) * cross + (s - f) * low) / math.sqrt(known * reference)
            distance = math.sqrt(max(1.0 - overlap, 0.0))
            lowest = min(lowest, distance)
            if distance > lowest + MONOTONE_SLACK:
                raise ConfigError(
                    f"with {f} features on {s} nodes at level {level} the occupancy carry's "
                    f"distance rises as features are found; use fewer features or --carry chernoff"
                )

    def resolve_features(self) -> tuple:
        """Feature node list: either an explicit id list or a 'circle:cx,cy,r' tag."""
        spec = self.features
        if isinstance(spec, str):
            if not spec.startswith("circle:"):
                raise ConfigError(
                    f"feature spec string must look like 'circle:cx,cy,r', got {spec!r}"
                )
            parts = spec[len("circle:"):].split(",")
            if len(parts) != 3:
                raise ConfigError(f"circle spec needs cx,cy,r, got {spec!r}")
            try:
                cx, cy, radius = (float(p) for p in parts)
            except ValueError as exc:
                raise ConfigError(f"bad circle spec {spec!r}") from exc
            if radius < 0:
                raise ConfigError(f"circle radius must be >= 0, got {radius}")
            return occupancy.circle_nodes(self.side_count, cx, cy, radius)
        try:
            ids = tuple(spec)
        except TypeError as exc:
            raise ConfigError(f"features must be node ids or a circle tag, got {spec!r}") from exc
        if not all(_is_int(s) for s in ids):
            raise ConfigError(f"features must be node ids or a circle tag, got {spec!r}")
        nodes = tuple(int(s) for s in ids)
        node_count = self.side_count * self.side_count
        bad = [s for s in nodes if not 1 <= s <= node_count]
        if bad:
            raise ConfigError(f"feature nodes {sorted(bad)} outside [1, {node_count}]")
        return nodes


class Encounter(NamedTuple):
    step: int
    node: int
    robots: tuple


@dataclass(frozen=True)
class CommGraph:
    """Symmetric, irreflexive who-hears-whom relation at one time step."""

    step: int
    neighbor_sets: dict

    def neighbors_of(self, robot_id: int) -> frozenset:
        return self.neighbor_sets.get(robot_id, frozenset())


def build_comm_graph(step: int, positions, grid: spatial.SpatialGrid, comm_radius: float):
    """Comm graph plus encounter groups for the current positions.

    positions is the 1-based node per robot, in robot-id order. With
    comm_radius below the grid spacing (the default 0), robots communicate
    exactly when co-located; larger radii connect robots whose node
    coordinates lie within comm_radius meters.

    Returns (CommGraph, groups) where groups lists (node, robot_ids) for every
    connected set of two or more robots, ordered by lowest robot id.
    """
    neighbor_sets = {}
    groups = []
    if comm_radius < grid.spacing:
        by_node = {}
        for robot_id, node in enumerate(np.asarray(positions).tolist(), start=1):
            by_node.setdefault(node, []).append(robot_id)
        for node, members in by_node.items():
            if len(members) < 2:
                continue
            for a in members:
                neighbor_sets[a] = frozenset(b for b in members if b != a)
            groups.append((node, tuple(members)))
    else:
        coords = np.array([grid.node_position(int(node)) for node in positions])
        diff = coords[:, None, :] - coords[None, :, :]
        adj = (diff**2).sum(axis=2) <= comm_radius**2
        np.fill_diagonal(adj, False)
        for idx, row in enumerate(adj):
            nbrs = np.flatnonzero(row)
            if nbrs.size:
                neighbor_sets[idx + 1] = frozenset(int(b) + 1 for b in nbrs)
        from scipy.sparse.csgraph import connected_components  # slow import, rare path

        labels = connected_components(sp.csr_array(adj), directed=False)[1]
        for label in np.unique(labels):
            members = tuple(int(i) + 1 for i in np.flatnonzero(labels == label))
            if len(members) > 1:
                groups.append((int(positions[members[0] - 1]), members))
    groups.sort(key=lambda item: item[1][0])
    return CommGraph(step=step, neighbor_sets=neighbor_sets), groups


@dataclass
class RunTrace:
    """Everything a run produced: the distance history and its milestones."""

    seed: int
    mode: str
    carry: str
    distances: np.ndarray
    robot_convergence: tuple
    convergence_step: Optional[int]
    censored: bool
    encounters: tuple
    snapshots: dict
    final_pmfs: np.ndarray
    final_masks: np.ndarray

    @property
    def step_count(self) -> int:
        return self.distances.shape[0] - 1

    @property
    def robot_count(self) -> int:
        return self.distances.shape[1]


class World:
    """Mutable state of one run; robots live in flat arrays for speed.

    A robot's walk depends only on its own stream and the grid, so World
    plans every robot's positions for a block of ticks at once and marks the
    ticks where something can happen: a robot lands on a feature it did not
    know when the block was planned (masks only grow, so this finds every
    sensing), or, in consensus mode, two robots share a node. With a
    comm_radius of at least the grid spacing every consensus tick is an
    event tick. Every other tick only moves the robots to their planned
    nodes.
    """

    def __init__(self, grid, field_, config: RunConfig, robots, streams):
        if len(robots) != config.robot_count or len(streams) != config.robot_count:
            raise ConfigError("robots and streams must match config.robot_count")
        self.grid = grid
        self.field = field_
        self.config = config
        self.transition = spatial.build_transition_matrix(grid)
        self.streams = list(streams)
        self.positions = np.array([r.node for r in robots], dtype=np.int64)
        if self.positions.min() < 1 or self.positions.max() > grid.node_count:
            raise ConfigError("robot positions must lie on the grid")
        self.masks = np.array([r.belief.mask for r in robots], dtype=bool)
        for r in robots:
            if r.belief.level != config.level or r.belief.size != grid.node_count:
                raise ConfigError("robot beliefs must match the configured level and grid")
        self._off_field = ~field_.mask
        if (self.masks & self._off_field).any():
            # sensing marks features only, so only fusion can break this later
            raise ConfigError("robot beliefs must mark feature nodes only")
        self.k = 0
        self.encounters = []
        self._f_nom = field_.f_nom
        self._f_ref = field_.f_ref
        self._carried = self._pmf_rows() if config.carry == "chernoff" else None
        self.dh = hellinger_batch(self.opinions(), self._f_ref)
        self._record_row = self._frozen_distances()
        self._choices = mobility.choice_table(grid).tolist()
        self._counts = [0, *(grid.degrees + 1).tolist()]
        self._robots = np.arange(len(self.positions))
        self._plan = np.empty((0, len(self.positions)), dtype=np.int64)
        self._senses = self._meets = []
        self._cursor = 0

    @classmethod
    def from_config(cls, config: RunConfig) -> "World":
        config.validate()
        grid = spatial.build_grid(config.side_count, config.spacing)
        field_ = occupancy.FeatureField(
            node_count=grid.node_count,
            occupied=frozenset(config.resolve_features()),
            level=config.level,
        )
        placement = mobility.RngStream.from_seed(config.seed, 0)
        robots = mobility.initialize_robots(
            config.robot_count, grid.node_count, placement, level=config.level
        )
        streams = [
            mobility.RngStream.from_seed(config.seed, a)
            for a in range(1, config.robot_count + 1)
        ]
        return cls(grid, field_, config, robots, streams)

    def robot_states(self) -> list:
        """Snapshot of the robots as value objects (for inspection/tests)."""
        return [
            mobility.RobotState(
                robot_id=idx + 1,
                node=int(self.positions[idx]),
                belief=occupancy.OccupancyVector(self.masks[idx], self.config.level),
            )
            for idx in range(len(self.positions))
        ]

    def _pmf_rows(self, masks=None) -> np.ndarray:
        """Occupancy PMF of each mask row (default: every robot's mask)."""
        level = self.config.level
        vals = np.where(self.masks if masks is None else masks, level, 1.0 - level)
        return vals / vals.sum(axis=1, keepdims=True)

    def opinions(self) -> np.ndarray:
        """Current per-robot opinion PMFs, one row per robot."""
        if self._carried is not None:
            return self._carried.copy()
        return self._pmf_rows()

    def _frozen_distances(self) -> np.ndarray:
        row = self.dh.copy()
        row.flags.writeable = False
        return row

    def tick(self) -> HellingerRecord:
        """Advance one step and return the per-robot distance record.

        The record's distances are shared with later records until some
        robot's distance changes.
        """
        if self._cursor == len(self._plan):
            self._plan_block()
        t = self._cursor
        self._cursor += 1
        step_ = self.k + 1
        self.positions = self._plan[t]
        if self._senses[t] or self._meets[t]:
            self._event_tick(step_, self._senses[t], self._meets[t])
        self.k = step_
        return HellingerRecord(step=step_, distances=self._record_row)

    def _plan_block(self) -> None:
        """Plan the next block of positions and find its event ticks.

        A planned sensing is a (robot, node) landing on a feature the robot
        did not know at planning time; fusion may teach it the feature
        before it lands, so the event tick checks again.
        """
        remaining = self.config.max_steps - self.k
        length = min(PLAN_TICKS, remaining) if remaining > 0 else PLAN_TICKS
        choices, counts = self._choices, self._counts
        walks = []
        for node, stream in zip(self.positions.tolist(), self.streams):
            walks.append([(node := choices[node][int(u * counts[node])])
                          for u in stream.take(length).tolist()])
        self._plan = np.array(walks, dtype=np.int64).T.copy()
        landing = self._plan - 1
        ticks, robots = np.nonzero(self.field.mask[landing] & ~self.masks[self._robots, landing])
        self._senses = [[] for _ in range(length)]
        for t, a, col in zip(ticks.tolist(), robots.tolist(), landing[ticks, robots].tolist()):
            self._senses[t].append((a, col))
        if self.config.mode != "consensus" or len(self.positions) < 2:
            self._meets = [False] * length
        elif self.config.comm_radius < self.grid.spacing:
            nodes = np.sort(landing, axis=1)
            self._meets = (nodes[:, 1:] == nodes[:, :-1]).any(axis=1).tolist()
        else:
            # a wider radius leaves the in-range test to build_comm_graph
            self._meets = [True] * length
        self._cursor = 0

    def _event_tick(self, step_: int, senses: list, meets: bool) -> None:
        """Sense at the planned new features, then fuse every encounter group."""
        masks = self.masks
        changed = []
        for a, col in senses:
            if not masks[a, col]:
                masks[a, col] = True
                changed.append(a)
        if self._carried is not None and changed:
            self._carried[changed] = self._pmf_rows(masks[changed])
        if meets:
            graph, groups = build_comm_graph(
                step_, self.positions, self.grid, self.config.comm_radius
            )
            for node, members in groups:
                self.encounters.append(Encounter(step=step_, node=node, robots=members))
                changed += self._fuse_group(graph, members)
        if changed:
            self._refresh_distances(sorted(set(changed)), step_)

    def _fuse_group(self, graph: CommGraph, members: tuple) -> list:
        """Chernoff-fuse one encounter group simultaneously; returns the
        indices of the robots whose opinion may have changed.

        Fusion inputs are this tick's post-sensing opinions, and groups are
        disjoint, so fusing group by group equals fusing all at once. The
        threshold and merge write-back (union of occupied sets) is applied
        after every member's fused PMF is computed.
        """
        idx = [b - 1 for b in members]
        # Identical inputs are skipped: chernoff_fuse returns each one
        # unchanged, thresholding an occupancy PMF returns its own mask, and
        # a carried opinion never exceeds nominal off its mask.
        state = self.masks if self._carried is None else self._carried
        first = state[idx[0]].tobytes()
        if all(state[i].tobytes() == first for i in idx[1:]):
            return []
        masks = self.masks[idx]
        opinions = self._pmf_rows(masks) if self._carried is None else self._carried[idx]
        fused = None
        if self.config.comm_radius < self.grid.spacing:
            fused = self._fuse_clique(opinions)
        if fused is None:
            row_of = dict(zip(members, opinions))
            fused = []
            for a in members:
                nbrs = graph.neighbor_sets[a]
                weights = fusion.metropolis_weights(
                    a, {b: len(graph.neighbor_sets[b]) for b in nbrs}
                )
                fused.append(fusion.chernoff_fuse(
                    [(row_of[b], w) for b, w in sorted(weights.items())]
                ))
            fused = np.array(fused)
        merged = masks | (fused > self._f_nom)
        grew = [i for i, g in zip(idx, (merged != masks).any(axis=1)) if g]
        if grew:
            outside = (merged & self._off_field).any(axis=1)
            if outside.any():
                raise EngineInvariantError(
                    f"robot {members[int(np.argmax(outside))]} marked a node outside the "
                    f"feature set (seed={self.config.seed}, step={graph.step})"
                )
            self.masks[idx] = merged
        if self._carried is None:
            return grew
        # a merge that changed the occupancy vector refreshes the carried
        # opinion from it; only an uninformative fusion carries the raw
        # fused PMF forward
        self._carried[idx] = fused
        if grew:
            self._carried[grew] = self._pmf_rows(self.masks[grew])
        return idx

    def _fuse_clique(self, opinions: np.ndarray):
        """One fused PMF shared by every member of a co-located group, or
        None when the members' weight lists differ.

        Every member of a clique of g gives 1/g to each neighbor and the rest
        to itself. When the rest equals 1/g bitwise (g = 2, 4, 8, ...) all
        members fuse the same weighted list, so it is fused once.
        """
        g = len(opinions)
        weights = fusion.metropolis_weights(1, {b: g - 1 for b in range(2, g + 1)})
        own = weights.self_weight
        if own != weights.weights[2]:
            return None
        return fusion.chernoff_fuse([(f, own) for f in opinions])

    def _refresh_distances(self, indices: list, step_: int) -> None:
        if self._carried is not None:
            new = hellinger_batch(self._carried[indices], self._f_ref)
        else:
            new = hellinger_batch(self._pmf_rows(self.masks[indices]), self._f_ref)
            rose = new > self.dh[indices] + MONOTONE_SLACK
            if rose.any():
                j = int(np.argmax(rose))
                raise EngineInvariantError(
                    f"robot {indices[j] + 1} distance rose from {self.dh[indices[j]]} to "
                    f"{new[j]} (seed={self.config.seed}, step={step_})"
                )
        self.dh[indices] = new
        self._record_row = self._frozen_distances()


def run(config: RunConfig) -> RunTrace:
    """Execute one seeded run until all robots converge or max_steps elapses.

    The distance record starts at step 0 with the true initial distances
    (nominal vs reference PMF), so the first row is nonzero whenever features
    exist. Fully deterministic given config.seed.
    """
    world = World.from_config(config)
    cfg = world.config
    eps = cfg.epsilon
    snapshot_at = set(int(k) for k in cfg.snapshot_steps)

    rows = [world.dh.copy()]
    robot_first = [0 if d < eps else None for d in world.dh]
    convergence_step = 0 if all(f == 0 for f in robot_first) else None
    snapshots = {}
    if 0 in snapshot_at:
        snapshots[0] = world.opinions()

    last = None
    while convergence_step is None and world.k < cfg.max_steps:
        record = world.tick()
        rows.append(record.distances)
        if record.distances is not last:
            # a shared row means no distance changed, so nothing new converged
            last = record.distances
            for idx, dist in enumerate(last):
                if robot_first[idx] is None and dist < eps:
                    robot_first[idx] = record.step
            if bool(np.all(last < eps)):
                convergence_step = record.step
        if record.step in snapshot_at:
            snapshots[record.step] = world.opinions()

    return RunTrace(
        seed=cfg.seed,
        mode=cfg.mode,
        carry=cfg.carry,
        distances=np.array(rows),
        robot_convergence=tuple(robot_first),
        convergence_step=convergence_step,
        censored=convergence_step is None,
        encounters=tuple(world.encounters),
        snapshots=snapshots,
        final_pmfs=world.opinions(),
        final_masks=world.masks.copy(),
    )
