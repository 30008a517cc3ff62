"""Single-run simulation engine: move, sense, communicate, fuse, record.

A tick advances every robot one random-walk step, applies perfect sensing at
the landing node, rebuilds the encounter graph from the new positions, and
(in consensus mode) lets every robot with neighbors fuse opinions and merge
the thresholded result into its occupancy vector. All fusion updates within a
tick read pre-fusion beliefs and are applied simultaneously, so robot
numbering cannot change the outcome. Most steps hold no meeting, so
World.tick moves through each stretch between meetings with one distance
batch.

Every robot's opinion PMF is one row of an (N, S) array, refreshed from its
occupancy vector whenever sensing or a merge changes that vector. The two
carry modes differ in one rule. In the canonical "occupancy" mode an
uninformative fusion leaves the row alone, so every row stays its mask's PMF
and a robot's Hellinger distance to the reference depends only on how many
features it knows; a RunConfig rejects the dense maps on which that
distance can rise, and run checks that it never rises. The "chernoff"
mode keeps the raw fused row after an uninformative fusion; it reproduces
the small distance bumps that raw fusion arithmetic causes and is kept for
comparison.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import fusion, mobility, occupancy, spatial
from .errors import ConfigError, EngineInvariantError
from .metrics import hellinger_batch
from .spatial import _is_int, _is_real

MODES = ("consensus", "no-consensus")
CARRY_MODES = ("occupancy", "chernoff")

# Twelve-node discretized circle on the 8x8 grid (ring of radius 2 cells
# around the node at row 5, column 4); the default reconstruction target.
DEFAULT_FEATURES = (19, 20, 21, 26, 30, 34, 38, 42, 46, 51, 52, 53)

MONOTONE_SLACK = 1e-12

# _plan plans every robot's walk in blocks of this many ticks, each planned
# only when the next tick needs it, so a run draws at most PLAN_TICKS - 1
# uniforms per robot past its end. Each block pays a fixed cost in numpy
# calls, so longer blocks spread it over more ticks.
PLAN_TICKS = 128

# A quiet stretch that has stacked this many mask entries ends before its next
# landing step, which keeps its float temporaries near 128 KiB each.
STACK_FLOATS = 1 << 14

# A step picks entry int(u * c) of a node's c choices, and every node has 1,
# 3, 4 or 5 (the node and its d lattice neighbours). As u runs over [0, 1),
# each breakpoint j/c raises exactly one of the floors of 3u, 4u and 5u by
# one, so they take only these ten triples, and a triple's sum, the step
# key, is its index and fixes the pick for every c. _PICK[c][key] is the
# entry a key picks from c choices (row 0 serves grid.choices' padding row,
# and no node has 2 choices).
_TRIPLES = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2),
            (1, 2, 2), (1, 2, 3), (2, 2, 3), (2, 3, 3), (2, 3, 4))
_PICK = np.zeros((6, len(_TRIPLES)), dtype=np.intp)
_PICK[3:] = np.array(_TRIPLES).T


def _step_keys(u: np.ndarray) -> np.ndarray:
    """The step key of every uniform, from the same products u * c that a
    step truncates."""
    return (u * 3).astype(np.intp) + (u * 4).astype(np.intp) + (u * 5).astype(np.intp)


@dataclass(frozen=True)
class RunConfig:
    """Everything a single run needs, checked when built (dataclasses.replace
    too), so a replace changes dependent fields, e.g. features and carry, at once."""

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

    def __post_init__(self):
        self.validate()
        for name in ("features", "snapshot_steps"):  # a list is stored as a tuple: hashable
            if isinstance(value := getattr(self, name), list):
                object.__setattr__(self, name, tuple(value))

    def validate(self) -> "RunConfig":
        for name in ("level", "epsilon", "comm_radius", "step_seconds"):
            if not _is_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        spatial.check_grid_args(self.side_count, self.spacing)
        if not 0 < self.step_seconds < math.inf:
            raise ConfigError(f"step_seconds must be positive and finite, "
                              f"got {self.step_seconds!r}")
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
        features = self._features  # resolving checks the spec, in either carry
        if self.carry == "occupancy":
            self._check_monotone_distance(features)
        return self

    def _check_monotone_distance(self, features: frozenset) -> None:
        """Reject a map on which the occupancy carry's distance can rise.

        In the occupancy carry a robot that knows m of the f features has a
        distance H(m) to the reference that depends on m alone. The engine
        asserts that no robot's distance rises, which holds only while H is
        non-increasing in m; dense maps (at level 0.8, more than about a third
        of the nodes) break it. H(m) follows from the two PMF levels in
        closed form. A run whose starting distance H(0), computed as the
        engine computes it, is below epsilon ends at step 0, so no distance
        can rise and any map passes.
        """
        s, level, f = self.side_count * self.side_count, self.level, len(features)
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
                field_ = self.feature_field()
                if hellinger_batch(field_.f_nom[None], field_.f_ref)[0] < self.epsilon:
                    return
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
            if not (all(map(math.isfinite, (cx, cy, radius))) and radius >= 0):
                raise ConfigError(f"circle spec needs finite cx, cy and r >= 0, got {spec!r}")
            return occupancy.circle_nodes(self.side_count, cx, cy, radius)
        # like snapshot_steps, a tuple or a list: validate must not consume an iterator
        if not isinstance(spec, (tuple, list)) or not all(_is_int(s) for s in spec):
            raise ConfigError(f"features must be a tuple or list of node ids or a circle "
                              f"tag, got {spec!r}")
        nodes = tuple(int(s) for s in spec)
        node_count = self.side_count * self.side_count
        bad = [s for s in nodes if not 1 <= s <= node_count]
        if bad:
            raise ConfigError(f"feature nodes {sorted(bad)} outside [1, {node_count}]")
        return nodes

    @cached_property
    def _features(self) -> frozenset:
        """The feature nodes, resolved once per config for validate(), feature_field()
        and shared_parts(); not a field, so a replace resolves its own."""
        return frozenset(self.resolve_features())

    def feature_field(self) -> occupancy.FeatureField:
        """The run's ground truth: the feature nodes with their reference and
        nominal PMFs. A World takes the equal one that shared_parts() holds."""
        return occupancy.FeatureField(self.side_count * self.side_count, self._features,
                                      self.level)

    def shared_parts(self) -> "SharedParts":
        """The read-only parts of a World that depend only on the grid, the
        level and the feature set; every World of them shares one copy."""
        return _shared_parts(self.side_count, self.spacing, self.level, self._features)


class SharedParts(NamedTuple):
    """What every World of one grid, level and feature set reads and no run
    writes. Every array is read-only; walk is the step table as tuples:
    walk[node][key] is the node a step with that step key moves to, and
    equals grid.choices[node][int(u * (d + 1))] for every u of the key."""

    grid: spatial.SpatialGrid
    field: occupancy.FeatureField
    transition: np.ndarray
    walk: tuple


@lru_cache(maxsize=1)
def _shared_parts(side_count, spacing, level, features: frozenset) -> SharedParts:
    """A configuration's SharedParts, its FeatureField included, built once per
    process from exactly the fields of a checked RunConfig that they depend on;
    maxsize=1 keeps only the last configuration's parts (134 MB on 64x64) alive."""
    grid = spatial.build_grid(side_count, spacing)
    field = occupancy.FeatureField(side_count * side_count, features, level)
    counts = np.concatenate(([0], grid.degrees + 1))
    walk = np.take_along_axis(grid.choices, _PICK[counts], axis=1)
    return SharedParts(grid, field, spatial.build_transition_matrix(grid),
                       tuple(map(tuple, walk.tolist())))


def _plan(config: RunConfig, parts: SharedParts, positions, streams, masks):
    """Yield (first, plan, landings, meetings) for every block of a run.

    A robot's walk depends only on its own stream and the grid, so the walks
    are planned PLAN_TICKS ticks at a time, each block when its first tick is
    needed, from the last planned nodes: numpy turns the block's uniforms
    into step keys, and each step is one lookup in parts.walk. Row i of plan
    holds every robot's node at step first + i. landings lists (step, robot,
    column) for every landing on a feature the robot did not know in masks,
    the run's own array, when the block was planned; masks only grow, so
    this finds every sensing, but an earlier landing or a fusion may teach
    the feature first. meetings lists the steps at which two robots can hear
    each other: in consensus mode, two robots share a node, or with a
    comm_radius of at least the grid spacing, always. Both lists run latest
    first, so that the next is popped off the end. It holds no World, so the
    World that holds it is freed by reference counting alone.
    """
    walk = parts.walk
    robots = np.arange(len(streams))
    first = 1
    while True:
        keys = _step_keys(np.array([stream.take(PLAN_TICKS) for stream in streams]))
        walks = []
        for node, row in zip(positions.tolist(), keys.tolist()):
            walks.append([(node := walk[node][key]) for key in row])
        plan = np.array(walks, dtype=np.int64).T.copy()
        landing = plan - 1
        ticks, who = np.nonzero(parts.field.mask[landing] & ~masks[robots, landing])
        landings = list(zip((ticks + first).tolist(), who.tolist(), landing[ticks, who].tolist()))
        if config.mode != "consensus" or len(streams) < 2:
            meets = np.zeros(PLAN_TICKS, dtype=bool)
        elif config.comm_radius < parts.grid.spacing:
            nodes = np.sort(landing, axis=1)
            meets = (nodes[:, 1:] == nodes[:, :-1]).any(axis=1)
        else:
            # a wider radius leaves the in-range test to build_comm_graph
            meets = np.ones(PLAN_TICKS, dtype=bool)
        yield first, plan, landings[::-1], (np.flatnonzero(meets)[::-1] + first).tolist()
        positions = plan[-1]
        first += PLAN_TICKS


def build_comm_graph(positions, grid: spatial.SpatialGrid, comm_radius: float):
    """Who hears whom, plus the encounter groups, for the current positions.

    positions is the 1-based node per robot, in robot-id order. With
    comm_radius below the grid spacing (the default 0), robots communicate
    exactly when co-located; larger radii connect robots whose node
    coordinates lie within comm_radius meters.

    Returns (neighbor_sets, groups): groups lists (node, member ids) for every
    connected set of two or more robots, members ascending and groups ordered
    by lowest robot id. Below the spacing every group is a clique, so a
    member's neighbors are the rest of its group and neighbor_sets is empty;
    otherwise it maps every robot id with a neighbor to the frozenset of its
    neighbors' ids (symmetric, irreflexive).
    """
    neighbor_sets, groups = {}, []
    if comm_radius < grid.spacing:
        by_node = {}
        for robot, node in enumerate(np.asarray(positions).tolist(), start=1):
            by_node.setdefault(node, []).append(robot)
        groups = [(node, tuple(members)) for node, members in by_node.items() if len(members) > 1]
    else:
        xy = grid.coordinates[np.asarray(positions) - 1]
        with np.errstate(over="ignore"):  # a huge radius squares to inf: all in range
            adj = ((xy[:, None] - xy[None]) ** 2).sum(axis=2) <= np.square(comm_radius)
        # adj holds self-loops, so row a of its transitive closure is robot a's component
        reach, wider = None, adj
        while not np.array_equal(reach, wider):
            reach, wider = wider, wider @ wider
        for a in np.flatnonzero(adj.sum(axis=1) > 1).tolist():
            # inserted in ascending id: metropolis_weights sums in iteration order
            neighbor_sets[a + 1] = frozenset(b + 1 for b in np.flatnonzero(adj[a]).tolist() if b != a)
            members = np.flatnonzero(reach[a])
            if members[0] == a:
                groups.append((int(positions[a]), tuple((members + 1).tolist())))
    return neighbor_sets, groups


@dataclass
class RunTrace:
    """Everything a run produced: the distance history and its milestones.

    The history is kept as change points: row j of change_rows holds every
    robot's distance from step change_steps[j] (the first is 0) until the
    next change point, and the last row holds until step_count.
    """

    seed: int
    change_steps: np.ndarray
    change_rows: np.ndarray
    step_count: int
    robot_convergence: tuple
    convergence_step: Optional[int]
    snapshots: dict
    final_pmfs: np.ndarray

    @cached_property
    def distances(self) -> np.ndarray:
        """The (step_count + 1, N) distance per step; cached, so an edit to
        it stays visible to later reads."""
        spans = np.diff(self.change_steps, append=self.step_count + 1)
        return np.repeat(self.change_rows, spans, axis=0)

    @property
    def robot_count(self) -> int:
        return self.change_rows.shape[1]

    @property
    def censored(self) -> bool:
        """The run ended at max_steps without converging."""
        return self.convergence_step is None


class World:
    """Mutable state of one run: robot positions, occupancy masks, random
    streams, opinions and distances, in flat arrays for speed. The grid and
    the feature field are the config's SharedParts, which every World of
    that config reads.

    tick(limit) is the one stepping method: it moves the robots along the
    blocks _plan planned, a quiet stretch or a meeting step at a time,
    senses and fuses.
    The run's distance record is kept as change points: change_rows[j]
    holds every robot's distance from step change_steps[j] on.
    """

    def __init__(self, config: RunConfig, positions, masks, streams):
        """positions holds each robot's 1-based start node and masks its (N, S)
        starting occupancy masks, both in robot-id order; both are copied. The
        grid, the feature field and the walk table come from
        config.shared_parts(), built once per configuration and process;
        positions, masks, streams, opinions and distances are this run's own."""
        count = config.robot_count
        parts = config.shared_parts()
        self.grid = grid = parts.grid
        self.field = parts.field
        self.positions = np.array(positions, dtype=np.int64)
        if self.positions.shape != (count,) or len(streams) != count:
            raise ConfigError("positions and streams must match config.robot_count")
        if self.positions.min() < 1 or self.positions.max() > grid.node_count:
            raise ConfigError("robot positions must lie on the grid")
        self.masks = np.array(masks, dtype=bool)
        if self.masks.shape != (count, grid.node_count):
            raise ConfigError(f"masks must have shape ({count}, {grid.node_count})")
        self.config = config
        self.streams = list(streams)
        if (self.masks > self.field.mask).any():
            # sensing marks features only, so only fusion can break this later
            raise ConfigError("robot beliefs must mark feature nodes only")
        self.k = 0
        self._opinions = occupancy.pmf_rows(self.masks, config.level)
        dh = hellinger_batch(self._opinions, self.field.f_ref)
        dh.flags.writeable = False
        self.change_steps, self.change_rows = [0], [dh]  # the run's change points
        self._blocks = _plan(config, parts, self.positions, self.streams, self.masks)
        # the block that holds step k + 1, which starts at step _first
        self._first, self._plan, self._landings, self._meetings = 1 - PLAN_TICKS, None, [], []

    @classmethod
    def from_config(cls, config: RunConfig) -> "World":
        count, node_count = config.robot_count, config.side_count * config.side_count
        placement = mobility.RngStream.from_seed(config.seed, 0)
        positions = mobility.initialize_robots(count, node_count, placement)
        masks = np.zeros((count, node_count), dtype=bool)
        streams = [mobility.RngStream.from_seed(config.seed, a) for a in range(1, count + 1)]
        return cls(config, positions, masks, streams)

    def opinions(self) -> np.ndarray:
        """Fresh copy of the per-robot opinion PMFs, one row per robot."""
        return self._opinions.copy()

    @property
    def dh(self) -> np.ndarray:
        """The per-robot distances to the reference: the last change row."""
        return self.change_rows[-1]

    def tick(self, limit: int) -> np.ndarray:
        """Take the quiet steps after k up to limit, the block's end or the
        step before the next meeting, but at least one (tick(k) takes one);
        a meeting step is taken alone. Return the per-robot distances to the
        reference: a read-only row, the same object until a distance changes.

        Each robot senses at its first landing on a feature it does not know;
        one pmf_rows call on the stacked masks gives every landing's opinion.
        A meeting step then fuses, and _fuse refreshes its distances in one
        hellinger_batch call. A stretch gets every distance from one call on
        the stack, bitwise as single steps would, and ends before its next
        landing step once the stack holds STACK_FLOATS entries. Every step
        that changes a distance adds a change point. At the first step with
        every distance below epsilon a stretch stops and hands later landings back.
        """
        step = self.k + 1
        if step == self._first + PLAN_TICKS:
            self._first, self._plan, self._landings, self._meetings = next(self._blocks)
        meets = step in self._meetings[-1:]
        if meets:
            self._meetings.pop()
        end = step
        if not meets:  # a stretch, which ends before the next meeting
            end = max(step, min(limit, self._first + PLAN_TICKS - 1))
            if self._meetings:
                end = min(end, self._meetings[-1] - 1)
        masks, landed, stack = self.masks, [], []
        while self._landings and self._landings[-1][0] <= end:
            step, a, col = self._landings[-1]
            if len(stack) * masks.shape[1] >= STACK_FLOATS and step > landed[-1][0]:
                end = step - 1
                break
            self._landings.pop()
            if not masks[a, col]:  # a first landing, and fusion did not teach it since planning
                masks[a, col] = True
                landed.append((step, a, col))
                stack.append(masks[a].copy())
        sensed = {}
        if landed:
            pmfs = occupancy.pmf_rows(np.array(stack), self.config.level)
            if not meets:
                new = hellinger_batch(pmfs, self.field.f_ref).tolist()
                row, table = self.dh.tolist(), []
                for j, (step, a, _) in enumerate(landed):
                    row[a] = new[j]
                    if j + 1 == len(landed) or landed[j + 1][0] != step:  # the step's last landing
                        self.change_steps.append(step)
                        table.append(row.copy())
                        if max(row) < self.config.epsilon:
                            end = step
                            break
                for step, a, col in landed[:j:-1]:  # past the convergence step, latest first
                    masks[a, col] = False
                    self._landings.append((step, a, col))
                del landed[j + 1:]
                table = np.array(table)
                table.flags.writeable = False
                self.change_rows += list(table)
            sensed = {a: i for i, (_, a, _) in enumerate(landed)}  # each robot's last landing
            self._opinions[list(sensed)] = pmfs[list(sensed.values())]
        self.k, self.positions = end, self._plan[end - self._first]
        if meets:
            self._fuse(sensed)
        return self.dh

    def _fuse(self, sensed) -> None:
        """Fuse every encounter group in one pass from the pre-fusion
        opinions, merge, and add one change point at step k that refreshes
        the distances of the robots that changed, the sensed ids included.

        A group whose members hold bitwise-identical opinions is skipped:
        fusing equal opinions returns them unchanged. Members with equal
        sorted (id, weight) lists share one chernoff_fuse call. A co-located
        group is a clique, where every member gives w = 1/g to the others and
        keeps the same s, so one metropolis_weights call gives every list. A
        fusing robot then marks the nodes where its fused PMF exceeds the
        nominal one; that need not be the union of the group's sets.
        """
        masks, opinions, level = self.masks, self._opinions, self.config.level
        changed = list(sensed)
        idx, fused = [], []
        neighbor_sets, groups = build_comm_graph(self.positions, self.grid, self.config.comm_radius)
        for _, members in groups:
            rows = [opinions[b - 1] for b in members]
            first = rows[0].tobytes()
            if all(row.tobytes() == first for row in rows[1:]):
                continue
            idx += [b - 1 for b in members]
            if self.config.comm_radius < self.grid.spacing:
                own = fusion.metropolis_weights(
                    members[0], dict.fromkeys(members[1:], len(members) - 1)).weights
                s, w = own[members[0]], own[members[1]]  # when s == w, one list for all
                out = [fusion.chernoff_fuse([(row, s if b == a else w)
                                             for b, row in zip(members, rows)])
                       for a in (members if s != w else members[:1])]
                fused += out if s != w else out * len(members)
                continue
            lists = [tuple(sorted(fusion.metropolis_weights(
                a, {b: len(neighbor_sets[b]) for b in neighbor_sets[a]}).items()))
                for a in members]
            by_list = {key: fusion.chernoff_fuse([(opinions[b - 1], w) for b, w in key])
                       for key in set(lists)}
            fused += [by_list[key] for key in lists]
        if idx:
            fused, before = np.array(fused), masks[idx]
            gain = (fused > self.field.f_nom) > before
            grew = [i for i, g in zip(idx, gain.any(axis=1).tolist()) if g]
            if self.config.carry == "chernoff":  # only an uninformative fusion keeps its raw row
                opinions[idx] = fused
            if grew:  # a merge that grew the occupancy vector refreshes the opinion from it
                outside = (gain > self.field.mask).any(axis=1)
                if outside.any():
                    raise EngineInvariantError(
                        f"robot {idx[int(np.argmax(outside))] + 1} marked a node outside the "
                        f"feature set (seed={self.config.seed}, step={self.k})")
                masks[idx] = before | gain
                opinions[grew] = occupancy.pmf_rows(masks[grew], level)
            changed += idx if self.config.carry == "chernoff" else grew
        if changed:
            indices = sorted(set(changed))
            row = self.dh.copy()
            row[indices] = hellinger_batch(opinions[indices], self.field.f_ref)
            row.flags.writeable = False
            self.change_steps.append(self.k)
            self.change_rows.append(row)


def run(config: RunConfig) -> RunTrace:
    """Execute one seeded run until all robots converge or max_steps elapses.

    The distance record starts at step 0 with the true initial distances
    (nominal vs reference PMF), so the first row is nonzero whenever features
    exist, and gains a change point on every step that changes a distance.
    Fully deterministic given config.seed.
    """
    world = World.from_config(config)
    eps = config.epsilon
    snapshot_at = set(int(k) for k in config.snapshot_steps)
    cuts = sorted(snapshot_at | {config.max_steps})  # where a quiet stretch must stop
    snapshots, convergence_step = {}, None
    while convergence_step is None:
        if world.k in snapshot_at:
            snapshots[world.k] = world.opinions()
        if world.change_steps[-1] == world.k and world.dh.max() < eps:
            convergence_step = world.k
        elif world.k == config.max_steps:
            break
        else:
            world.tick(cuts[bisect.bisect(cuts, world.k)])

    change_steps, change_rows = np.array(world.change_steps), np.array(world.change_rows)
    rose = change_rows[1:] > change_rows[:-1] + MONOTONE_SLACK
    if config.carry == "occupancy" and rose.any():
        j, a = divmod(int(np.argmax(rose)), rose.shape[1])  # the first rise, by step
        raise EngineInvariantError(
            f"robot {a + 1} distance rose from {change_rows[j, a]} to {change_rows[j + 1, a]} "
            f"(seed={config.seed}, step={change_steps[j + 1]})")
    # distances hold between change points, so a robot's first change point
    # below epsilon is its first step below it
    below = change_rows < eps
    robot_convergence = tuple(step if hit else None for step, hit in
                              zip(change_steps[below.argmax(axis=0)].tolist(), below.any(axis=0)))
    return RunTrace(
        seed=config.seed,
        change_steps=change_steps,
        change_rows=change_rows,
        step_count=world.k,
        robot_convergence=robot_convergence,
        convergence_step=convergence_step,
        snapshots=snapshots,
        final_pmfs=world.opinions(),
    )
