"""Consensus convergence times against the exact joint chain on small grids.

Each robot walks the lazy walk of ``grid.choices``: a step moves it to its
node or to one of its d lattice neighbours, each with chance 1/(d + 1). A
robot senses the node it lands on, and robots in range merge. A robot a
with neighbours fuses its closed neighbourhood with Metropolis weights
(1/(1 + max(|N_a|, |N_b|)) for each neighbour b, the remainder on itself),
and in the occupancy carry it adopts node s iff S r^k_s > sum_t r^k_t, with
r = level / (1 - level) and k_s the summed weight of the robots in its
neighbourhood that know s. The chain applies that rule to each robot and
asserts a margin no float rounding can cross on every merge it takes. At
``comm_radius`` 0 a group is the robots on one node, and with two robots and
a radius of one spacing it is the pair whenever they are lattice
neighbours: every such group is a clique, each member weighs every opinion
1/g, and on the maps below every merge is the union of the members' known
sets. Three robots in a line at a radius of one spacing form one group whose
ends do not hear each other, so there an end robot does not adopt what only
the other end knows. The joint chain over (every robot's position, every
robot's known set) is absorbed exactly when every robot knows every
feature, which, with epsilon below H(f - 1), is the run's convergence step.
The expected absorption time t solves (I - Q) t = 1 over the transient
states (Kemeny & Snell, *Finite Markov Chains*, ch. 3); the runs start from
independent uniform placements with nothing known at step 0. The same Q,
applied to the starting distribution until less than 1e-12 of its mass is
unabsorbed, gives P(T <= t) at every step, and the runs' empirical CDF must
lie within the Dvoretzky-Kiefer-Wolfowitz bound of it (with Massart's 1990
constant, sqrt(ln(2 / alpha) / 2n) = 0.043 at n = 4,000 and alpha = 1e-6).

Two features on 2x2 are left out: at level 0.8 a pair that knows one
feature twice and the other once sits on an exact tie, 4 * 2 against
4 + 2 + 2, which the engine's float arithmetic settles by rounding.
"""

import functools
import itertools
import math

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import spsolve

from gridfusion.engine import RunConfig
from gridfusion.harness import run_batch
from gridfusion.metrics import hellinger_batch
from gridfusion.occupancy import pmf_rows
from gridfusion.spatial import build_grid

RUNS = 4000
MASTER_SEED = 12345
DKW_BOUND = math.sqrt(math.log(2 / 1e-6) / (2 * RUNS))


def exact_convergence(config):
    """(mean absorption time from uniform placements, P(T <= t) for t = 0, 1,
    ... until the unabsorbed mass is below 1e-12, transient state count,
    transitions in which some robot's merge is not its group's union).

    A group is a connected set of robots in range, and each member merges
    by its own rule from its closed neighbourhood."""
    grid = build_grid(config.side_count, config.spacing)
    n, robots, features = grid.node_count, config.robot_count, config.resolve_features()
    r = config.level / (1 - config.level)
    full = (1 << len(features)) - 1
    bit = dict.fromkeys(range(1, n + 1), 0)
    for i, node in enumerate(features):
        bit[node] = 1 << i
    moves = {a: [m for m in row if m] for a, row in enumerate(grid.choices[1:].tolist(), start=1)}
    reach = (config.comm_radius / config.spacing) ** 2

    def in_range(a, b):
        (ra, qa), (rb, qb) = grid.node_row_col(a), grid.node_row_col(b)
        return (ra - rb) ** 2 + (qa - qb) ** 2 <= reach

    def group_labels(nodes):
        """Each robot's group, as the lowest robot index in it."""
        labels = list(range(robots))
        for i, j in itertools.combinations(range(robots), 2):
            if in_range(nodes[i], nodes[j]) and labels[i] != labels[j]:
                low, high = sorted((labels[i], labels[j]))
                labels = [low if label == high else label for label in labels]
        return labels

    def neighbourhoods(nodes):
        """Each robot's closed neighbourhood as (members, their weights),
        itself first, or None for a robot with no one in range."""
        near = [[b for b in range(robots) if b != a and in_range(nodes[a], nodes[b])]
                for a in range(robots)]
        hoods = []
        for a in range(robots):
            weights = [1.0 / (1 + max(len(near[a]), len(near[b]))) for b in near[a]]
            hoods.append(((a, *near[a]), (1.0 - sum(weights), *weights)) if near[a] else None)
        return tuple(hoods)

    @functools.cache
    def adopted(weights, known):
        """The features a robot adopts when its neighbourhood, weighted by
        weights, knows the feature sets known."""
        kappa = [sum(w for w, k in zip(weights, known) if k >> i & 1)
                 for i in range(len(features))]
        if not any(kappa):  # equal opinions: the pool is the input, and nothing is adopted
            return 0
        total = n - len(features) + sum(r ** k for k in kappa)
        bits = 0
        for i, k in enumerate(kappa):
            margin = n * r ** k - total
            assert abs(margin) > 1e-9 * total, f"weights {weights} and known sets {known} tie"
            bits |= (margin > 0) << i
        return bits

    placements = list(itertools.product(range(1, n + 1), repeat=robots))
    hoods_at = {nodes: neighbourhoods(nodes) for nodes in placements}
    # every step from a placement: (next placement, its groups, chance)
    steps = {nodes: [(nxt, group_labels(nxt), 1.0 / math.prod(len(moves[a]) for a in nodes))
                     for nxt in itertools.product(*(moves[a] for a in nodes))]
             for nodes in placements}
    states = [(nodes, known) for nodes in placements
              for known in itertools.product(range(full + 1), repeat=robots)
              if known != (full,) * robots]
    index = {state: i for i, state in enumerate(states)}
    rows, cols, probs, non_union = [], [], [], 0
    for i, (nodes, known) in enumerate(states):
        for nxt, labels, chance in steps[nodes]:
            sensed = [k | bit[m] for k, m in zip(known, nxt)]
            merged = tuple(k if hood is None
                           else k | adopted(hood[1], tuple(sensed[b] for b in hood[0]))
                           for k, hood in zip(sensed, hoods_at[nxt]))
            union = dict.fromkeys(labels, 0)
            for label, k in zip(labels, sensed):
                union[label] |= k
            non_union += merged != tuple(union[label] for label in labels)
            j = index.get((nxt, merged))
            if j is not None:  # None: every robot knows every feature, so the chain is absorbed
                rows.append(i)
                cols.append(j)
                probs.append(chance)
    size = len(states)
    q = scipy.sparse.coo_matrix((probs, (rows, cols)), shape=(size, size)).tocsc()
    t = spsolve(scipy.sparse.identity(size, format="csc") - q, np.ones(size))
    starts = [index[(nodes, (0,) * robots)] for nodes in placements]
    mass, step = np.zeros(size), q.T.tocsr()
    mass[starts] = 1.0 / len(starts)
    cdf = [0.0]  # nothing is known at step 0
    while cdf[-1] < 1.0 - 1e-12:
        mass = step @ mass
        cdf.append(1.0 - mass.sum())
    return float(t[starts].mean()), np.array(cdf), size, non_union


def consensus_z_score(config, cliques=True) -> float:
    """z of the run_batch mean convergence step against the exact chain's,
    after checking the runs' CDF of convergence steps against the chain's.
    With cliques, every merge of the chain is its group's union; without,
    some are not."""
    field = config.feature_field()
    missing_one = field.mask.copy()
    missing_one[np.flatnonzero(missing_one)[0]] = False
    # a robot that misses a feature is not converged, so convergence is absorption
    assert hellinger_batch(pmf_rows(missing_one[None], config.level), field.f_ref)[0] > 1e-6

    exact, cdf, size, non_union = exact_convergence(config)
    assert (non_union == 0) == cliques
    # every combination of known sets but the full one, at every placement
    n, f, robots = config.side_count ** 2, field.mask.sum(), config.robot_count
    assert size == n ** robots * (2 ** (f * robots) - 1)
    traces = run_batch(config, RUNS, MASTER_SEED)
    assert not any(trace.censored for trace in traces)
    steps = np.array([trace.convergence_step for trace in traces], dtype=float)
    ts = np.arange(max(len(cdf), int(steps.max()) + 1))
    empirical = np.searchsorted(np.sort(steps), ts, side="right") / RUNS
    gap = np.abs(empirical - cdf[np.minimum(ts, len(cdf) - 1)]).max()
    assert gap <= DKW_BOUND, f"CDF gap {gap:.4f} above {DKW_BOUND:.4f}"
    return (steps.mean() - exact) / (steps.std(ddof=1) / np.sqrt(RUNS))


def exact_config(side, robots, features, comm_radius):
    return RunConfig(side_count=side, spacing=0.7, robot_count=robots, features=features,
                     epsilon=1e-6, comm_radius=comm_radius)


@pytest.mark.parametrize("features, comm_radius", [
    ((5,), 0.0),
    ((2, 6), 0.0),
    ((1, 9), 0.0),
    # a radius of one spacing: lattice neighbours are in range too
    ((2, 6), 0.7),
])
def test_two_robot_consensus_matches_the_exact_chain(features, comm_radius):
    z = consensus_z_score(exact_config(3, 2, features, comm_radius))
    assert abs(z) < 4, f"z = {z:.2f}"


@pytest.mark.parametrize("features", [(5,), (1,)], ids=["centre", "corner"])
def test_three_robot_consensus_matches_the_exact_chain(features):
    # groups of 2 and of 3 form on one node; 9^3 * 2^3 states, 729 of them absorbed
    z = consensus_z_score(exact_config(3, 3, features, 0.0))
    assert abs(z) < 4, f"z = {z:.2f}"


@pytest.mark.parametrize("side, features, comm_radius", [
    (2, (1,), 0.0), (2, (1,), 0.7),
    (4, (6,), 0.0), (4, (6,), 0.7),
    (4, (1, 16), 0.0), (4, (1, 16), 0.7),
], ids=["2x2-f1-r0", "2x2-f1-r0.7", "4x4-f1-r0", "4x4-f1-r0.7", "4x4-f2-r0", "4x4-f2-r0.7"])
def test_two_robot_consensus_on_2x2_and_4x4_matches_the_exact_chain(side, features,
                                                                    comm_radius):
    z = consensus_z_score(exact_config(side, 2, features, comm_radius))
    assert abs(z) < 4, f"z = {z:.2f}"


@pytest.mark.parametrize("features", [(5,), (1,)], ids=["centre", "corner"])
def test_three_robots_in_a_line_merge_by_their_own_neighbourhoods(features):
    # at one spacing three robots in a row are one group whose ends do not hear
    # each other, so an end robot adopts only what it or the middle knows
    z = consensus_z_score(exact_config(3, 3, features, 0.7), cliques=False)
    assert abs(z) < 4, f"z = {z:.2f}"
