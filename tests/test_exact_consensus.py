"""Consensus convergence times against the exact joint chain on a 3x3 grid.

Two robots walk the lazy walk of ``grid.choices``: a step moves a robot to its
node or to one of its d lattice neighbours, each with chance 1/(d + 1). A
robot senses the node it lands on, and whenever the two are in range they
merge. In the occupancy carry a group of g robots adopts node s iff
S r^(k_s/g) > sum_t r^(k_t/g), with r = level / (1 - level) and k_s the
number of members that know s; for g = 2 on these maps of at most two
features that adopts every node either robot knows, so a merge is the union
of the two known sets. The joint chain over (position, position, known set,
known set) is then absorbed exactly when both robots know every feature,
which, with epsilon below H(f - 1), is the run's convergence step. The
expected absorption time t solves (I - Q) t = 1 over the transient states
(Kemeny & Snell, *Finite Markov Chains*, ch. 3); the runs start from
independent uniform placements with nothing known at step 0.
"""

import itertools

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


def merge_is_union(config) -> bool:
    """Whether a pair's count-threshold merge adopts every node either knows,
    for every pair of known sets."""
    features = config.resolve_features()
    s, r = config.side_count ** 2, config.level / (1 - config.level)
    for known in itertools.product(range(3), repeat=len(features)):  # k_s per feature
        total = s - len(features) + sum(r ** (k / 2) for k in known)
        if any(k and not s * r ** (k / 2) > total for k in known):
            return False
    return True


def exact_mean_convergence_step(config):
    """(mean absorption time from uniform placements, transient state count)."""
    grid = build_grid(config.side_count, config.spacing)
    n, features = grid.node_count, config.resolve_features()
    full = (1 << len(features)) - 1
    bit = dict.fromkeys(range(1, n + 1), 0)
    for i, node in enumerate(features):
        bit[node] = 1 << i
    moves = {a: [m for m in row if m] for a, row in enumerate(grid.choices[1:].tolist(), start=1)}
    reach = (config.comm_radius / config.spacing) ** 2

    def in_range(a, b):
        (ra, qa), (rb, qb) = grid.node_row_col(a), grid.node_row_col(b)
        return (ra - rb) ** 2 + (qa - qb) ** 2 <= reach

    states = [s for s in itertools.product(range(1, n + 1), range(1, n + 1),
                                           range(full + 1), range(full + 1))
              if s[2:] != (full, full)]
    index = {s: i for i, s in enumerate(states)}
    rows, cols, probs = [], [], []
    for i, (a, b, known_a, known_b) in enumerate(states):
        for next_a, next_b in itertools.product(moves[a], moves[b]):
            ka, kb = known_a | bit[next_a], known_b | bit[next_b]
            if in_range(next_a, next_b):
                ka = kb = ka | kb
            j = index.get((next_a, next_b, ka, kb))
            if j is not None:  # None: both know every feature, so the chain is absorbed
                rows.append(i)
                cols.append(j)
                probs.append(1.0 / (len(moves[a]) * len(moves[b])))
    size = len(states)
    q = scipy.sparse.coo_matrix((probs, (rows, cols)), shape=(size, size)).tocsc()
    t = spsolve(scipy.sparse.identity(size, format="csc") - q, np.ones(size))
    starts = [index[(a, b, 0, 0)] for a in range(1, n + 1) for b in range(1, n + 1)]
    return float(t[starts].mean()), size


@pytest.mark.parametrize("features, comm_radius", [
    ((5,), 0.0),
    ((2, 6), 0.0),
    ((1, 9), 0.0),
    # a radius of one spacing: lattice neighbours are in range too
    ((2, 6), 0.7),
])
def test_two_robot_consensus_matches_the_exact_chain(features, comm_radius):
    config = RunConfig(side_count=3, spacing=0.7, robot_count=2, features=features,
                       epsilon=1e-6, comm_radius=comm_radius)
    assert merge_is_union(config)
    field = config.feature_field()
    missing_one = field.mask.copy()
    missing_one[np.flatnonzero(missing_one)[0]] = False
    # a robot that misses a feature is not converged, so convergence is absorption
    assert hellinger_batch(pmf_rows(missing_one[None], config.level), field.f_ref)[0] > 1e-6

    exact, size = exact_mean_convergence_step(config)
    assert size == 81 * (4 ** len(features) - 1)  # every pair of known sets but the full one
    traces = run_batch(config, RUNS, MASTER_SEED)
    assert not any(trace.censored for trace in traces)
    steps = np.array([trace.convergence_step for trace in traces], dtype=float)
    z = (steps.mean() - exact) / (steps.std(ddof=1) / np.sqrt(RUNS))
    assert abs(z) < 4, f"mean {steps.mean():.3f} against exact {exact:.3f}: z = {z:.2f}"
