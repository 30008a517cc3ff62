"""The mean Hellinger curve of the occupancy carry against its exact value.

In no-consensus mode the robots walk independently, and a robot that knows m
of the f features is at distance H(m) from the reference. Let a_A(k) be the
chance that a robot, started at a uniform node that it does not sense, lands
on no feature of the subset A during steps 1..k; it comes from the walk
restricted to the nodes outside A (Aldous & Fill, *Reversible Markov Chains
and Random Walks on Graphs*, ch. 2). With S_j(k) = sum over |A| = f - j of
a_A(k), inclusion-exclusion gives

    P(m at k) = sum_{j <= m} (-1)^(m - j) C(f - j, m - j) S_j(k),

and E[H(k)] = sum_m H(m) P(m at k). In consensus mode a robot knows only
features some robot has landed on, so its distance is at least H(m_team),
where m_team counts the features the team has landed on; m_team follows the
same formula with a_A(k)^N in place of a_A(k). That gives an exact lower
envelope for the consensus curve.

Subset enumeration costs 2^f rows per step, so the oracle suits maps of up
to about 14 features.
"""

import dataclasses
import math

import numpy as np
import pytest

from gridfusion.engine import RunConfig
from gridfusion.harness import run_batch
from gridfusion.metrics import hellinger_batch
from gridfusion.occupancy import pmf_rows
from gridfusion.spatial import build_grid, build_transition_matrix

STEPS = 400
RUNS = 400
MASTER_SEED = 3
ROBOTS = 4
# an epsilon below H(f - 1) lets a run stop only once every robot knows every
# feature, where every later row is zero
CONFIG = RunConfig(robot_count=ROBOTS, epsilon=1e-9, max_steps=STEPS)


def known_count_moments(survive, distance):
    """E[H] and Var[H] per step, from a_A(k) over every feature subset A.

    survive[k, A] is a_A(k) for the subset whose bits are A (bit i: feature
    i), and distance[m] is H(m).
    """
    f = distance.size - 1
    subset_size = np.array([bin(a).count("1") for a in range(2**f)])
    # s_j[k, j]: sum of a_A(k) over the subsets A of f - j features
    s_j = survive @ (subset_size[:, None] == f - np.arange(f + 1)).astype(float)
    j, m = np.meshgrid(np.arange(f + 1), np.arange(f + 1), indexing="ij")
    invert = np.where(j <= m, (-1.0) ** (m - j)
                      * np.vectorize(math.comb)(f - j, np.maximum(m - j, 0)), 0.0)
    prob = s_j @ invert  # prob[k, m] = P(m features known at step k)
    mean = prob @ distance
    return mean, np.maximum(prob @ distance**2 - mean**2, 0.0)


def exact_curves(config, steps):
    """(mean, var) of one robot's distance and of H(m_team), for k = 0..steps."""
    grid = build_grid(config.side_count, config.spacing)
    field = config.feature_field()
    features = np.flatnonzero(field.mask)
    f = features.size
    bits = (np.arange(2**f)[:, None] >> np.arange(f)) & 1
    # masks[m]: the first m features known, so distance[m] is H(m) as the engine computes it
    masks = np.zeros((f + 1, grid.node_count), dtype=bool)
    for m in range(1, f + 1):
        masks[m, features[:m]] = True
    distance = hellinger_batch(pmf_rows(masks, config.level), field.f_ref)

    p = build_transition_matrix(grid)
    allowed = np.ones((2**f, grid.node_count))
    allowed[:, features] = 1 - bits
    # avoid[A, j]: P(at node j after step k, no landing in A during steps 1..k)
    avoid = np.full(allowed.shape, 1.0 / grid.node_count)
    survive = np.empty((steps + 1, 2**f))
    survive[0] = 1.0
    for k in range(1, steps + 1):
        avoid = (avoid @ p) * allowed
        survive[k] = avoid.sum(axis=1)
    return (known_count_moments(survive, distance),
            known_count_moments(survive**config.robot_count, distance))


@pytest.fixture(scope="module")
def curves():
    return exact_curves(CONFIG, STEPS)


def robot_mean_rows(mode):
    """(RUNS, STEPS + 1) mean distance over the robots of each run; a run that
    converged early keeps its last row."""
    traces = run_batch(dataclasses.replace(CONFIG, mode=mode), RUNS, MASTER_SEED)
    rows = np.empty((RUNS, STEPS + 1))
    for r, trace in enumerate(traces):
        d = trace.distances.mean(axis=1)
        rows[r, :d.size] = d
        rows[r, d.size:] = d[-1]
    return rows


def test_exact_curves_start_at_the_nominal_distance_and_fall(curves):
    (mean, var), (team_mean, _) = curves
    field = CONFIG.feature_field()
    assert mean[0] == team_mean[0] == hellinger_batch(field.f_nom[None], field.f_ref)[0]
    assert var[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(mean) <= 1e-12) and np.all(np.diff(team_mean) <= 1e-12)
    assert np.all(team_mean <= mean + 1e-12)
    assert team_mean[-1] < 1e-4 < mean[-1]


def test_no_consensus_mean_rows_match_the_exact_curve(curves):
    (mean, var), _ = curves
    rows = robot_mean_rows("no-consensus")
    # robots are independent and alike, so a run's robot mean has variance var / N
    se = np.sqrt(var[1:] / (ROBOTS * RUNS))
    z = (rows[:, 1:].mean(axis=0) - mean[1:]) / se
    worst = int(np.argmax(np.abs(z)))
    assert np.abs(z).max() < 4, f"step {worst + 1}: z = {z[worst]:.2f}"


def test_consensus_mean_rows_stay_above_the_team_envelope(curves):
    _, (team_mean, team_var) = curves
    rows = robot_mean_rows("consensus")
    # each run's robot mean is at least its H(m_team), whose exact variance
    # bounds how far the sample mean of H(m_team) can fall below team_mean
    se = np.sqrt(team_var[1:] / RUNS)
    gap = rows[:, 1:].mean(axis=0) - team_mean[1:]
    worst = int(np.argmin(gap + 4 * se))
    assert np.all(gap >= -4 * se), (
        f"step {worst + 1}: mean {gap[worst] + team_mean[worst + 1]:.5f} "
        f"below envelope {team_mean[worst + 1]:.5f} by more than 4 SE {se[worst]:.2e}")
