import dataclasses

import numpy as np
import pytest

from gridfusion.engine import DEFAULT_FEATURES, RunConfig, World, run
from gridfusion.metrics import hellinger, hellinger_batch
from gridfusion.fusion import chernoff_fuse
from gridfusion.occupancy import FeatureField, pmf_rows


def random_pmf(rng, size):
    raw = rng.random(size) + 1e-6
    return raw / raw.sum()


def test_hellinger_uniform_vs_reference():
    """Overlap pinned by direct evaluation:
    12*sqrt(0.04/64) + 52*sqrt(0.01/64) = 12*0.025 + 52*0.0125 = 0.95."""
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    uniform = np.full(64, 1 / 64)
    oracle = sum(np.sqrt(f * u) for f, u in zip(field.f_ref, uniform))
    assert oracle == pytest.approx(0.95, abs=1e-12)
    assert hellinger(uniform, field.f_ref) == pytest.approx(np.sqrt(0.05), abs=1e-12)


def test_hellinger_identical_is_exactly_zero():
    rng = np.random.default_rng(1)
    for _ in range(50):
        f = random_pmf(rng, 64)
        assert hellinger(f, f) == 0.0


def test_hellinger_disjoint_is_one():
    assert hellinger(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_hellinger_symmetry_exact():
    rng = np.random.default_rng(2)
    for _ in range(200):
        f, g = random_pmf(rng, 16), random_pmf(rng, 16)
        assert hellinger(f, g) == hellinger(g, f)


def test_hellinger_range_and_identity():
    rng = np.random.default_rng(3)
    for _ in range(500):
        f, g = random_pmf(rng, 8), random_pmf(rng, 8)
        d = hellinger(f, g)
        assert 0.0 <= d <= 1.0
        if not np.array_equal(f, g):
            assert d > 0.0


def test_hellinger_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        f, g, h = (random_pmf(rng, 12) for _ in range(3))
        assert hellinger(f, h) <= hellinger(f, g) + hellinger(g, h) + 1e-12


@pytest.mark.parametrize("size", [20, 64, 4096])
def test_hellinger_batch_matches_scalar(size):
    # stretches and meeting steps get their distances from one call on
    # whatever rows changed, so each row's distance must be bitwise the one
    # it gets alone: mask PMFs, fused rows that are no mask's PMF, any PMF
    rng = np.random.default_rng(size)
    reference = pmf_rows(rng.random((1, size)) < 0.1, 0.8)[0]
    pmfs = pmf_rows(rng.random((8, size)) < rng.uniform(0.2, 0.5, (8, 1)), 0.8)
    fused = [chernoff_fuse([(pmfs[a], w), (pmfs[(a + 1) % 8], 1 - w)])
             for a, w in enumerate(rng.uniform(0.2, 0.8, 8))]
    rows = np.array([*pmfs, *fused, *(random_pmf(rng, size) for _ in range(4)), reference])
    alone = np.array([hellinger(row, reference) for row in rows])
    assert alone[-1] == 0.0 and all(np.unique(row).size > 2 for row in fused)
    for count in range(1, 9):
        for _ in range(10):
            picked = rng.permutation(len(rows))[:count]
            assert hellinger_batch(rows[picked], reference).tobytes() == alone[picked].tobytes()
    assert hellinger_batch(rows, reference).tobytes() == alone.tobytes()


def test_hellinger_batch_identical_rows_are_exactly_zero():
    rng = np.random.default_rng(6)
    for _ in range(50):
        g = random_pmf(rng, 32)
        rows = np.array([g, random_pmf(rng, 32), g])
        assert hellinger_batch(rows, g)[[0, 2]].tolist() == [0.0, 0.0]


def test_hellinger_batch_disjoint_is_one():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert hellinger_batch(rows, np.array([0.0, 1.0])).tolist() == [1.0, 0.0]


def test_hellinger_batch_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        hellinger_batch(np.full((2, 4), 0.25), np.full(5, 0.2))
    with pytest.raises(ValueError):
        hellinger_batch(np.full(4, 0.25), np.full(4, 0.25))


def test_hellinger_near_complete_reconstruction_scale():
    # one feature node still missing out of twelve sits near 0.07
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    partial = field.mask.copy()
    partial[np.flatnonzero(partial)[0]] = False
    vals = np.where(partial, 0.8, 0.2)
    assert hellinger(vals / vals.sum(), field.f_ref) == pytest.approx(0.07, abs=0.005)


def test_run_robot_exactly_at_epsilon_has_not_converged():
    cfg = RunConfig(robot_count=1, seed=3, max_steps=5)
    start = World.from_config(cfg).dh[0]
    at = run(dataclasses.replace(cfg, epsilon=start))
    assert at.robot_convergence[0] != 0 and at.convergence_step != 0
    above = run(dataclasses.replace(cfg, epsilon=float(np.nextafter(start, 1.0))))
    assert above.robot_convergence == (0,) and above.convergence_step == 0


def test_tick_row_is_read_only_and_shared_until_a_distance_changes():
    world = World.from_config(RunConfig(seed=1, robot_count=8))
    previous = world.tick(world.k)
    changes = 0
    for _ in range(300):
        row = world.tick(world.k)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.5
        assert np.array_equal(row, world.dh)
        if np.array_equal(row, previous):
            assert row is previous
        else:
            changes += 1
        previous = row
    assert 0 < changes < 300
