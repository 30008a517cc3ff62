import numpy as np
import pytest

from gridfusion.engine import DEFAULT_FEATURES
from gridfusion.metrics import (
    HellingerRecord,
    bhattacharyya,
    converged,
    hellinger,
    hellinger_batch,
)
from gridfusion.occupancy import FeatureField


def random_pmf(rng, size):
    raw = rng.random(size) + 1e-6
    return raw / raw.sum()


def test_bhattacharyya_identical_is_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = random_pmf(rng, 32)
        assert bhattacharyya(f, f) == 1.0


def test_bhattacharyya_disjoint_is_zero():
    assert bhattacharyya(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_bhattacharyya_uniform_vs_reference():
    """64-term sum pinned by direct evaluation:
    12*sqrt(0.04/64) + 52*sqrt(0.01/64) = 12*0.025 + 52*0.0125 = 0.95."""
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    uniform = np.full(64, 1 / 64)
    oracle = sum(np.sqrt(f * u) for f, u in zip(field.f_ref, uniform))
    assert oracle == pytest.approx(0.95, abs=1e-12)
    assert bhattacharyya(uniform, field.f_ref) == pytest.approx(0.95, abs=1e-12)


def test_bhattacharyya_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        bhattacharyya(np.full(4, 0.25), np.full(5, 0.2))


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


def test_hellinger_batch_matches_scalar():
    rng = np.random.default_rng(5)
    g = random_pmf(rng, 20)
    rows = np.array([random_pmf(rng, 20) for _ in range(6)] + [g])
    batch = hellinger_batch(rows, g)
    for row, d in zip(rows, batch):
        assert d == hellinger(row, g)
    assert batch[-1] == 0.0


def test_hellinger_near_complete_reconstruction_scale():
    # one feature node still missing out of twelve sits near 0.07
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    partial = field.mask.copy()
    partial[np.flatnonzero(partial)[0]] = False
    vals = np.where(partial, 0.8, 0.2)
    assert hellinger(vals / vals.sum(), field.f_ref) == pytest.approx(0.07, abs=0.005)


def test_converged_all_below():
    assert converged(HellingerRecord(0, np.zeros(4)), 1e-6)


def test_converged_one_above():
    assert not converged(HellingerRecord(3, np.array([0.0, 0.07, 0.0])), 0.01)


def test_converged_strict_at_threshold():
    eps = 0.25
    assert not converged(HellingerRecord(1, np.full(3, eps)), eps)


def test_converged_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        converged(HellingerRecord(0, np.zeros(2)), 0.0)


def test_record_distances_read_only():
    source = np.array([0.1, 0.2])
    rec = HellingerRecord(2, source)
    with pytest.raises(ValueError):
        rec.distances[0] = 0.5
    source[0] = 0.5  # a writable input is copied, so the record keeps 0.1
    assert rec.distances.tolist() == [0.1, 0.2]
    source.flags.writeable = False
    assert HellingerRecord(3, source).distances is source
