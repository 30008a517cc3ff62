import numpy as np
import pytest

from gridfusion.engine import DEFAULT_FEATURES
from gridfusion.fusion import (
    chernoff_fuse,
    merge_occupancy,
    metropolis_weights,
    threshold_fused,
)
from gridfusion.occupancy import FeatureField, OccupancyVector, nominal_occupancy


def random_pmf(rng, size):
    raw = rng.random(size) + 1e-3
    return raw / raw.sum()


def random_occupancy(rng, size, level=0.8):
    return OccupancyVector(rng.random(size) < 0.4, level)


# ---------------------------------------------------------------------------
# Metropolis weights


def test_weights_colocated_pair():
    w = metropolis_weights(1, {2: 1})
    assert w.weights == {2: 0.5, 1: 0.5}
    assert w.self_weight == 0.5


def test_weights_isolated_robot():
    w = metropolis_weights(3, {})
    assert w.weights == {3: 1.0}


def test_weights_three_colocated():
    # in a triangle every robot has two neighbors
    w = metropolis_weights(1, {2: 2, 3: 2})
    assert w.weights[2] == pytest.approx(1 / 3, abs=1e-15)
    assert w.weights[3] == pytest.approx(1 / 3, abs=1e-15)
    assert w.self_weight == pytest.approx(1 / 3, abs=1e-15)


def test_weights_sum_to_one_for_random_cliques():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = int(rng.integers(1, 12))
        others = {b: g - 1 for b in range(2, g + 1)}
        w = metropolis_weights(1, others)
        assert sum(w.weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in w.weights.values())


def test_weights_reject_bad_neighbor_counts():
    with pytest.raises(ValueError):
        metropolis_weights(1, {2: 0})
    with pytest.raises(ValueError):
        metropolis_weights(1, {2: -1})
    with pytest.raises(ValueError):
        metropolis_weights(1, {1: 1})


def test_weights_hub_case_is_max_degree():
    # a hub with three leaves: every edge weighs 1/(1 + max(3, 1)) = 1/4 from
    # both ends, so the weights are symmetric and none is negative
    hub = metropolis_weights(1, {2: 1, 3: 1, 4: 1})
    assert hub.weights == {2: 0.25, 3: 0.25, 4: 0.25, 1: 0.25}
    leaf = metropolis_weights(2, {1: 3})
    assert leaf.weights == {1: 0.25, 2: 0.75}


# ---------------------------------------------------------------------------
# Chernoff fusion


def test_fuse_identical_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = random_pmf(rng, 16)
        w = float(rng.uniform(0.05, 0.95))
        out = chernoff_fuse([(f, w), (f, 1 - w)])
        assert np.array_equal(out, f)


def test_fuse_symmetric_two_point():
    out = chernoff_fuse([(np.array([0.8, 0.2]), 0.5), (np.array([0.2, 0.8]), 0.5)])
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_fuse_reference_with_uniform_regression_vector():
    """Equal-weight fusion of the 12-feature reference PMF with the uniform
    PMF; expected values pinned from a direct linear-domain evaluation."""
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    uniform = np.full(64, 1 / 64)
    # oracle: sqrt(f*g) normalized, no logs involved
    raw = np.sqrt(field.f_ref * uniform)
    oracle = raw / raw.sum()
    out = chernoff_fuse([(field.f_ref, 0.5), (uniform, 0.5)])
    assert np.abs(out - oracle).max() < 1e-15
    assert np.abs(out[field.mask] - 1 / 38).max() < 1e-12
    assert np.abs(out[~field.mask] - 1 / 76).max() < 1e-12


def test_fuse_weight_one_recovers_input_exactly():
    rng = np.random.default_rng(2)
    f = random_pmf(rng, 32)
    assert np.array_equal(chernoff_fuse([(f, 1.0)]), f)
    g = random_pmf(rng, 32)
    assert np.array_equal(chernoff_fuse([(f, 1.0), (g, 0.0)]), f)


def test_fuse_two_party_commutes_with_swapped_weights():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f, g = random_pmf(rng, 10), random_pmf(rng, 10)
        w = float(rng.uniform(0.1, 0.9))
        a = chernoff_fuse([(f, w), (g, 1 - w)])
        b = chernoff_fuse([(g, 1 - w), (f, w)])
        assert np.abs(a - b).max() < 1e-15


def test_fuse_output_normalized_and_positive():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        raw = rng.random(k)
        weights = raw / raw.sum()
        opinions = [(random_pmf(rng, 24), float(w)) for w in weights]
        out = chernoff_fuse(opinions)
        assert abs(out.sum() - 1.0) < 1e-12
        assert out.min() > 0


def test_fuse_rejects_bad_inputs():
    f = np.full(4, 0.25)
    with pytest.raises(ValueError):
        chernoff_fuse([])
    with pytest.raises(ValueError):
        chernoff_fuse([(f, 0.4), (f, 0.4)])
    with pytest.raises(ValueError):
        chernoff_fuse([(np.array([0.5, 0.5, 0.0, 0.0]), 0.5), (f, 0.5)])
    with pytest.raises(ValueError):
        chernoff_fuse([(f, 0.5), (np.full(5, 0.2), 0.5)])
    with pytest.raises(ValueError):
        chernoff_fuse([(f, 1.5), (f, -0.5)])


# ---------------------------------------------------------------------------
# threshold + merge


def test_threshold_uniform_against_nominal_is_empty():
    f = np.full(64, 1 / 64)
    theta = threshold_fused(f, f.copy(), 0.8)
    assert not theta.mask.any()


def test_threshold_reference_recovers_feature_set():
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    theta = threshold_fused(field.f_ref, field.f_nom, 0.8)
    # 0.04 > 1/64 > 0.01, so exactly the feature nodes survive
    assert theta.occupied_nodes() == tuple(sorted(DEFAULT_FEATURES))


def test_threshold_single_elevated_entry():
    f_nom = np.full(4, 0.25)
    f = np.array([0.4, 0.2, 0.2, 0.2])
    assert threshold_fused(f, f_nom, 0.8).occupied_nodes() == (1,)


def test_threshold_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        threshold_fused(np.full(4, 0.25), np.full(5, 0.2), 0.8)


def test_merge_keeps_nominal():
    nom = OccupancyVector(np.zeros(8, bool), 0.8)
    out = merge_occupancy(nom, nom, nom)
    assert not out.mask.any()


def test_merge_is_union_of_occupied_sets():
    nom = OccupancyVector(np.zeros(64, bool), 0.8)
    a = np.zeros(64, bool)
    a[18] = True
    b = np.zeros(64, bool)
    b[19] = True
    out = merge_occupancy(OccupancyVector(a, 0.8), OccupancyVector(b, 0.8), nom)
    assert out.occupied_nodes() == (19, 20)


def test_merge_reference_is_absorbing():
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    rng = np.random.default_rng(5)
    sub = field.mask & (rng.random(64) < 0.5)
    out = merge_occupancy(
        OccupancyVector(field.mask, 0.8), OccupancyVector(sub, 0.8), nominal_occupancy(64, 0.8)
    )
    assert np.array_equal(out.mask, field.mask)


def test_merge_semilattice_laws():
    rng = np.random.default_rng(6)
    nom = OccupancyVector(np.zeros(12, bool), 0.8)
    for _ in range(500):
        a, b, c = (random_occupancy(rng, 12) for _ in range(3))
        ab = merge_occupancy(a, b, nom)
        ba = merge_occupancy(b, a, nom)
        assert np.array_equal(ab.mask, ba.mask)
        left = merge_occupancy(ab, c, nom)
        right = merge_occupancy(a, merge_occupancy(b, c, nom), nom)
        assert np.array_equal(left.mask, right.mask)
        assert np.array_equal(merge_occupancy(a, a, nom).mask, a.mask)


def test_merge_rejects_mismatched_vectors():
    nom = OccupancyVector(np.zeros(4, bool), 0.8)
    other_level = OccupancyVector(np.zeros(4, bool), 0.7)
    other_size = OccupancyVector(np.zeros(5, bool), 0.8)
    with pytest.raises(ValueError):
        merge_occupancy(nom, other_level, nom)
    with pytest.raises(ValueError):
        merge_occupancy(nom, other_size, nom)


def test_no_false_positives_exhaustive_small_supports():
    """Thresholded equal-weight fusion never marks a node outside the union of
    the participants' occupied sets: exhaustive over all occupancy pairs for
    supports up to 8 nodes, cross-checked against the public API on a sample."""
    level = 0.8
    rng = np.random.default_rng(7)
    for size in range(1, 9):
        masks = np.array(
            [[(m >> i) & 1 for i in range(size)] for m in range(2**size)], dtype=bool
        )
        vals = np.where(masks, level, 1 - level)
        pmfs = vals / vals.sum(axis=1, keepdims=True)
        log_f = np.log(pmfs)
        # all pairs at once: fused log-PMF for every (a, b)
        pair_log = 0.5 * (log_f[:, None, :] + log_f[None, :, :])
        pair = np.exp(pair_log)
        pair /= pair.sum(axis=2, keepdims=True)
        marked = pair > (1.0 / size)
        # identical opinions fuse to themselves exactly; the exp round trip
        # above wobbles one ulp around uniform, so evaluate those pairs direct
        same = np.all(masks[:, None, :] == masks[None, :, :], axis=2)
        marked[same] = (pmfs > 1.0 / size)[np.nonzero(same)[0]]
        union = masks[:, None, :] | masks[None, :, :]
        assert not np.any(marked & ~union), f"false positive at support size {size}"
        # tie the vectorized sweep to the real functions on a random sample
        for _ in range(10):
            a, b = rng.integers(0, 2**size, size=2)
            fused = chernoff_fuse([(pmfs[a], 0.5), (pmfs[b], 0.5)])
            theta = threshold_fused(fused, np.full(size, 1.0 / size), level)
            assert not np.any(theta.mask & ~union[a, b])
