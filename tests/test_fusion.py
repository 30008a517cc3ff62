import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfusion.engine import DEFAULT_FEATURES
from gridfusion.fusion import chernoff_fuse, merge_occupancy, metropolis_weights
from gridfusion.occupancy import FeatureField, OccupancyVector, pmf_rows


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


def test_weights_isolated_robot():
    w = metropolis_weights(3, {})
    assert w.weights == {3: 1.0}


def test_weights_three_colocated():
    # in a triangle every robot has two neighbors
    w = metropolis_weights(1, {2: 2, 3: 2})
    assert w.weights[2] == pytest.approx(1 / 3, abs=1e-15)
    assert w.weights[3] == pytest.approx(1 / 3, abs=1e-15)
    assert w.weights[1] == pytest.approx(1 / 3, abs=1e-15)


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


NAN = float("nan")
P, Q = np.full(4, 0.25), np.array([0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize("fuse", [
    lambda: chernoff_fuse([(P, NAN), (Q, 1.0)]),
    lambda: chernoff_fuse([(P, 0.5), (Q, NAN)]),
    lambda: chernoff_fuse([(P, NAN)]),
    lambda: chernoff_fuse([(np.array([0.5, 0.5, NAN, 0.0]), 1.0)]),
    lambda: metropolis_weights(1, {2: NAN}),
], ids=["nan-weight-first", "nan-weight-last", "nan-weight-alone", "nan-pmf-entry",
        "nan-neighbor-count"])
def test_nan_inputs_are_rejected(fuse):
    # every input check is written so that a NaN fails it
    with pytest.raises(ValueError):
        fuse()


@st.composite
def graphs_with_opinions(draw, size=5):
    """A random graph on 1..n (n <= 8) as an edge list, and one strictly
    positive PMF per robot."""
    n = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n * size, max_size=n * size)))
    raw = raw.reshape(n, size)
    return edges, raw / raw.sum(axis=1, keepdims=True)


def normalized_geometric_mean(pmfs):
    g = np.exp(np.log(pmfs).mean(axis=0))
    return g / g.sum()


@settings(max_examples=300, deadline=None)
@given(graphs_with_opinions())
def test_fusion_step_keeps_the_normalized_geometric_mean(case):
    """Metropolis weights are symmetric with rows summing to 1, so the fused
    log-opinions sum to the input log-opinions minus constants: one
    simultaneous fusion step leaves the normalized geometric mean in place."""
    edges, pmfs = case
    neighbors = {a: set() for a in range(1, len(pmfs) + 1)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    fused = []
    for a in neighbors:
        weights = metropolis_weights(a, {b: len(neighbors[b]) for b in neighbors[a]})
        fused.append(chernoff_fuse([(pmfs[b - 1], w) for b, w in sorted(weights.items())]))
    before = normalized_geometric_mean(pmfs)
    assert np.abs(normalized_geometric_mean(np.array(fused)) - before).max() < 1e-12


# ---------------------------------------------------------------------------
# threshold + merge


def test_threshold_uniform_against_nominal_is_empty():
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    fused = chernoff_fuse([(field.f_nom, 0.5), (field.f_nom, 0.5)])
    assert not (fused > field.f_nom).any()


def test_threshold_reference_recovers_feature_set():
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    # 0.04 > 1/64 > 0.01, so exactly the feature nodes survive
    marked = field.f_ref > field.f_nom
    assert tuple(np.flatnonzero(marked) + 1) == tuple(sorted(DEFAULT_FEATURES))


def test_threshold_single_elevated_entry():
    f_nom = np.full(4, 0.25)
    f = np.array([0.4, 0.2, 0.2, 0.2])
    assert (f > f_nom).tolist() == [True, False, False, False]
    # a tie counts as unoccupied
    assert not (f_nom > f_nom).any()


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
    assert (np.flatnonzero(out.mask) + 1).tolist() == [19, 20]


def test_merge_reference_is_absorbing():
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    rng = np.random.default_rng(5)
    sub = field.mask & (rng.random(64) < 0.5)
    out = merge_occupancy(
        OccupancyVector(field.mask, 0.8),
        OccupancyVector(sub, 0.8),
        OccupancyVector(np.zeros(64, bool), 0.8),
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
            marked = fused > np.full(size, 1.0 / size)
            assert not np.any(marked & ~union[a, b])


@st.composite
def colocated_groups(draw):
    """Occupancy masks of a co-located group of 2-6 robots on a 2x2 to 9x9
    grid, and a level in [0.6, 0.9]."""
    g, side = draw(st.integers(2, 6)), draw(st.integers(2, 9))
    row = st.lists(st.booleans(), min_size=side * side, max_size=side * side)
    masks = draw(st.lists(row, min_size=g, max_size=g))
    return np.array(masks, dtype=bool), draw(st.floats(0.6, 0.9))


def adoptions(masks, level):
    """(fused, rule, tie) for a co-located group: row a of fused marks the
    nodes that member a + 1's fusion puts above nominal; rule marks node s iff
    S * r^(k_s/g) > sum_t r^(k_t/g), with r = L/(1-L) and k_s the number of
    members that know s; tie marks the nodes where those two sides lie within
    a relative 1e-12 of each other."""
    g, s = masks.shape
    pmfs = pmf_rows(masks, level)
    f_nom = pmf_rows(np.zeros((1, s), dtype=bool), level)[0]
    fused = []
    for a in range(1, g + 1):
        weights = metropolis_weights(a, {b: g - 1 for b in range(1, g + 1) if b != a})
        fused.append(chernoff_fuse([(pmfs[b - 1], w) for b, w in sorted(weights.items())]) > f_nom)
    power = (level / (1.0 - level)) ** (masks.sum(axis=0) / g)
    lhs, rhs = s * power, power.sum()
    return np.array(fused), lhs > rhs, np.abs(lhs - rhs) <= 1e-12 * rhs


@settings(max_examples=200, deadline=None)
@given(colocated_groups())
def test_colocated_fusion_is_a_count_threshold(group):
    """Every member of a co-located group weighs each opinion 1/g, and every
    opinion is a two-level PMF, so the normalizers cancel and fused(s) is
    proportional to r^(k_s/g): a node is adopted by a count threshold."""
    masks, level = group
    fused, rule, tie = adoptions(masks, level)
    assert (fused[:, ~tie] == rule[~tie]).all()


def test_count_threshold_merge_need_not_be_the_union():
    # robots 1 and 2 know nodes 1-3 and robot 3 knows node 4 alone; with
    # r = 4, 4 * 4^(1/3) < 3 * 4^(2/3) + 4^(1/3), so nobody adopts node 4
    masks = np.array([[1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1]], dtype=bool)
    fused, rule, tie = adoptions(masks, 0.8)
    assert not tie.any() and (fused == rule).all()
    assert rule.tolist() == [True, True, True, False]
    merged = masks | fused
    assert merged[0].tolist() == [True, True, True, False]
    assert merged[2].tolist() == [True, True, True, True]
