import itertools
import math

import numpy as np
import pytest

from gridfusion.engine import DEFAULT_FEATURES
from gridfusion.occupancy import (
    FeatureField,
    OccupancyVector,
    circle_nodes,
    pmf_from_occupancy,
    pmf_rows,
)


@pytest.fixture
def field():
    return FeatureField(node_count=64, occupied=frozenset(DEFAULT_FEATURES), level=0.8)


def test_occupancy_vector_is_two_valued():
    theta = OccupancyVector(np.array([1, 0, 1]), 0.8)
    assert theta.mask.tolist() == [True, False, True]
    expected = [0.8 / 1.8, (1.0 - 0.8) / 1.8, 0.8 / 1.8]
    assert pmf_from_occupancy(theta).tolist() == pytest.approx(expected, abs=1e-15)


def test_occupancy_vector_rejects_bad_level():
    for level in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ValueError):
            OccupancyVector(np.zeros(4, bool), level)


def test_occupancy_vector_immutable():
    theta = OccupancyVector(np.zeros(4, bool), 0.8)
    with pytest.raises(ValueError):
        theta.mask[0] = True


def test_nominal_pmf_is_uniform():
    theta = OccupancyVector(np.zeros(64, bool), 0.8)
    f = pmf_from_occupancy(theta)
    assert np.all(f == 1 / 64)
    assert f.sum() == pytest.approx(1.0, abs=1e-12)


def test_reference_pmf_values(field):
    # 12 occupied of 64 at level 0.8: denominator 12*0.8 + 52*0.2 = 20
    f = field.f_ref
    occupied = field.mask
    assert np.allclose(f[occupied], 0.8 / 20, atol=1e-15)
    assert np.allclose(f[~occupied], 0.2 / 20, atol=1e-15)
    assert f.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_node_pmf():
    theta = OccupancyVector(np.array([True]), 0.8)
    assert pmf_from_occupancy(theta).tolist() == [1.0]


def test_pmf_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = OccupancyVector(rng.random(16) < 0.3, 0.8)
        f = pmf_from_occupancy(theta)
        for const in (0.25, 3.0, 1e6):
            scaled = const * np.where(theta.mask, 0.8, 0.2)
            assert np.allclose(scaled / scaled.sum(), f, atol=1e-15)


def test_pmf_rows_match_pmf_from_occupancy_bitwise():
    # a stretch or a meeting step normalizes whatever rows it stacked in one
    # call, so every row of any batch must be bitwise the row normalized alone
    rng = np.random.default_rng(8)
    for size in (4, 64, 4096, 65536):
        masks = rng.random((8, size)) < rng.random((8, 1))
        masks[0], masks[1] = False, True
        alone = np.array([pmf_from_occupancy(OccupancyVector(mask, 0.8)) for mask in masks])
        for count in range(1, 9):
            for _ in range(5):
                picked = rng.permutation(8)[:count]
                assert pmf_rows(masks[picked], 0.8).tobytes() == alone[picked].tobytes()


def test_pmf_from_occupancy_two_values_at_most():
    theta = OccupancyVector(np.array([True, True, False, False]), 0.7)
    assert len(set(pmf_from_occupancy(theta).tolist())) <= 2


def test_feature_field_nominal_is_all_unoccupied(field):
    assert np.all(field.f_nom == 1 / 64)
    assert tuple(np.flatnonzero(field.mask) + 1) == tuple(sorted(DEFAULT_FEATURES))


def test_feature_field_rejects_out_of_range_nodes():
    with pytest.raises(ValueError):
        FeatureField(node_count=16, occupied=frozenset({17}), level=0.8)
    with pytest.raises(ValueError):
        FeatureField(node_count=16, occupied=frozenset({0}), level=0.8)


def test_feature_field_takes_no_default_level():
    with pytest.raises(TypeError):
        FeatureField(node_count=16, occupied=frozenset({1}))


def test_feature_field_empty_is_valid():
    field = FeatureField(node_count=9, occupied=frozenset(), level=0.8)
    assert np.array_equal(field.f_ref, field.f_nom)


def test_circle_nodes_reproduces_default_feature_ring():
    assert circle_nodes(8, 4, 5, 2) == tuple(sorted(DEFAULT_FEATURES))


def test_circle_radius_zero_is_center():
    assert circle_nodes(8, 4, 5, 0) == (36,)


def test_circle_on_tiny_grid():
    assert circle_nodes(1, 1, 1, 0) == (1,)
    assert circle_nodes(2, 1, 1, 5) == ()


def circle_nodes_by_loop(side_count, center_col, center_row, radius):
    """Reference ring: the per-node loop that circle_nodes replaced."""
    out = []
    for node in range(1, side_count * side_count + 1):
        row = (node - 1) // side_count + 1
        col = (node - 1) % side_count + 1
        dist = math.hypot(col - center_col, row - center_row)
        if radius - 0.5 <= dist < radius + 0.5:
            out.append(node)
    return tuple(out)


def test_circle_ring_is_half_open_at_exact_distances():
    # nodes 29 and 36 lie at distance exactly 5 (3-4-5) from node 1
    assert {29, 36} <= set(circle_nodes(8, 1, 1, 5.5))
    assert not {29, 36} & set(circle_nodes(8, 1, 1, 4.5))
    # a half-integer center puts node 1 at distance exactly 2.5 from (2.5, 3)
    assert 1 in circle_nodes(8, 2.5, 3, 3)
    assert 1 not in circle_nodes(8, 2.5, 3, 2)


@pytest.mark.parametrize("side", [*range(1, 13), 33, 64])
def test_circle_nodes_match_the_per_node_loop(side):
    halves = [h / 2 for h in range(-2, 2 * side + 5)]
    centers = halves if side <= 12 else halves[::13]
    radii = halves[2:side + 6] if side <= 12 else [0, 0.5, 1, 4.5, 5.5, 12, side / 2, side]
    for cx, cy in itertools.product(centers, centers[::4]):
        for r in radii:
            assert circle_nodes(side, cx, cy, r) == circle_nodes_by_loop(side, cx, cy, r), (
                side, cx, cy, r)
    rng = np.random.default_rng(side)
    for cx, cy, r in zip(*rng.uniform(-2, side + 2, (2, 200)), rng.uniform(0, side, 200)):
        cx, cy, r = float(cx), float(cy), float(r)
        got = circle_nodes(side, cx, cy, r)
        assert got == circle_nodes_by_loop(side, cx, cy, r), (side, cx, cy, r)
        assert all(type(node) is int for node in got)
