import numpy as np
import pytest

from gridfusion.engine import DEFAULT_FEATURES
from gridfusion.occupancy import (
    FeatureField,
    OccupancyVector,
    circle_nodes,
    nominal_occupancy,
    pmf_from_occupancy,
    sense_and_update,
)


@pytest.fixture
def field():
    return FeatureField(node_count=64, occupied=frozenset(DEFAULT_FEATURES), level=0.8)


def test_occupancy_vector_is_two_valued():
    theta = OccupancyVector(np.array([True, False, True]), 0.8)
    assert theta.values.tolist() == [0.8, 1.0 - 0.8, 0.8]
    assert theta.occupied_nodes() == (1, 3)


def test_occupancy_vector_rejects_bad_level():
    for level in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ValueError):
            OccupancyVector(np.zeros(4, bool), level)


def test_occupancy_vector_immutable():
    theta = OccupancyVector(np.zeros(4, bool), 0.8)
    with pytest.raises(ValueError):
        theta.mask[0] = True


def test_nominal_pmf_is_uniform():
    theta = nominal_occupancy(64, 0.8)
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
            scaled = const * theta.values
            assert np.allclose(scaled / scaled.sum(), f, atol=1e-15)


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


def test_feature_field_empty_is_valid():
    field = FeatureField(node_count=9, occupied=frozenset(), level=0.8)
    assert np.array_equal(field.f_ref, field.f_nom)


def test_sense_detects_feature(field):
    theta = nominal_occupancy(64, 0.8)
    out = sense_and_update(theta, 19, field)
    assert out.values[18] == 0.8
    assert out.occupied_nodes() == (19,)
    # only that entry moved
    assert np.count_nonzero(out.mask) == 1


def test_sense_no_feature_no_change(field):
    theta = nominal_occupancy(64, 0.8)
    out = sense_and_update(theta, 1, field)
    assert out is theta


def test_sense_idempotent(field):
    theta = nominal_occupancy(64, 0.8)
    once = sense_and_update(theta, 19, field)
    twice = sense_and_update(once, 19, field)
    assert twice is once


def test_sense_rejects_out_of_range(field):
    theta = nominal_occupancy(64, 0.8)
    with pytest.raises(IndexError):
        sense_and_update(theta, 0, field)
    with pytest.raises(IndexError):
        sense_and_update(theta, 65, field)


def test_sense_monotone_and_bounded_by_reference(field):
    rng = np.random.default_rng(11)
    theta = nominal_occupancy(64, 0.8)
    for _ in range(500):
        node = int(rng.integers(1, 65))
        nxt = sense_and_update(theta, node, field)
        assert np.all(nxt.values >= theta.values)
        assert np.all(nxt.values <= OccupancyVector(field.mask, 0.8).values)
        theta = nxt


def test_circle_nodes_reproduces_default_feature_ring():
    assert circle_nodes(8, 4, 5, 2) == tuple(sorted(DEFAULT_FEATURES))


def test_circle_radius_zero_is_center():
    assert circle_nodes(8, 4, 5, 0) == (36,)


def test_circle_on_tiny_grid():
    assert circle_nodes(1, 1, 1, 0) == (1,)
    assert circle_nodes(2, 1, 1, 5) == ()
