"""The engine against the per-robot reference tick on random configurations.

Hypothesis draws valid RunConfigs over grids of side 1 to 12, 1 to 16 robots,
spacings 0.3, 0.7 and 1.0, communication radii from 0 to 10 spacings (exact
multiples included, where rounded coordinates sit on the in-range boundary),
both modes, both carries, random feature sets and snapshot steps, and short
horizons. ``run`` must reproduce ``reference_run`` field by field, bitwise.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_engine_reference import assert_same_trace, reference_run

from gridfusion.engine import RunConfig, run
from gridfusion.errors import ConfigError

SPACINGS = (0.3, 0.7, 1.0)
RADIUS_SPACINGS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, 10.0]),
    st.floats(0.0, 10.0),
)


@st.composite
def configs(draw):
    side = draw(st.integers(1, 12))
    spacing = draw(st.sampled_from(SPACINGS))
    max_steps = draw(st.integers(1, 300))
    nodes = side * side
    features = draw(st.lists(st.integers(1, nodes), unique=True, min_size=1,
                             max_size=max(1, nodes // 3)))
    config = RunConfig(
        side_count=side,
        spacing=spacing,
        robot_count=draw(st.integers(1, 16)),
        features=tuple(features),
        epsilon=draw(st.sampled_from([0.001, 0.01, 0.05])),
        max_steps=max_steps,
        mode=draw(st.sampled_from(["consensus", "no-consensus"])),
        carry=draw(st.sampled_from(["occupancy", "chernoff"])),
        seed=draw(st.integers(0, 2**32)),
        comm_radius=draw(RADIUS_SPACINGS) * spacing,
        snapshot_steps=tuple(draw(st.lists(st.integers(0, max_steps + 2), max_size=4))),
    )
    try:
        return config.validate()
    except ConfigError:  # a map on which the occupancy carry's distance can rise
        assume(False)


@settings(max_examples=200, deadline=None)
@given(config=configs())
def test_engine_matches_reference_on_random_configs(config):
    assert_same_trace(run(config), reference_run(config))
