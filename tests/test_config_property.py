"""Every configuration either runs or is rejected with ConfigError.

Hypothesis draws each RunConfig field from a mix of plausible values and
junk (wrong types, NaN, negatives, bools), on grids of at most 4x4 with at
most 40 steps, and checks the library and the CLI: a run either succeeds or
raises ConfigError, and the CLI exits 0, 1 or 2 without a traceback.
"""

import math

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridfusion.cli import main
from gridfusion.engine import RunConfig, RunTrace, run
from gridfusion.errors import ConfigError

JUNK = st.sampled_from([None, "abc", "", True, False, -1, 0, 1.5, math.nan, math.inf, [1], {}])
REALS = st.floats(-1.0, 4.0)
FEATURES = st.one_of(
    st.lists(st.integers(-1, 17), max_size=6),
    st.lists(st.one_of(st.integers(1, 16), st.floats(1, 16), st.text(max_size=2)), max_size=3),
    st.builds("circle:{},{},{}".format, st.integers(0, 5), st.integers(0, 5), st.integers(-1, 3)),
    st.sampled_from(["circle:1,2", "circle:a,b,c", "ring:1,1,1"]),
)

FIELDS = {
    "side_count": st.one_of(st.integers(-1, 4), JUNK),
    "spacing": st.one_of(REALS, JUNK),
    "robot_count": st.one_of(st.integers(-1, 5), JUNK),
    "level": st.one_of(st.floats(0.3, 1.1), JUNK),
    "features": st.one_of(FEATURES, JUNK),
    "epsilon": st.one_of(st.floats(-0.1, 0.5), JUNK),
    "max_steps": st.one_of(st.integers(-1, 40), JUNK),
    "mode": st.sampled_from(["consensus", "no-consensus", "both", None]),
    "carry": st.sampled_from(["occupancy", "chernoff", "raw", None]),
    "seed": st.one_of(st.integers(-1, 2**40), JUNK),
    "comm_radius": st.one_of(REALS, JUNK),
    "snapshot_steps": st.one_of(st.lists(st.integers(-1, 45), max_size=3), JUNK),
    "step_seconds": st.one_of(REALS, JUNK),
}

# any subset of fields, each from its strategy; unset fields keep defaults
# except that the grid and horizon stay small
SMALL = {"side_count": st.integers(1, 4), "max_steps": st.integers(1, 40)}
CONFIGS = st.fixed_dictionaries(
    SMALL, optional={name: field for name, field in FIELDS.items() if name not in SMALL}
)


@settings(max_examples=150, deadline=None)
@given(CONFIGS)
def test_every_config_runs_or_raises_config_error(fields):
    if isinstance(fields.get("snapshot_steps"), list):
        fields["snapshot_steps"] = tuple(fields["snapshot_steps"])
    try:
        trace = run(RunConfig(**fields))
    except ConfigError:
        return
    assert isinstance(trace, RunTrace)


def _flag_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


FLAGS = {
    "--grid-size": "side_count", "--spacing": "spacing", "--lbar": "level",
    "--features": "features", "--epsilon": "epsilon", "--max-steps": "max_steps",
    "--seed": "seed", "--comm-radius": "comm_radius",
    "--snapshot-steps": "snapshot_steps", "--step-seconds": "step_seconds",
}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["run", "batch"]),
    fields=CONFIGS,
    robots=st.sampled_from(["2", "1,3", "0", "4,x", "", "-2", "1.5"]),
    yaml_fields=st.one_of(st.none(), st.fixed_dictionaries({}, optional=FIELDS)),
    batch=st.one_of(st.none(), st.fixed_dictionaries(
        {"runs": st.one_of(st.integers(-1, 2), JUNK)},
        optional={"workers": st.one_of(st.just(1), JUNK)})),
)
def test_cli_exits_with_a_code_not_a_traceback(tmp_path, capsys, command, fields, robots,
                                               yaml_fields, batch):
    argv = [command, "--robots", robots, "--out", str(tmp_path / "out")]
    if command == "batch" and (yaml_fields is None or batch is None):
        argv += ["--runs", "1"]
    for flag, name in FLAGS.items():
        if name in fields:
            argv += [flag, _flag_text(fields[name])]
    if fields.get("carry") in ("occupancy", "chernoff"):
        argv += ["--carry", fields["carry"]]
    if yaml_fields is not None:
        config_path = tmp_path / "config.yaml"
        doc = {"format": "gridfusion-config/1", "run": yaml_fields}
        if batch:
            doc["batch"] = batch
        config_path.write_text(yaml.safe_dump(doc))
        argv += ["--config", str(config_path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a value it parses itself
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert "invariant violation" in err or err.startswith("error:")
