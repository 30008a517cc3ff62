import concurrent.futures
import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridfusion import cli, harness
from gridfusion.engine import DEFAULT_FEATURES, RunConfig, RunTrace, run
from gridfusion.errors import ConfigError
from gridfusion.harness import (
    McSummary,
    config_from_dict,
    derive_run_seed,
    emit_outputs,
    load_config,
    parse_features,
    run_batch,
    run_sweep,
    summarize,
    summarize_block,
    write_pmf_csv,
    write_trace_csv,
)
from gridfusion.occupancy import FeatureField


def tiny_config(**kw):
    base = dict(robot_count=2, max_steps=2000, seed=0)
    base.update(kw)
    return RunConfig(**base)


def test_derive_run_seed_is_stable_and_distinct():
    seeds = [derive_run_seed(7, i) for i in range(50)]
    assert seeds == [derive_run_seed(7, i) for i in range(50)]
    assert len(set(seeds)) == 50
    assert all(s >= 0 for s in seeds)


def test_single_run_batch_statistics():
    traces = run_batch(tiny_config(), runs=1, master_seed=5)
    block = summarize_block("consensus", 2, traces)
    assert block.runs == 1 and block.censored == 0
    assert block.mean_steps == traces[0].convergence_step
    assert block.std_steps == 0.0


def test_batch_is_reproducible():
    a = run_batch(tiny_config(), runs=4, master_seed=9)
    b = run_batch(tiny_config(), runs=4, master_seed=9)
    for ta, tb in zip(a, b):
        assert ta.seed == tb.seed
        assert np.array_equal(ta.distances, tb.distances)


def test_batch_worker_count_does_not_change_results():
    serial = run_batch(tiny_config(), runs=6, master_seed=3, workers=1)
    pooled = run_batch(tiny_config(), runs=6, master_seed=3, workers=2)
    for ts, tp in zip(serial, pooled):
        assert ts.seed == tp.seed
        assert np.array_equal(ts.distances, tp.distances)


@pytest.fixture
def pools_started(monkeypatch):
    """max_workers of every process pool started while the test runs."""
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return started


def test_batch_rejects_bad_arguments(pools_started):
    with pytest.raises(ConfigError):
        run_batch(tiny_config(), runs=0, master_seed=0)
    for workers in (0, -2, 1.5, True, "2"):
        with pytest.raises(ConfigError):
            run_batch(tiny_config(), 1, 0, workers)
        with pytest.raises(ConfigError):
            run_sweep(tiny_config(), [2], ["consensus"], 1, 0, workers=workers)
    for counts in ([2.7], [True], ["2"]):
        with pytest.raises(ConfigError, match="robot_count"):
            run_sweep(tiny_config(), counts, ["consensus"], 1, 0)
    # a repeated block would run twice and overwrite its own trace files
    for counts, modes in (([4, 2, 4], ["consensus"]), ([2], ["consensus", "consensus"])):
        with pytest.raises(ConfigError, match="must not repeat"):
            run_sweep(tiny_config(), counts, modes, 1, 0, workers=2)
    assert pools_started == []


def test_sweep_checks_every_block_before_its_first_run(pools_started, monkeypatch, tmp_path):
    runs_started = []

    def counting_run(config):
        runs_started.append(config.robot_count)
        return run(config)

    monkeypatch.setattr(harness, "run", counting_run)
    config = tiny_config()
    with pytest.raises(ConfigError, match="robot_count"):
        run_sweep(config, [4, 0], ["consensus"], 3, 0, workers=2)
    assert pools_started == []
    with pytest.raises(ConfigError, match="runs"):
        run_sweep(config, [4], ["consensus"], 0, 0, workers=2)
    for seed in (-1, 1.5, "3", True):
        with pytest.raises(ConfigError, match="master_seed"):
            run_sweep(config, [4], ["consensus"], 3, seed, workers=2)
        with pytest.raises(ConfigError, match="master_seed"):
            run_batch(config, 3, seed, workers=2)
    assert pools_started == []
    # an empty sweep has no block to run
    for counts, modes in (([], ["consensus"]), ([4], [])):
        with pytest.raises(ConfigError, match="non-empty"):
            run_sweep(config, counts, modes, 2, 1, workers=2)
    argv = ["batch", "--robots", "4,16,0", "--mode", "both", "--runs", "300",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert runs_started == [] and pools_started == []
    assert not (tmp_path / "out").exists()


def test_sweep_starts_one_pool_and_matches_serial_traces(pools_started):
    sweep = dict(robot_counts=[2, 3], modes=["consensus", "no-consensus"], runs=3,
                 master_seed=6)
    config = tiny_config(snapshot_steps=(0, 5))
    _, pooled = run_sweep(config, workers=2, **sweep)
    assert pools_started == [2]
    _, serial = run_sweep(config, workers=1, **sweep)
    assert pools_started == [2]
    assert pooled.keys() == serial.keys()
    for key, traces in serial.items():
        assert [pickle.dumps(t) for t in pooled[key]] == [pickle.dumps(t) for t in traces]


def test_summarize_counts_censored_runs():
    traces = run_batch(tiny_config(max_steps=3, epsilon=1e-9), runs=5, master_seed=1)
    block = summarize_block("consensus", 2, traces)
    assert block.censored == 5
    assert np.isnan(block.mean_steps)


def test_sweep_produces_blocks_per_mode_and_count():
    summary, traces = run_sweep(
        tiny_config(), robot_counts=[2, 3], modes=["consensus", "no-consensus"],
        runs=2, master_seed=4,
    )
    assert len(summary.blocks) == 4
    assert set(traces) == {("consensus", 2), ("consensus", 3),
                           ("no-consensus", 2), ("no-consensus", 3)}
    assert [(b.mode, b.robot_count) for b in summary.blocks] == [
        ("consensus", 2), ("consensus", 3), ("no-consensus", 2), ("no-consensus", 3)]
    assert all(b.runs == 2 for b in summary.blocks)


def test_a_sweep_echoes_only_the_fields_its_blocks_share():
    config = tiny_config()
    summary, traces = run_sweep(config, [2], ["consensus"], runs=2, master_seed=3)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(summary.config_echo) == fields - {"robot_count", "mode", "seed"}
    # a single run, as `gridfusion run` writes it, echoes every field
    single = summarize(config, traces, 3)
    assert set(single.config_echo) == fields
    assert (single.blocks, single.runs_per_block) == (summary.blocks, 2)


def test_trace_csv_round_trip(tmp_path):
    trace = run(RunConfig(seed=1))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# gridfusion-trace v1"
    assert lines[1] == "k,dh_1,dh_2,dh_3,dh_4"
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    steps, dists = table[:, 0], table[:, 1:]
    assert steps.tolist() == list(range(trace.distances.shape[0]))
    assert np.array_equal(dists, trace.distances)  # repr round-trips exactly


def reference_write_trace_csv(trace: RunTrace, path) -> None:
    """The whole-array writer: every row of the expanded distance matrix."""
    n = trace.robot_count
    header = "k," + ",".join(f"dh_{a}" for a in range(1, n + 1))
    lines = ["# gridfusion-trace v1", header]
    keys = trace.distances.view(np.int64).tolist()
    last = text = None
    for k, (row, key) in enumerate(zip(trace.distances.tolist(), keys)):
        if key != last:
            last, text = key, ",".join(map(repr, row))
        lines.append(f"{k},{text}")
    path.write_text("\n".join(lines) + "\n")


def assert_writers_agree(trace, tmp_path):
    write_trace_csv(trace, tmp_path / "streamed.csv")
    reference_write_trace_csv(trace, tmp_path / "reference.csv")
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "reference.csv").read_bytes()
    assert streamed.count(b"\n") == trace.step_count + 3


@pytest.mark.parametrize("carry", ["occupancy", "chernoff"])
def test_trace_writer_matches_whole_array_writer_on_sweeps(tmp_path, carry):
    config = tiny_config(carry=carry, max_steps=400)
    _, traces = run_sweep(config, [1, 3], ["consensus", "no-consensus"], 2, 4)
    for block in traces.values():
        for trace in block:
            assert_writers_agree(trace, tmp_path)
    assert any(t.censored for block in traces.values() for t in block)


def hand_built_trace(steps, rows, step_count):
    rows = np.array(rows, dtype=float)
    return RunTrace(seed=0, change_steps=np.array(steps), change_rows=rows,
                    step_count=step_count, robot_convergence=(None,) * rows.shape[1],
                    convergence_step=None, snapshots={}, final_pmfs=rows[-1:])


@pytest.mark.parametrize("steps, rows, step_count", [
    ([0, 2, 3, 4, 7], [[0.0, -0.0], [-0.0, 0.0], [np.nan, 1e-17], [np.nan, 1e-17],
                       [1e-17, -np.nan]], 9),
    ([0, 1, 2], [[0.5], [-0.0], [0.0]], 2),
    ([0], [[np.nan, 0.0, -0.0]], 0),
    ([0], [[1e-17, 0.25]], 5),
])
def test_trace_writer_matches_whole_array_writer_on_edge_values(tmp_path, steps, rows,
                                                                step_count):
    assert_writers_agree(hand_built_trace(steps, rows, step_count), tmp_path)


def test_trace_writer_on_a_run_that_converges_at_step_zero(tmp_path):
    trace = run(tiny_config(epsilon=1.1))
    assert trace.convergence_step == 0 and trace.change_steps.tolist() == [0]
    assert_writers_agree(trace, tmp_path)


def test_reference_pmf_snapshot_grid_shaped(tmp_path):
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    path = tmp_path / "reference.csv"
    write_pmf_csv(field.f_ref, 8, path, step="ref", robot="ref")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# gridfusion-pmf v1")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 8 and all(len(r) == 8 for r in rows)
    flat = [v for row in rows for v in row]
    assert sum(1 for v in flat if abs(v - 0.04) < 1e-12) == 12
    assert sum(1 for v in flat if abs(v - 0.01) < 1e-12) == 52


def test_pmf_snapshot_rejects_wrong_size(tmp_path):
    with pytest.raises(ValueError):
        write_pmf_csv(np.full(10, 0.1), 8, tmp_path / "bad.csv", 0, 1)


def test_emit_outputs_layout(tmp_path):
    config = tiny_config(snapshot_steps=(0,))
    summary, traces = run_sweep(config, [2], ["consensus"], runs=2, master_seed=8)
    field = FeatureField(64, frozenset(DEFAULT_FEATURES), 0.8)
    written = emit_outputs(traces, summary, tmp_path, 8, reference_pmf=field.f_ref)
    names = sorted(p.relative_to(tmp_path).as_posix() for p in written)
    assert "summary.json" in names
    assert "traces/consensus_N02_run0000.csv" in names
    assert "traces/consensus_N02_run0001.csv" in names
    assert "snapshots/reference.csv" in names
    assert any(n.startswith("snapshots/consensus_N02_run0000_step00000") for n in names)
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["format"] == "gridfusion-summary/1"
    assert doc["blocks"][0]["robot_count"] == 2
    assert doc["step_seconds"] == 1.0


def test_emit_outputs_names_its_tree_when_it_cannot_make_it(tmp_path):
    config = tiny_config()
    summary, traces = run_sweep(config, [2], ["consensus"], runs=1, master_seed=8)
    (tmp_path / "taken").write_text("a file, not a directory\n")
    out = tmp_path / "taken" / "out"
    with pytest.raises(OSError) as caught:
        emit_outputs(traces, summary, out, 8, reference_pmf=config.feature_field().f_ref)
    assert str(caught.value).startswith(f"failed writing outputs under {out}: ")


def test_numpy_config_values_write_the_same_summary(tmp_path):
    def summary_bytes(out, config, counts, master_seed):
        summary, traces = run_sweep(config, counts, ["consensus"], runs=2,
                                    master_seed=master_seed)
        emit_outputs(traces, summary, out, 8, reference_pmf=np.full(64, 1 / 64))
        return (out / "summary.json").read_bytes()

    plain = tiny_config(side_count=8, features=DEFAULT_FEATURES, max_steps=50)
    numpy_typed = dataclasses.replace(
        plain, side_count=np.int64(8), max_steps=np.int64(50), spacing=np.float64(0.7),
        features=tuple(np.int64(s) for s in DEFAULT_FEATURES))
    expected = summary_bytes(tmp_path / "plain", plain, [2], 8)
    assert summary_bytes(tmp_path / "numpy", numpy_typed, [np.int64(2)], np.int64(8)) == expected


def test_a_list_built_config_is_its_tuple_built_twin(tmp_path):
    def summary_bytes(out, config):
        summary, traces = run_sweep(config, [2], ["consensus"], runs=2, master_seed=3)
        emit_outputs(traces, summary, out, 8, reference_pmf=config.feature_field().f_ref)
        return (out / "summary.json").read_bytes()

    listed = tiny_config(features=[19, 20], snapshot_steps=[0, 5], max_steps=50)
    tupled = tiny_config(features=(19, 20), snapshot_steps=(0, 5), max_steps=50)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.features == (19, 20) and listed.snapshot_steps == (0, 5)
    assert summary_bytes(tmp_path / "list", listed) == summary_bytes(tmp_path / "tuple", tupled)


def test_summary_statistics_match_emitted_traces(tmp_path):
    """Aggregation oracle: recompute mean/std from the trace files."""
    config = tiny_config()
    summary, traces = run_sweep(config, [2], ["consensus"], runs=5, master_seed=2)
    emit_outputs(traces, summary, tmp_path, 8, reference_pmf=config.feature_field().f_ref)
    steps = []
    for i in range(5):
        path = tmp_path / "traces" / f"consensus_N02_run{i:04d}.csv"
        table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        ks, dists = table[:, 0], table[:, 1:]
        below = np.all(dists < config.epsilon, axis=1)
        assert below[-1]  # every run here converges, at its final recorded row
        steps.append(int(ks[np.flatnonzero(below)[0]]))
    (block,) = summary.blocks
    assert block.mean_steps == pytest.approx(np.mean(steps), abs=1e-12)
    assert block.std_steps == pytest.approx(np.std(steps), abs=1e-12)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.yaml"
    path.write_text(example)
    config, batch = load_config(path)
    assert config == RunConfig(features="circle:4,5,2")
    assert batch == {"runs": 100, "workers": 4}


@pytest.mark.parametrize("features", [DEFAULT_FEATURES, "circle:4,5,2"])
def test_config_reads_back_from_its_json_echo(features):
    config = tiny_config(features=features, snapshot_steps=(0, 5))
    echo = json.loads(json.dumps(dataclasses.asdict(config)))
    assert config_from_dict(echo) == config


def test_config_file_errors(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"format": "other/1", "run": {}}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(yaml.safe_dump({"format": "gridfusion-config/1",
                                    "run": {"robot_count": 2, "mystery": 1}}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("{unbalanced")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_parse_features_forms():
    assert parse_features("19,20,21") == (19, 20, 21)
    assert parse_features("circle:4,5,2") == "circle:4,5,2"
    with pytest.raises(ConfigError):
        parse_features("19,x")


def test_summary_serialization_is_deterministic():
    config = tiny_config()
    docs = []
    for _ in range(2):
        summary, _ = run_sweep(config, [2], ["consensus"], runs=2, master_seed=6)
        docs.append(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
    assert docs[0] == docs[1]
