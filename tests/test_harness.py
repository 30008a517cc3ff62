import json

import numpy as np
import pytest
import yaml

from gridfusion.engine import DEFAULT_FEATURES, RunConfig, run
from gridfusion.errors import ConfigError
from gridfusion.harness import (
    McSummary,
    config_from_dict,
    config_to_dict,
    derive_run_seed,
    emit_outputs,
    load_config,
    parse_features,
    read_trace_csv,
    run_batch,
    run_sweep,
    save_config,
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


def test_batch_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        run_batch(tiny_config(), runs=0, master_seed=0)
    with pytest.raises(ConfigError):
        run_batch(tiny_config(), runs=1, master_seed=0, workers=0)


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
    block = summary.block("no-consensus", 3)
    assert block.runs == 2
    with pytest.raises(KeyError):
        summary.block("consensus", 99)


def test_trace_csv_round_trip(tmp_path):
    trace = run(RunConfig(seed=1))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# gridfusion-trace v1"
    assert lines[1] == "k,dh_1,dh_2,dh_3,dh_4"
    steps, dists = read_trace_csv(path)
    assert steps.tolist() == list(range(trace.distances.shape[0]))
    assert np.array_equal(dists, trace.distances)  # repr round-trips exactly


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


def test_summary_statistics_match_emitted_traces(tmp_path):
    """Aggregation oracle: recompute mean/std from the trace files."""
    config = tiny_config()
    summary, traces = run_sweep(config, [2], ["consensus"], runs=5, master_seed=2)
    emit_outputs(traces, summary, tmp_path, 8)
    steps = []
    for i in range(5):
        ks, dists = read_trace_csv(tmp_path / "traces" / f"consensus_N02_run{i:04d}.csv")
        below = np.all(dists < config.epsilon, axis=1)
        assert below[-1]  # every run here converges, at its final recorded row
        steps.append(int(ks[np.flatnonzero(below)[0]]))
    block = summary.block("consensus", 2)
    assert block.mean_steps == pytest.approx(np.mean(steps), abs=1e-12)
    assert block.std_steps == pytest.approx(np.std(steps), abs=1e-12)


def test_config_round_trip_reproduces_runs(tmp_path):
    config = tiny_config(features="circle:4,5,2", snapshot_steps=(3,), epsilon=0.02)
    path = tmp_path / "config.yaml"
    save_config(config, path, batch={"runs": 7, "workers": 2})
    loaded, batch = load_config(path)
    assert loaded == config
    assert batch == {"runs": 7, "workers": 2}
    a, b = run(config), run(loaded)
    assert np.array_equal(a.distances, b.distances)


def test_config_dict_round_trip():
    config = tiny_config()
    assert config_from_dict(config_to_dict(config)) == config


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
