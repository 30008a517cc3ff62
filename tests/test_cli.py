import json

import pytest

from gridfusion.cli import main
from gridfusion.harness import save_config
from gridfusion.engine import RunConfig


def test_run_command_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run-out"
    code = main([
        "run", "--robots", "2", "--seed", "1", "--max-steps", "500",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "summary.json").exists()
    assert (out / "traces" / "consensus_N02_run0000.csv").exists()
    assert (out / "snapshots" / "reference.csv").exists()
    assert "converged" in capsys.readouterr().out


def test_run_command_censored_report(tmp_path, capsys):
    code = main([
        "run", "--robots", "2", "--seed", "1", "--max-steps", "1",
        "--epsilon", "1e-9", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert "censored" in capsys.readouterr().out


def test_batch_command_sweeps_modes_and_counts(tmp_path, capsys):
    out = tmp_path / "batch-out"
    code = main([
        "batch", "--robots", "2,3", "--mode", "both", "--runs", "2",
        "--seed", "0", "--max-steps", "600", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "summary.json").read_text())
    assert len(doc["blocks"]) == 4
    printed = capsys.readouterr().out
    assert "consensus" in printed and "no-consensus" in printed


def test_cli_rejects_bad_config_with_exit_code_2(capsys):
    code = main(["run", "--lbar", "0.4", "--out", "/tmp/never-used"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_features_flag_circle(tmp_path):
    out = tmp_path / "o"
    code = main([
        "run", "--robots", "2", "--seed", "3", "--features", "circle:4,5,2",
        "--max-steps", "400", "--out", str(out),
    ])
    assert code == 0


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "config.yaml"
    save_config(RunConfig(robot_count=2, max_steps=300), cfg_path)
    out = tmp_path / "o"
    code = main([
        "run", "--config", str(cfg_path), "--seed", "5", "--robots", "3",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["blocks"][0]["robot_count"] == 3


def test_analyze_command_reports_chain_facts(tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "analyze", "--grid-size", "2", "--robots", "2",
        "--out", str(report_path),
    ])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["node_count"] == 4
    assert doc["irreducible"] is True
    assert doc["row_stochastic_max_error"] < 1e-12
    assert doc["stationary_max_gap_to_closed_form"] < 1e-10
    assert doc["composite"]["state_count"] == 16
    assert doc["composite"]["irreducible"] is True
    assert doc["composite"]["stationary_max_gap_to_product"] < 1e-8


def test_analyze_prints_to_stdout(capsys):
    assert main(["analyze", "--grid-size", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree_counts"] == {"2": 4, "3": 4, "4": 1}


def test_analyze_composite_cap_is_a_config_style_failure(capsys):
    code = main(["analyze", "--grid-size", "8", "--robots", "4"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_wide_comm_radius_runs(tmp_path):
    code = main([
        "run", "--robots", "8", "--comm-radius", "1.0", "--out", str(tmp_path / "o"),
    ])
    assert code == 0


@pytest.mark.parametrize("argv,yaml_text", [
    (["run", "--snapshot-steps", "1.5"], None),
    (["batch", "--robots", "4,x"], None),
    (["run", "--grid-size", "2", "--features", "circle:1,1,1"], None),
    (["run"], "run: {features: [a]}"),
    (["run"], "run: {spacing: abc}"),
    (["run"], "run: {features: [19.5, 20]}"),
    (["run"], "run: {snapshot_steps: [2.7]}"),
    (["batch"], "run: {}\nbatch: {runs: x}"),
])
def test_bad_inputs_exit_2_without_traceback(tmp_path, capsys, argv, yaml_text):
    argv = [*argv, "--out", str(tmp_path / "o")]
    if yaml_text is not None:
        config_path = tmp_path / "config.yaml"
        config_path.write_text("format: gridfusion-config/1\n" + yaml_text + "\n")
        argv += ["--config", str(config_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "Traceback" not in err


def test_unwritable_output_exits_1_without_traceback(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--max-steps", "5", "--out", str(blocker / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
