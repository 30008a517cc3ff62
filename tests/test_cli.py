import json
import math

import pytest

from gridfusion import harness
from gridfusion.cli import main
from test_output_digest import tree_digest


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


def test_batch_prints_no_mean_for_an_all_censored_block(tmp_path, capsys):
    out = tmp_path / "batch-out"
    code = main(["batch", "--robots", "2,4", "--mode", "both", "--runs", "2",
                 "--max-steps", "10", "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == 4
    assert all(line.endswith("censored=2 mean=n/a std=n/a") for line in lines), lines
    # summary.json keeps its NaN until the summary format changes
    blocks = json.loads((out / "summary.json").read_text())["blocks"]
    assert all(math.isnan(block["mean_steps"]) for block in blocks)


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
    cfg_path.write_text("format: gridfusion-config/1\nrun: {robot_count: 2, max_steps: 300}\n")
    out = tmp_path / "o"
    code = main([
        "run", "--config", str(cfg_path), "--seed", "5", "--robots", "3",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["blocks"][0]["robot_count"] == 3


NO_CONSENSUS_N3 = ("format: gridfusion-config/1\n"
                   "run: {robot_count: 3, mode: no-consensus, max_steps: 20}\n")


def test_run_keeps_the_config_file_robot_count_and_mode(tmp_path):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(NO_CONSENSUS_N3)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert [p.name for p in (out / "traces").iterdir()] == ["no-consensus_N03_run0000.csv"]
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["robot_count"] == 3 and doc["config"]["mode"] == "no-consensus"
    assert [(b["mode"], b["robot_count"]) for b in doc["blocks"]] == [("no-consensus", 3)]


@pytest.mark.parametrize("flags,blocks", [
    ([], [("no-consensus", 3)]),
    (["--robots", "2,4"], [("no-consensus", 2), ("no-consensus", 4)]),
    (["--mode", "consensus"], [("consensus", 3)]),
])
def test_batch_sweeps_the_config_file_value_of_an_absent_axis(tmp_path, flags, blocks):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(NO_CONSENSUS_N3)
    out = tmp_path / "o"
    assert main(["batch", "--config", str(cfg_path), "--runs", "2", *flags,
                 "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert [(b["mode"], b["robot_count"]) for b in doc["blocks"]] == blocks
    assert sorted(p.name for p in (out / "traces").iterdir()) == [
        f"{mode}_N{n:02d}_run{i:04d}.csv" for mode, n in blocks for i in range(2)]


@pytest.mark.parametrize("sections", ["run:\nbatch:\n", "run:\n", "batch:\n", ""])
def test_empty_config_sections_read_as_empty_mappings(tmp_path, sections):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text("format: gridfusion-config/1\n" + sections)
    code = main(["batch", "--config", str(cfg_path), "--robots", "2", "--runs", "2",
                 "--max-steps", "20", "--out", str(tmp_path / "o")])
    assert code == 0
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["blocks"][0]["runs"] == 2


def test_batch_reads_its_config_file_once(tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text("format: gridfusion-config/1\nrun: {max_steps: 50}\nbatch: {runs: 2}\n")
    calls = []
    real = harness.load_config
    monkeypatch.setattr(harness, "load_config", lambda path: calls.append(path) or real(path))
    code = main(["batch", "--config", str(cfg_path), "--robots", "2",
                 "--out", str(tmp_path / "o")])
    assert code == 0 and calls == [cfg_path]
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["blocks"][0]["runs"] == 2


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


def test_full_map_converges_at_step_zero(tmp_path, capsys):
    # every node is a feature, so the nominal PMF is the reference and the
    # run ends before any find could raise a distance
    code = main([
        "run", "--grid-size", "2", "--features", "1,2,3,4", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert "converged at step 0" in capsys.readouterr().out


def test_wide_comm_radius_runs(tmp_path):
    code = main([
        "run", "--robots", "8", "--comm-radius", "1.0", "--out", str(tmp_path / "o"),
    ])
    assert code == 0


@pytest.mark.parametrize("radius", ["1e200", "1e300", "inf"])
def test_huge_comm_radius_runs_without_warnings(tmp_path, capsys, radius):
    # the squared radius overflows to inf, which puts every robot in range
    code = main([
        "run", "--robots", "8", "--comm-radius", radius, "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,yaml_text", [
    (["run", "--snapshot-steps", "1.5"], None),
    (["batch", "--robots", "4,x"], None),
    (["run", "--grid-size", "2", "--features", "circle:1,1,1"], None),
    (["run", "--features", "circle:nan,4,2"], None),
    (["run", "--features", "circle:4,5,inf"], None),
    (["run", "--features", "circle:4,5,nan"], None),
    (["run", "--step-seconds", "inf"], None),
    (["run", "--spacing", "inf", "--comm-radius", "inf"], None),
    (["run", "--grid-size", "1" + "0" * 400], None),
    (["run", "--grid-size", "1" + "0" * 30, "--spacing", "1e-40"], None),
    (["run", "--spacing", "1e-200", "--comm-radius", "1e-200"], None),
    (["run"], "run: {spacing: .inf}"),
    (["run"], "run: {features: [a]}"),
    (["run"], "run: {spacing: abc}"),
    (["run"], "run: {features: [19.5, 20]}"),
    (["run"], "run: {snapshot_steps: [2.7]}"),
    (["run"], "run: {1: 2, a: 3}"),
    (["batch"], "run: {}\nbatch: {runs: x}"),
    (["batch", "--robots", "2"], "bacth: {runs: 2}"),
    (["batch", "--robots", "2"], "batch: {run: 2}"),
    (["batch", "--robots", "2"], "batch: []"),
    (["batch", "--robots", "2"], "batch: 0"),
    (["run"], "run: []"),
    (["batch", "--robots", "4,4", "--runs", "2"], None),
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


@pytest.mark.parametrize("argv", [
    ["run", "--grid-size", "256", "--features", "circle:128,128,40", "--max-steps", "10"],
    ["analyze", "--grid-size", "256"],
])
def test_out_of_memory_exits_1_without_traceback(tmp_path, capsys, monkeypatch, argv):
    # a 256x256 grid's dense transition matrix asks for 32 GiB; fake the failure
    def refuse(grid):
        raise MemoryError("Unable to allocate 32.0 GiB for an array with shape (65536, 65536)")

    monkeypatch.setattr("gridfusion.spatial.build_transition_matrix", refuse)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "32.0 GiB" in err and "Traceback" not in err


# sha256 of each command's whole output tree (tree_digest), recorded before
# the CLI took its reference PMF from RunConfig.feature_field(); covers
# snapshots/reference.csv and the circle-spec path. Update only together with
# a file-format tag bump.
CLI_DIGESTS = {
    "run": "0588e91d283d0921b811067768229d2864d2c360cb6b413ce84001f17f48b1b2",
    "batch": "b753be20f11a3d80a7ffc78d569743023141350967eefc1ef16c4a69a809783e",
}


@pytest.mark.parametrize("argv", [
    ["run", "--robots", "4", "--seed", "7", "--snapshot-steps", "0,10"],
    ["batch", "--robots", "2,4", "--mode", "both", "--runs", "2", "--seed", "3",
     "--snapshot-steps", "0,10", "--features", "circle:4,5,2"],
], ids=["run", "batch"])
def test_cli_output_tree_digest_is_pinned(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert tree_digest(tmp_path / "o") == CLI_DIGESTS[argv[0]]
