"""Tests of the benchmark itself: repeatable counts, fresh-process
measurements, a gate that catches wrong answers, and a BENCHMARK.json that
matches the code."""

import json
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.fixture
def gf():
    package = worker.import_gridfusion(ROOT)
    import gridfusion.cli  # noqa: F401  (imports the harness too)

    return package


TINY_SWEEP = {
    "kind": "sweep",
    "config": {},
    "modes": ("consensus",),
    "robot_counts": (4, 8),
    "runs_per_chunk": 2,
    "chunks": 2,
}
TINY_CLI = {
    "kind": "cli",
    "config": {"snapshot_steps": (0, 25)},
    "modes": ("consensus", "no-consensus"),
    "robot_counts": (4,),
    "runs_per_chunk": 2,
    "chunks": 1,
    "workers": 2,
}


@pytest.mark.parametrize("spec", [TINY_SWEEP, TINY_CLI], ids=["sweep", "cli"])
def test_count_metrics_repeat_across_traced_runs(spec):
    first = worker.run_workload("tiny", spec, 5, 0.0, True, ROOT, golden=None, launches=0)
    second = worker.run_workload("tiny", spec, 5, 0.0, True, ROOT, golden=None, launches=0)
    assert first["failed"] == second["failed"] == 0, first["problems"] + second["problems"]
    assert first["attempted"] > 0
    counts = [{k: r["layers"][k] for k in tracing.COUNT_METRICS} for r in (first, second)]
    assert counts[0] == counts[1]
    if spec["kind"] == "sweep":
        assert counts[0]["engine.ticks"] > 0 and counts[0]["fusion.chernoff_fuse_calls"] > 0
    else:
        assert counts[0]["harness.files_written"] > 0 and counts[0]["harness.pickled_trace_bytes"] > 0


def test_tracing_restores_every_patched_attribute(gf):
    before = {}
    for module_name, owner_name, attr, _ in tracing.TRACED:
        module = getattr(gf, module_name)
        owner = getattr(module, owner_name) if owner_name else module
        before[(module_name, owner_name, attr)] = (owner, owner.__dict__[attr])
    with tracing.Tracer(gf):
        assert all(owner.__dict__[attr] is not raw
                   for (_, _, attr), (owner, raw) in before.items())
    assert all(owner.__dict__[attr] is raw for (_, _, attr), (owner, raw) in before.items())


def test_setup_and_peak_rss_come_from_fresh_processes():
    result = bench_run.run_worker(ROOT, "grid-64", 1, 0.0, False, time.monotonic() + 170)
    assert result["failed"] == 0
    pids = {report["pid"] for _, report in result["probes"]}
    assert len(pids) == worker.SETUP_LAUNCHES
    assert not pids & {os.getpid(), result["pid"]} and result["pid"] != os.getpid()
    for launch_s, report in result["probes"]:
        # the timed launch contains the probe's own import and World build
        assert launch_s > report["import_s"] + report["world_s"] > 0
    # the worker built 4096x4096 transition matrices (134 MB); this process did not
    metrics = bench_run.end_to_end(result)
    assert metrics["peak_rss_mb"] > 134 and metrics["setup_s"] > 0


def test_gate_flags_wrong_answers(gf):
    config = gf.engine.RunConfig()
    summary, traces = gf.harness.run_sweep(config, [4], ["consensus"], 3, 9, 1)
    outcomes, steps, problems, bad = checks.check_sweep(summary, traces, config)
    assert not problems and not bad and steps > 0

    wrong = json.loads(json.dumps(outcomes))
    wrong["consensus:N4"][1][1] += 1
    bad, problems = worker.compare_outcomes(outcomes, wrong, "golden")
    assert bad == {("consensus:N4", 1)} and problems

    rising = traces[("consensus", 4)][0]
    rising.distances[1, 0] = rising.distances[0, 0] + 0.1
    _, _, problems, bad = checks.check_sweep(summary, traces, config)
    assert ("consensus:N4", 0) in bad and any("increased" in p for p in problems)


def test_cli_tree_check_flags_summary_mismatch(gf, tmp_path):
    out = tmp_path / "out"
    argv = workloads.cli_argv({**TINY_CLI, "workers": 1}, 3, str(out))
    assert gf.cli.main(argv) == 0
    config = gf.engine.RunConfig()
    _, steps, problems = checks.check_cli_tree(out, TINY_CLI, config.max_steps, config.epsilon)
    assert not problems and steps > 0
    summary = json.loads((out / "summary.json").read_text())
    summary["blocks"][0]["censored"] += 1
    (out / "summary.json").write_text(json.dumps(summary))
    _, _, problems = checks.check_cli_tree(out, TINY_CLI, config.max_steps, config.epsilon)
    assert any("summary says" in p for p in problems)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS
    readme = (ROOT / "bench" / "README.md").read_text()
    missing = [name for name in workloads.LAYER_UNITS if f"`{name}`" not in readme]
    assert not missing
