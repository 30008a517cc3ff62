"""Runs one workload in a fresh process and prints its raw results as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root (``src/`` must hold gridfusion). With
``--trace 0`` the chunks are repeated round-robin until ``--seconds`` have
passed; each repeat is timed and checked, and set-up probes (bench/probe.py)
are launched at even intervals between chunks, so that they are spread over
the run. With ``--trace 1`` the probes run first, then every chunk runs once
untraced and once traced, and the two answers must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from probe import import_gridfusion, launch_probe  # noqa: E402

MAX_PROBLEMS = 20
SETUP_LAUNCHES = 10


def base_config(gf, spec: dict):
    return gf.engine.RunConfig(**spec["config"]).validate()


def runs_per_chunk(spec: dict) -> int:
    return spec["runs_per_chunk"] * len(spec["modes"]) * len(spec["robot_counts"])


class Tally:
    """Attempted and failed run counts plus the first few problem messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def compare_outcomes(outcomes: dict, expected: dict, what: str):
    """Runs whose (seed, convergence_step, censored) differ from expected."""
    bad, problems = set(), []
    if set(outcomes) != set(expected):
        return {(k, i) for k, rows in outcomes.items() for i in range(len(rows))}, [
            f"blocks {sorted(outcomes)} differ from {what} {sorted(expected)}"]
    for key, rows in outcomes.items():
        for i, row in enumerate(rows):
            if i >= len(expected[key]) or row != expected[key][i]:
                bad.add((key, i))
                problems.append(f"{key} run {i}: {row} differs from {what}")
    return bad, problems


# ---------------------------------------------------------------------------
# one chunk: run, time and check it


def sweep_chunk(gf, spec, config, master_seed, expected, tally, what):
    """One in-process ``run_sweep`` chunk.

    Returns (wall seconds, outcomes, robot_steps, 0), or None if it raised.
    """
    runs = runs_per_chunk(spec)
    try:
        start = time.perf_counter()
        summary, traces = gf.harness.run_sweep(
            config, spec["robot_counts"], spec["modes"], spec["runs_per_chunk"], master_seed, 1)
        wall = time.perf_counter() - start
        outcomes, steps, problems, bad = checks.check_sweep(summary, traces, config)
    except Exception as exc:  # a failing run aborts its chunk; count it, keep measuring
        tally.add(runs, runs, [f"chunk seed {master_seed}: {exc!r}"])
        return None
    if expected is not None:
        more_bad, more_problems = compare_outcomes(outcomes, expected, what)
        bad |= more_bad
        problems = problems + more_problems
    tally.add(runs, len(bad), problems)
    return wall, outcomes, steps, 0


def run_cli(gf, argv, root: Path, in_process: bool):
    """Run ``gridfusion batch``; returns (wall seconds, exit code, peak RSS KiB).

    Out of process, the peak is the largest RSS of the command and its reaped
    pool workers, as wait4 reports it; in-process it is 0.
    """
    if in_process:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = gf.cli.main(argv)
        return time.perf_counter() - start, code, 0
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "gridfusion.cli", *argv],
                            cwd=root, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def cli_chunk(gf, spec, config, master_seed, expected, tally, what, out_dir: Path, root: Path,
              in_process: bool):
    """One ``gridfusion batch`` chunk into a fresh out_dir.

    Returns (wall seconds, tree digest, robot_steps, peak RSS KiB), or None
    if the command failed.
    """
    runs = runs_per_chunk(spec)
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workloads.cli_argv(spec, master_seed, str(out_dir))
    wall, code, peak = run_cli(gf, argv, root, in_process)
    if code != 0:
        tally.add(runs, runs, [f"chunk seed {master_seed}: gridfusion batch exited {code}"])
        return None
    digest, steps, problems = checks.check_cli_tree(out_dir, spec, config.max_steps, config.epsilon)
    if expected is not None and digest != expected:
        problems = problems + [f"chunk seed {master_seed}: output tree differs from {what}"]
    tally.add(runs, runs if problems else 0, problems)
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall, digest, steps, peak


# ---------------------------------------------------------------------------
# timed and traced passes over the chunks


def timed(run_chunk, probe, launches: int, spec: dict, seed: int, seconds: float,
          golden) -> dict:
    """Repeat the chunks round-robin until ``seconds`` have passed.

    Probe k of ``launches`` is taken at the first chunk boundary after
    ``k * seconds / launches``; any still owed when time is up are taken then.
    """
    seeds = [workloads.chunk_seed(seed, c) for c in range(spec["chunks"])]
    walls = [[] for _ in seeds]
    first = [None] * len(seeds)
    steps = [0] * len(seeds)
    probes = []
    peak = 0
    tally = Tally()
    start = time.perf_counter()
    while True:
        for c, master_seed in enumerate(seeds):
            if len(probes) < launches and (
                    time.perf_counter() - start >= len(probes) * seconds / launches):
                probes.append(probe())
            expected, what = (golden[c], "golden") if golden else (first[c], "first repeat")
            result = run_chunk(master_seed, expected, tally, what, False)
            if result is None:
                continue
            wall, answer, robot_steps, chunk_peak = result
            walls[c].append(wall)
            peak = max(peak, chunk_peak)
            if first[c] is None:
                first[c], steps[c] = answer, robot_steps
        if time.perf_counter() - start >= seconds:
            break
    probes += [probe() for _ in range(launches - len(probes))]
    if spec["kind"] != "cli":
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"chunk_walls": walls, "chunk_robot_steps": steps, "outcomes": first,
            "peak_rss_kib": peak, "probes": probes, **tally.as_dict()}


def traced(run_chunk, probe, launches: int, spec: dict, seed: int, golden, tracer) -> dict:
    """Run every chunk untraced, then traced; the two answers must agree."""
    probes = [probe() for _ in range(launches)]
    tally = Tally()
    untraced_wall = traced_wall = 0.0
    for c in range(spec["chunks"]):
        master_seed = workloads.chunk_seed(seed, c)
        plain = run_chunk(master_seed, golden[c] if golden else None, tally, "golden", True)
        with tracer:
            again = run_chunk(master_seed, plain[1] if plain else None, tally, "untraced run",
                              True)
        if plain and again:
            untraced_wall += plain[0]
            traced_wall += again[0]
    return {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "probes": probes,
            **tally.as_dict()}


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool, root: Path,
                 golden, launches: int = SETUP_LAUNCHES) -> dict:
    """Raw results of one workload run.

    ``golden`` holds the expected answer of each chunk, or is None to check
    invariants and repeats only. ``launches`` set-up probes of the workload
    named ``name`` are taken during the run.
    """
    import tracer as tracing

    gf = import_gridfusion(root)
    import gridfusion.cli  # noqa: F401  (imports the harness too)

    out_base = root / ".bench_out" / name
    out_base.mkdir(parents=True, exist_ok=True)
    config = base_config(gf, spec)

    def run_chunk(master_seed, expected, tally, what, in_process):
        if spec["kind"] == "cli":
            return cli_chunk(gf, spec, config, master_seed, expected, tally, what,
                             out_base / "chunk", root, in_process)
        return sweep_chunk(gf, spec, config, master_seed, expected, tally, what)

    def probe():
        return launch_probe(root, name, seed)

    tracer = tracing.Tracer(gf)
    if not trace:
        return timed(run_chunk, probe, launches, spec, seed, seconds, golden)
    result = traced(run_chunk, probe, launches, spec, seed, golden, tracer)
    tracer.save(out_base / "spans.npz")
    result["layers"] = tracing.layer_metrics(tracer.span_table(), tracer.counts)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    result = run_workload(args.workload, workloads.WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace), Path.cwd(),
                          checks.load_golden(args.workload, args.seed))
    result["pid"] = os.getpid()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
