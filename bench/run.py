"""gridfusion benchmark: one workload, end-to-end or traced, checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run from the repository root. ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``. The workload runs in a fresh worker process
(bench/worker.py), so its peak RSS is its own; set-up is timed over several
fresh interpreters (bench/probe.py) that the worker launches between chunks. Prints every metric by name and unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exits 1 when any run failed its
check, 2 when the repository or the worker cannot be run.

End-to-end metrics (``--trace 0``):

* ``wall_s``: time to the workload's Monte Carlo answer, the sum over its
  chunks of each chunk's fastest repeat (bench/README.md says why not the
  median);
* ``robot_steps_per_s``: simulated robot-steps of all chunks over ``wall_s``;
* ``setup_s``: median launch-to-exit time of a fresh interpreter that
  imports gridfusion, validates the first RunConfig and builds its World,
  over launches spread over the run;
* ``peak_rss_mb``: peak resident memory (10^6 bytes) of the process running
  the workload, or for cli-batch of the command and its pool workers;
* ``failed_frac`` (printed, and given as ``failed``/``attempted``): runs that
  raised or failed their check over runs attempted.

``--trace 1`` reports the per-layer metrics of bench/README.md instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The repository or a benchmark process could not be run."""


def _run_child(argv, root: Path, deadline: float) -> str:
    # a session of its own, so a timeout can stop the CLI and pool processes
    # a worker started as well
    proc = subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[1]} printed nothing")
    return lines[-1]


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: bool,
               deadline: float) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    return json.loads(_run_child(argv, root, deadline))


def end_to_end(result: dict) -> dict:
    walls = [min(w) for w in result["chunk_walls"] if w]
    if len(walls) != len(result["chunk_walls"]):
        raise BenchError("a chunk never completed; no timing to report")
    wall = sum(walls)
    return {
        "wall_s": wall,
        "robot_steps_per_s": sum(result["chunk_robot_steps"]) / wall,
        "setup_s": statistics.median(t for t, _ in result["probes"]),
        "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6,
    }


def per_layer(result: dict) -> dict:
    layers = dict(result["layers"])
    layers["cli.import_s"] = statistics.median(r["import_s"] for _, r in result["probes"])
    layers["trace.untraced_wall_s"] = result["untraced_wall_s"]
    layers["trace.traced_wall_s"] = result["traced_wall_s"]
    layers["trace.overhead_ratio"] = (
        result["traced_wall_s"] / result["untraced_wall_s"] if result["untraced_wall_s"] else 0.0
    )
    return layers


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, workload: str, seed: int, result: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    spec = workloads.WORKLOADS[workload]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "master_seed": seed,
        "chunks": spec["chunks"],
        "runs_per_block_per_chunk": spec["runs_per_chunk"],
        "repeats_per_chunk": [len(w) for w in result.get("chunk_walls", [])],
        "setup_launches": len(result["probes"]),
        "runs_attempted": result["attempted"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=workloads.run_seconds())
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "gridfusion" / "__init__.py").is_file():
        print(f"bench: no gridfusion sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result = run_worker(root, args.workload, args.seed, args.seconds, bool(args.trace),
                            deadline)
        if args.trace:
            layers = per_layer(result)
            metrics = {k: (layers[k], u) for k, u in workloads.LAYER_UNITS.items()}
        else:
            values = end_to_end(result)
            metrics = {k: (values[k], u) for k, u in workloads.END_TO_END_UNITS.items()}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    prov = provenance(root, args.workload, args.seed, result)
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':38s} {failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} runs)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    record = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**record, "provenance": prov,
                               "problems": result["problems"]}, indent=2) + "\n")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
