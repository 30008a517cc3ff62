"""Workload and metric definitions: what each workload runs and why.

Plain data only, so the orchestrator can read it without importing
gridfusion. A workload's Monte Carlo answer is split into chunks; chunk c
of a run with master seed s is the sweep with master seed
``chunk_seed(s, c)``. The timed loop repeats the chunks round-robin, so each
chunk's repeats are spread over the run and no slow stretch of the machine
lands on one chunk only. Chunks are small, so that the fastest repeat of
each can fall in a quiet spell of a shared machine, and numerous, so that
the total work varies by about 5% or less from seed to seed.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 1

# Default RunConfig fields (8x8 grid, 0.7 m, level 0.8, 12-node ring,
# epsilon 0.01, T 5000, occupancy carry); the sweeps override nothing else.
SWEEP_ROBOTS = (4, 8, 12, 16)

WORKLOADS = {
    "consensus-sweep": {
        "kind": "sweep",
        "config": {},
        "modes": ("consensus",),
        "robot_counts": SWEEP_ROBOTS,
        "runs_per_chunk": 1,
        "chunks": 30,
        "why": "consensus at N=4..16 on the default 8x8 map; fusion and the comm "
               "graph take most of a tick, so fusion and encounter changes show here",
    },
    "grid-64": {
        "kind": "sweep",
        "config": {"side_count": 64, "features": "circle:32,32,12", "max_steps": 2000},
        "modes": ("consensus",),
        "robot_counts": (8,),
        "runs_per_chunk": 1,
        "chunks": 4,
        "why": "64x64 grid, 8 robots, every run censored at 2000 ticks; the dense "
               "4096x4096 transition matrix dominates setup and memory",
    },
    "cli-batch": {
        "kind": "cli",
        "config": {"snapshot_steps": (0, 25, 50)},
        "modes": ("consensus", "no-consensus"),
        "robot_counts": (4, 16),
        "runs_per_chunk": 3,
        "chunks": 4,
        "workers": 2,
        "why": "gridfusion batch with 2 workers writing traces, PMF snapshots and "
               "summary.json; the only workload that runs the CLI, the pool and the writers",
    },
}


def run_seconds() -> int:
    """How long one run measures: ``run_seconds`` of BENCHMARK.json."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return spec["run_seconds"]


def chunk_seed(seed: int, chunk: int) -> int:
    """Master seed of one chunk; distinct chunks of one run never share runs."""
    return seed * 1000 + chunk


def cli_argv(spec: dict, master_seed: int, out_dir: str) -> list:
    """Arguments after ``python -m gridfusion.cli`` for one cli-batch chunk."""
    return [
        "batch",
        "--robots", ",".join(str(n) for n in spec["robot_counts"]),
        "--mode", "both",
        "--snapshot-steps", ",".join(str(k) for k in spec["config"]["snapshot_steps"]),
        "--workers", str(spec["workers"]),
        "--runs", str(spec["runs_per_chunk"]),
        "--seed", str(master_seed),
        "--out", out_dir,
    ]


# Unit of every reported metric, in report order. bench/README.md says which
# end-to-end metric and workload each per-layer metric should move.
END_TO_END_UNITS = {
    "wall_s": "s",
    "robot_steps_per_s": "robot-steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "spatial.build_grid_ms": "ms",
    "spatial.build_transition_matrix_ms": "ms",
    "spatial.transition_matrix_bytes": "bytes",
    "occupancy.feature_field_ms": "ms",
    "mobility.transition_supports_ms": "ms",
    "mobility.sample_next_calls": "count",
    "mobility.sample_next_us": "us",
    "mobility.rng_from_seed_us": "us",
    "engine.runs": "count",
    "engine.world_setup_ms": "ms",
    "engine.ticks": "count",
    "engine.tick_self_us": "us",
    "engine.run_self_us_per_tick": "us",
    "engine.build_comm_graph_calls": "count",
    "engine.build_comm_graph_us": "us",
    "engine.encounter_groups": "count",
    "engine.mean_group_size": "robots",
    "fusion.chernoff_fuse_calls": "count",
    "fusion.chernoff_fuse_us": "us",
    "fusion.metropolis_weights_calls": "count",
    "fusion.metropolis_weights_us": "us",
    "fusion.redundant_ratio": "ratio",
    "fusion.identical_input_calls": "count",
    "fusion.identical_input_ratio": "ratio",
    "fusion.informative_fusions": "count",
    "fusion.informative_ratio": "ratio",
    "metrics.hellinger_batch_calls": "count",
    "metrics.hellinger_batch_us": "us",
    "metrics.hellinger_bytes": "bytes",
    "harness.run_batch_s": "s",
    "harness.emit_outputs_s": "s",
    "harness.write_trace_csv_ms": "ms",
    "harness.write_pmf_csv_ms": "ms",
    "harness.files_written": "count",
    "harness.bytes_written": "bytes",
    "harness.pickled_trace_bytes": "bytes",
    "cli.import_s": "s",
    "trace.wrapper_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
