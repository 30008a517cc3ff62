"""Correctness gate: golden outcomes at the default seed, invariants at any seed.

A run fails when it raised, broke an invariant, differs from an earlier
repeat of the same chunk, or (at the default seed) differs from the golden
record. Invariants:

* occupancy-carry distance traces never increase;
* uncensored runs end at distance exactly 0, at their convergence step;
* censored runs stop at ``max_steps``;
* summary blocks (in-process, or ``summary.json`` for the CLI) have the run
  and censored counts and the mean convergence step of their traces.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def block_key(mode: str, robot_count: int) -> str:
    return f"{mode}:N{robot_count}"


def _block_problems(key, block, outcomes) -> list:
    runs = len(outcomes)
    censored = sum(1 for _, _, c in outcomes if c)
    steps = [k for _, k, c in outcomes if not c]
    mean = sum(steps) / len(steps) if steps else float("nan")
    problems = []
    if block["runs"] != runs or block["censored"] != censored:
        problems.append(f"{key}: summary says {block['runs']} runs, {block['censored']} "
                        f"censored; traces give {runs}, {censored}")
    same_mean = (math.isnan(mean) and math.isnan(block["mean_steps"])) or math.isclose(
        mean, block["mean_steps"], rel_tol=1e-12)
    if not same_mean:
        problems.append(f"{key}: summary mean {block['mean_steps']} != traces' {mean}")
    return problems


def _run_problems(key, index, steps_taken, censored, conv, last_row, monotone, max_steps):
    where = f"{key} run {index}"
    problems = []
    if not monotone:
        problems.append(f"{where}: distance increased")
    if censored:
        if steps_taken != max_steps:
            problems.append(f"{where}: censored after {steps_taken} of {max_steps} steps")
    else:
        if conv != steps_taken:
            problems.append(f"{where}: converged at {conv} but trace has {steps_taken} steps")
        if any(d != 0.0 for d in last_row):
            problems.append(f"{where}: converged with nonzero final distance {list(last_row)}")
    return problems


def check_sweep(summary, traces_by_block, config):
    """Invariants of one in-process sweep.

    Returns (outcomes, robot_steps, problems, bad_runs): outcomes maps a
    block key to [seed, convergence_step, censored] per run; bad_runs holds
    (block key, run index) of every run that broke an invariant.
    """
    outcomes, problems, bad = {}, [], set()
    robot_steps = 0
    blocks = {block_key(b.mode, b.robot_count): b for b in summary.blocks}
    for (mode, n), traces in traces_by_block.items():
        key = block_key(mode, n)
        rows = []
        for i, t in enumerate(traces):
            rows.append([int(t.seed), t.convergence_step, bool(t.censored)])
            robot_steps += t.step_count * t.robot_count
            monotone = config.carry != "occupancy" or bool(np.all(np.diff(t.distances, axis=0) <= 0.0))
            run_problems = _run_problems(key, i, t.step_count, t.censored, t.convergence_step,
                                         t.distances[-1], monotone, config.max_steps)
            if t.censored != (t.convergence_step is None):
                run_problems.append(f"{key} run {i}: censored flag disagrees with convergence step")
            if run_problems:
                bad.add((key, i))
                problems += run_problems
        outcomes[key] = rows
        block = blocks[key]
        block_problems = _block_problems(
            key, {"runs": block.runs, "censored": block.censored, "mean_steps": block.mean_steps},
            rows)
        if block_problems:
            bad.update((key, i) for i in range(len(rows)))
            problems += block_problems
    return outcomes, robot_steps, problems, bad


def _read_trace(path: Path):
    lines = path.read_text().splitlines()
    if len(lines) < 3 or not lines[0].startswith("# gridfusion-trace"):
        raise ValueError(f"{path.name}: not a trace file")
    rows = [[float(v) for v in line.split(",")[1:]] for line in lines[2:]]
    return rows


def tree_digest(out_dir: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def check_cli_tree(out_dir: Path, spec: dict, max_steps: int, epsilon: float):
    """Invariants of one ``gridfusion batch`` output tree.

    Returns (digest, robot_steps, problems). Any problem fails every run of
    the tree, since the tree is the command's single answer.
    """
    problems = []
    robot_steps = 0
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        blocks = {block_key(b["mode"], b["robot_count"]): b for b in summary["blocks"]}
        for mode in spec["modes"]:
            for n in spec["robot_counts"]:
                key = block_key(mode, n)
                rows = []
                for i in range(spec["runs_per_chunk"]):
                    trace = _read_trace(out_dir / "traces" / f"{mode}_N{n:02d}_run{i:04d}.csv")
                    steps_taken = len(trace) - 1
                    robot_steps += steps_taken * len(trace[0])
                    censored = not all(d < epsilon for d in trace[-1])
                    monotone = all(b <= a for prev, row in zip(trace, trace[1:])
                                   for a, b in zip(prev, row))
                    problems += _run_problems(key, i, steps_taken, censored,
                                              None if censored else steps_taken,
                                              trace[-1], monotone, max_steps)
                    rows.append([None, None if censored else steps_taken, censored])
                problems += _block_problems(key, blocks[key], rows)
        if set(blocks) != {block_key(m, n) for m in spec["modes"] for n in spec["robot_counts"]}:
            problems.append(f"summary.json has blocks {sorted(blocks)}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output tree: {exc!r}")
    return tree_digest(out_dir), robot_steps, problems


def load_golden(workload: str, seed: int):
    """Golden chunk answers for this workload at this seed, or None."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return doc["chunks"] if doc["seed"] == seed else None
