"""Command-line interface: single runs, Monte Carlo batches, and chain analysis."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, spatial
from .engine import CARRY_MODES, MODES, RunConfig
from .engine import run as run_single
from .errors import CompositeSizeError, ConfigError, EngineInvariantError


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """Flags that override RunConfig fields; each dest is the field's name."""
    p.add_argument("--config", type=Path, help="YAML config file; flags override its fields")
    p.add_argument("--grid-size", dest="side_count", type=int, help="nodes per grid side")
    p.add_argument("--spacing", type=float, help="node spacing in meters")
    p.add_argument("--lbar", dest="level", type=float, help="occupied level in (0.5, 1)")
    p.add_argument("--features", type=str,
                   help="feature nodes '19,20,21' or 'circle:cx,cy,r'")
    p.add_argument("--epsilon", type=float, help="Hellinger convergence threshold")
    p.add_argument("--max-steps", type=int, help="horizon T in steps")
    p.add_argument("--seed", type=int, help="run seed (batch: master seed)")
    p.add_argument("--carry", choices=CARRY_MODES,
                   help="opinion carried after fusion: occupancy (canonical) or chernoff")
    p.add_argument("--comm-radius", type=float,
                   help="communication radius in meters (default 0: same node)")
    p.add_argument("--snapshot-steps", type=str,
                   help="comma-separated steps at which to save PMF snapshots; "
                        "a step after the run ends saves none")
    p.add_argument("--step-seconds", type=float, help="simulated seconds per step")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


# flags whose text is parsed here rather than by argparse, so that a bad value
# is a ConfigError
_FLAG_PARSERS = {
    "features": harness.parse_features,
    "snapshot_steps": lambda text: harness.parse_ints(text, "snapshot steps"),
}


def _build_config(args, robot_count: int, mode: str) -> tuple:
    """(RunConfig, the config file's batch section or {}) from --config and flags."""
    config, batch = harness.load_config(args.config) if args.config else (RunConfig(), {})
    overrides = {
        f.name: _FLAG_PARSERS.get(f.name, lambda value: value)(getattr(args, f.name))
        for f in dataclasses.fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    overrides["robot_count"] = robot_count
    overrides["mode"] = mode
    return dataclasses.replace(config, **overrides), batch


def _cmd_run(args) -> int:
    config, _ = _build_config(args, args.robots, args.mode)
    traces = [run_single(config)]
    block = harness.summarize_block(config.mode, config.robot_count, traces)
    summary = harness.McSummary(
        master_seed=config.seed,
        runs_per_block=1,
        step_seconds=config.step_seconds,
        config_echo=dataclasses.asdict(config),
        blocks=(block,),
    )
    harness.emit_outputs(
        {(config.mode, config.robot_count): traces},
        summary,
        args.out,
        config.side_count,
        reference_pmf=config.feature_field().f_ref,
    )
    trace = traces[0]
    if trace.censored:
        print(f"run censored at T={config.max_steps} steps (no convergence)")
    else:
        secs = trace.convergence_step * config.step_seconds
        print(f"run converged at step {trace.convergence_step} ({secs:g} s)")
    print(f"outputs written under {args.out}")
    return 0


def _cmd_batch(args) -> int:
    robot_counts = harness.parse_ints(args.robots, "--robots")
    if not robot_counts:
        raise ConfigError("--robots must list at least one robot count")
    modes = list(MODES) if args.mode == "both" else [args.mode]
    config, batch_section = _build_config(args, robot_counts[0], modes[0])
    runs = args.runs if args.runs is not None else batch_section.get("runs", 100)
    workers = args.workers if args.workers is not None else batch_section.get("workers", 1)
    summary, traces_by_block = harness.run_sweep(
        config, robot_counts, modes, runs, config.seed, workers
    )
    harness.emit_outputs(traces_by_block, summary, args.out, config.side_count,
                         reference_pmf=config.feature_field().f_ref)
    for block in summary.blocks:
        # a block whose every run is censored has no convergence time to average
        stats = (f"mean={block.mean_steps * config.step_seconds:.1f}s "
                 f"std={block.std_steps * config.step_seconds:.1f}s"
                 if block.censored < block.runs else "mean=n/a std=n/a")
        print(f"{block.mode:13s} N={block.robot_count:<3d} runs={block.runs} "
              f"censored={block.censored} {stats}")
    print(f"outputs written under {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    grid = spatial.build_grid(args.grid_size, args.spacing)
    p = spatial.build_transition_matrix(grid)
    pi = spatial.stationary_distribution(p)
    closed = spatial.stationary_from_degrees(grid)
    degree_counts = {
        int(d): int((grid.degrees == d).sum()) for d in sorted(set(grid.degrees.tolist()))
    }
    report = {
        "format": "gridfusion-analysis/1",
        "side_count": grid.side_count,
        "node_count": grid.node_count,
        "degree_counts": degree_counts,
        "row_stochastic_max_error": float(np.abs(p.sum(axis=1) - 1.0).max()),
        "irreducible": spatial.check_irreducible(p),
        "stationary_max_gap_to_closed_form": float(np.abs(pi - closed).max()),
    }
    if args.robots is not None:
        chain = spatial.build_composite_chain(p, args.robots, max_states=args.max_states)
        q = chain.transition
        pi_q = spatial.stationary_distribution(q)
        product = pi
        for _ in range(args.robots - 1):
            product = np.kron(product, pi)
        report["composite"] = {
            "robot_count": chain.robot_count,
            "state_count": chain.state_count,
            "row_stochastic_max_error": float(
                np.abs(np.asarray(q.sum(axis=1)).ravel() - 1.0).max()
            ),
            "irreducible": spatial.check_irreducible(q),
            "stationary_max_gap_to_product": float(np.abs(pi_q - product).max()),
        }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"analysis written to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfusion",
        description="Multi-robot random-walk exploration with Chernoff opinion fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run and write its trace")
    _add_run_flags(p_run)
    p_run.add_argument("--robots", type=int, default=4, help="number of robots")
    p_run.add_argument("--mode", choices=MODES, default="consensus")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="Monte Carlo batches over robot counts and modes")
    _add_run_flags(p_batch)
    p_batch.add_argument("--robots", type=str, default="4",
                         help="robot counts, comma-separated (e.g. 4,8,12,16)")
    p_batch.add_argument("--mode", choices=MODES + ("both",), default="consensus")
    p_batch.add_argument("--runs", type=int, help="runs per (mode, N) block (default 100)")
    p_batch.add_argument("--workers", type=int, help="worker processes (default 1)")
    p_batch.set_defaults(func=_cmd_batch)

    p_an = sub.add_parser("analyze", help="chain diagnostics for small configurations")
    p_an.add_argument("--grid-size", type=int, required=True)
    p_an.add_argument("--spacing", type=float, default=0.7)
    p_an.add_argument("--robots", type=int, help="also analyze the N-robot composite chain")
    p_an.add_argument("--max-states", type=int, default=1_000_000)
    p_an.add_argument("--out", type=Path, help="write the JSON report here instead of stdout")
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CompositeSizeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EngineInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
