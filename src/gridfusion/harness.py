"""Monte Carlo batch execution, aggregation, and file output.

Seed derivation: run i of a batch uses
``SeedSequence([master_seed, i]).generate_state(1, uint64)[0]`` as its run
seed, so batches are reproducible and independent of worker count. Statistics
are computed over uncensored runs only (population standard deviation), with
the censored count reported alongside.

File formats (all carry a version tag on the first line):

* trace CSV: ``# gridfusion-trace v1`` then ``k,dh_1,...,dh_N`` and one row
  per step, starting at k = 0. A ``RunTrace`` keeps only the steps where some
  distance changed, and the writer repeats each row until the next one, so
  the file format is unchanged.
* PMF snapshot CSV: ``# gridfusion-pmf v1 side=<c> step=<k> robot=<id>``
  then c rows of c comma-separated values; file row r is grid row r, printed
  south to north, columns west to east.
* summary JSON: ``{"format": "gridfusion-summary/1", ...}`` with one block
  per (mode, robot_count) and the step-to-seconds constant echoed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import RunConfig, RunTrace, run
from .errors import ConfigError
from .spatial import _is_int

CONFIG_FORMAT = "gridfusion-config/1"
SUMMARY_FORMAT = "gridfusion-summary/1"
TRACE_TAG = "# gridfusion-trace v1"
PMF_TAG = "# gridfusion-pmf v1"


def derive_run_seed(master_seed: int, index: int) -> int:
    """Per-run seed from a master seed; documented, stable mixing."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def _execute_run(args) -> RunTrace:
    config, seed = args
    return run(dataclasses.replace(config, seed=seed))


def _busy_workers(runs, workers, master_seed) -> int:
    """Check a batch's arguments; return the workers its ``runs`` jobs can keep busy."""
    if not _is_int(master_seed) or master_seed < 0:
        raise ConfigError(f"master_seed must be a non-negative integer, got {master_seed!r}")
    if not _is_int(runs) or runs < 1:
        raise ConfigError(f"runs must be a positive integer, got {runs!r}")
    if not _is_int(workers) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    return min(workers, runs)


def _pool(workers: int, pool=None):
    """``pool`` if given, else a new pool if ``workers`` is above 1."""
    if pool is not None or workers == 1:
        return contextlib.nullcontext(pool)
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    return ProcessPoolExecutor(max_workers=workers)


def run_batch(config: RunConfig, runs: int, master_seed: int, workers: int = 1, *,
              pool=None) -> list:
    """Execute ``runs`` independent seeded runs of one configuration.

    Results are ordered by run index and bit-identical for a given master
    seed regardless of worker count; with ``workers > 1`` they map onto
    ``pool``, or onto a pool of their own. A run that trips an internal
    invariant aborts the batch; the offending seed is part of the message.
    """
    workers = _busy_workers(runs, workers, master_seed)
    jobs = [(config, derive_run_seed(master_seed, i)) for i in range(runs)]
    if workers == 1:
        return [_execute_run(job) for job in jobs]
    with _pool(workers, pool) as executor:
        return list(executor.map(_execute_run, jobs, chunksize=max(1, runs // (workers * 4))))


@dataclass(frozen=True)
class McBlock:
    """Convergence-time statistics for one (mode, robot_count) batch."""

    mode: str
    robot_count: int
    runs: int
    censored: int
    mean_steps: float
    std_steps: float

    def as_dict(self, step_seconds: float) -> dict:
        return {**dataclasses.asdict(self), "mean_seconds": self.mean_steps * step_seconds,
                "std_seconds": self.std_steps * step_seconds}


@dataclass(frozen=True)
class McSummary:
    """Aggregated batch statistics plus the configuration they came from."""

    master_seed: int
    runs_per_block: int
    step_seconds: float
    config_echo: dict
    blocks: tuple

    def as_dict(self) -> dict:
        return {
            "format": SUMMARY_FORMAT,
            "master_seed": self.master_seed,
            "runs_per_block": self.runs_per_block,
            "step_seconds": self.step_seconds,
            "config": self.config_echo,
            "blocks": [b.as_dict(self.step_seconds) for b in self.blocks],
        }


def summarize_block(mode: str, robot_count: int, traces) -> McBlock:
    """Mean/std of run convergence steps over the uncensored runs of a block."""
    if not traces:
        raise ValueError("cannot summarize an empty batch")
    steps = [t.convergence_step for t in traces if not t.censored]
    if steps:
        arr = np.array(steps, dtype=float)
        mean, std = float(arr.mean()), float(arr.std())
    else:
        mean, std = float("nan"), float("nan")
    return McBlock(
        mode=mode,
        robot_count=robot_count,
        runs=len(traces),
        censored=len(traces) - len(steps),
        mean_steps=mean,
        std_steps=std,
    )


def summarize(config: RunConfig, traces_by_block, master_seed: int,
              per_block=()) -> McSummary:
    """The one McSummary builder: a block per (mode, n) entry, each as long as
    the first, and ``config`` echoed without the fields a sweep's blocks set."""
    return McSummary(
        master_seed=master_seed,
        runs_per_block=len(next(iter(traces_by_block.values()))),
        step_seconds=config.step_seconds,
        # json writes the tuple fields as lists
        config_echo={k: v for k, v in dataclasses.asdict(config).items() if k not in per_block},
        blocks=tuple(summarize_block(mode, n, traces)
                     for (mode, n), traces in traces_by_block.items()),
    )


def run_sweep(config: RunConfig, robot_counts, modes, runs: int, master_seed: int,
              workers: int = 1):
    """Batches for every (mode, robot_count) pair, e.g. the consensus versus
    no-consensus comparison; with ``workers > 1`` one pool serves them all.
    Every block is checked before the first run starts.
    Returns (McSummary, {(mode, n): traces})."""
    workers = _busy_workers(runs, workers, master_seed)
    # a non-integer count reaches RunConfig as it is, and is rejected there
    counts = [int(n) if _is_int(n) else n for n in robot_counts]
    configs = {(mode, n): dataclasses.replace(config, mode=mode, robot_count=n)
               for mode in modes for n in counts}
    # a repeated block would overwrite its traces
    if not configs or len(configs) != len(modes) * len(counts):
        raise ConfigError(f"modes {list(modes)} and robot counts {counts} must be "
                          f"non-empty and must not repeat")
    with _pool(workers) as pool:
        traces_by_block = {key: run_batch(block_config, runs, master_seed, workers, pool=pool)
                           for key, block_config in configs.items()}
    summary = summarize(config, traces_by_block, master_seed,
                        per_block=("robot_count", "mode", "seed"))
    return summary, traces_by_block


# ---------------------------------------------------------------------------
# file emission


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    """One line per step, streamed from the change points; each change row
    is formatted once and repeated until the next change point."""
    n = trace.robot_count
    starts = trace.change_steps.tolist()
    ends = [*starts[1:], trace.step_count + 1]
    with open(path, "w") as out:
        out.write(f"{TRACE_TAG}\nk," + ",".join(f"dh_{a}" for a in range(1, n + 1)) + "\n")
        for start, end, row in zip(starts, ends, trace.change_rows.tolist()):
            text = "," + ",".join(map(repr, row)) + "\n"
            out.writelines(f"{k}{text}" for k in range(start, end))


def write_pmf_csv(pmf: np.ndarray, side_count: int, path: Path, step, robot) -> None:
    """Grid-shaped PMF snapshot; row r of the file is grid row r (south first)."""
    pmf = np.asarray(pmf, dtype=float)
    if pmf.size != side_count * side_count:
        raise ValueError(f"PMF of size {pmf.size} does not fill a {side_count}x{side_count} grid")
    lines = [f"{PMF_TAG} side={side_count} step={step} robot={robot}"]
    lines += [",".join(map(repr, row)) for row in pmf.reshape(side_count, side_count).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def emit_outputs(traces_by_block, summary: McSummary, out_dir, side_count: int,
                 reference_pmf) -> list:
    """Write per-run traces, requested PMF snapshots, the reference PMF and
    the summary JSON.

    Returns the list of written paths. File naming is by block and run index,
    so identical inputs produce byte-identical directory contents.
    """
    out = Path(out_dir)
    trace_dir, snap_dir = out / "traces", out / "snapshots"
    written = []
    try:
        trace_dir.mkdir(parents=True, exist_ok=True)
        snap_dir.mkdir(parents=True, exist_ok=True)
        for (mode, n), traces in sorted(traces_by_block.items()):
            for i, trace in enumerate(traces):
                tpath = trace_dir / f"{mode}_N{n:02d}_run{i:04d}.csv"
                write_trace_csv(trace, tpath)
                written.append(tpath)
                for k in sorted(trace.snapshots):
                    for a in range(1, trace.robot_count + 1):
                        spath = snap_dir / (
                            f"{mode}_N{n:02d}_run{i:04d}_step{k:05d}_robot{a:02d}.csv"
                        )
                        write_pmf_csv(trace.snapshots[k][a - 1], side_count, spath, k, a)
                        written.append(spath)
        rpath = snap_dir / "reference.csv"
        write_pmf_csv(reference_pmf, side_count, rpath, "ref", "ref")
        written.append(rpath)
        spath = out / "summary.json"
        # a numpy scalar in the config (a np.int64 seed or count) is written as its number
        spath.write_text(json.dumps(summary.as_dict(), indent=2, sort_keys=True,
                                    default=np.generic.item) + "\n")
        written.append(spath)
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    return written


# ---------------------------------------------------------------------------
# configuration files


def parse_ints(text: str, what: str) -> tuple:
    """Comma-separated integers, e.g. '4,8,12'; empty items are skipped."""
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated integers, got {text!r}") from exc


def parse_features(text: str):
    """CLI/file feature spec: '19,20,21' node list or 'circle:cx,cy,r' tag."""
    text = text.strip()
    if text.startswith("circle:"):
        return text
    return parse_ints(text, "features")


def _check_keys(section: dict, known, where: str) -> None:
    """Raise ConfigError naming every key of ``section`` not in ``known``."""
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown, key=str)}")


def config_from_dict(d: dict) -> RunConfig:
    _check_keys(d, {f.name for f in dataclasses.fields(RunConfig)}, "config")
    return RunConfig(**d)


def load_config(path):
    """Load a config file; returns (RunConfig, batch dict or {})."""
    import yaml  # only config files read YAML

    try:
        doc = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CONFIG_FORMAT:
        raise ConfigError(f"{path} is not a {CONFIG_FORMAT} file")
    _check_keys(doc, ("format", "run", "batch"), "top-level config")
    # an absent section, or an empty one (YAML null), is {}
    run_section = {} if doc.get("run") is None else doc["run"]
    batch = {} if doc.get("batch") is None else doc["batch"]
    for name, section in (("run", run_section), ("batch", batch)):
        if not isinstance(section, dict):
            raise ConfigError(f"config {name!r} section must be a mapping")
    _check_keys(batch, ("runs", "workers"), "config 'batch'")
    return config_from_dict(run_section), batch
